"""Kernel dictionary learning: full-kernel baseline and the reduced trainers.

The four methods differ only in where the kernel vectors D come from and how
D is updated; ``METHODS`` maps each method to both and to its public trainer.
All trainers run one alternating loop, ``_train``, on Gram matrices only;
feature vectors are never formed. The atom sweep runs on the signals' rows:
``kdl``'s K, with its solve, or F in the reduced trainers' ``kernel_map`` of D.
A trainer's ``callback(it, D, A, Z, k_dd)`` receives the loop's own arrays after
iteration ``it``; later iterations update A and Z in place, so a callback copies what it keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import (POLYNOMIAL, KernelSpec, all_finite, dictionary_gradient, gram,
                      inner_products, self_kernel_diag)
from .linear_dl import Dictionary, TrainTrace, atom_sweep, residual_error
from .sparse_coding import SparseCode, kernel_omp_batch, omp_batch

MAX_GRAM_BYTES = 8 * 20000**2    # kdl's one float64 N x N Gram: N <= 20000, 3.2 GB
CODE_RISE_RTOL = 1e-9    # a fresh code's residual above the swept one's by more is a code_rise


@dataclass(frozen=True)
class Method:
    """A method's kernel-vector source, vector-update rule and trainer.

    ``vectors``: ``"signals"`` (D = Y) or ``"pretrained"`` (AK-SVD dictionary).
    ``update``: ``None`` (D fixed), ``"gradient"`` (descent on the
    representation objective) or ``"mixed"`` (descent with a linear-
    representation penalty on D). ``trainer``: the name of the public trainer
    in this module. Callers look the function up by name when they call it,
    so a rebinding of the module attribute (as instrumentation does) holds.
    """

    vectors: str
    update: str | None
    trainer: str


METHODS = {
    "kdl": Method("signals", None, "kdl_train"),
    "rkdl-d": Method("pretrained", None, "rkdl_train"),
    "orkdl-d": Method("pretrained", "gradient", "orkdl_train"),
    "morkdl-d": Method("pretrained", "mixed", "morkdl_train"),
}


@dataclass
class KernelDictionary:
    """Feature-space dictionary phi(D) A: kernel vectors D plus coefficients A."""

    coefficients: np.ndarray          # (n_d, n_a)
    vectors: Dictionary               # kernel vectors, (m, n_d)
    kernel: KernelSpec

    @property
    def n_atoms(self) -> int:
        return self.coefficients.shape[1]


@dataclass(frozen=True)
class KdlConfig:
    """Settings shared by all kernel trainers.

    ``grad_steps``/``learning_rate`` only matter for the optimized methods,
    ``penalty``/``dl_sparsity`` only for the mixed one.
    """

    n_atoms: int
    sparsity: int
    iters: int
    grad_steps: int = 3
    learning_rate: float = 5e-4
    penalty: float = 1.0
    seed: int = 0
    dl_sparsity: int | None = None

    def __post_init__(self):
        if self.n_atoms < 1 or self.sparsity < 1:
            raise ValueError("n_atoms and sparsity must be positive")
        if self.sparsity > self.n_atoms:
            raise ValueError("sparsity cannot exceed the number of kernel atoms")
        for name in ("iters", "grad_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        for name in ("learning_rate", "penalty"):
            if not 0 <= getattr(self, name) < np.inf:    # NaN fails it
                raise ValueError(f"{name} must be finite and at least 0, got {getattr(self, name)}")


def _pivoted_cholesky(a: np.ndarray, stats: dict, overwrite: bool = False) -> tuple:
    """LAPACK's pivoted Cholesky factor (c, p, r) of the symmetric ``a``, the one
    policy of every trainer: a[p][:, p] = L L^T, L the first r columns of c's lower
    triangle, at LAPACK's default tolerance N * eps * max diag(a). The N - r vectors
    dependent on the pivots are dropped, counted in ``stats["kdd_rank_drop"]``."""
    c, piv, r, _ = scipy.linalg.lapack.dpstrf(a, lower=1, overwrite_a=overwrite)
    if r < len(piv):
        stats["kdd_rank_drop"] = stats.get("kdd_rank_drop", 0) + len(piv) - r
    return c, piv - 1, r


class FactoredGram:
    """A symmetric Gram K whose buffer holds its pivoted Cholesky factor
    (``_pivoted_cholesky``), K[p][:, p] = L L^T at K's numerical rank r.

    L is written over the F-ordered view K^T of the C-ordered K, so K's upper
    triangle becomes L^T and its strict lower one is untouched. Past the rank L
    is [L_11, 0; 0, I], so ``solve`` weighs the signals dropped 0. The buffer's
    diagonal is L's only inside ``solve``, else K's, so ``k @ x`` (BLAS symm, symv
    for a vector) is K x: a mend by diag(K) - diag(L) would lose K's digits where
    L's pivot dwarfs them.
    """

    def __init__(self, K: np.ndarray, stats: dict):
        n = K.shape[0]
        if K.shape != (n, n) or not K.flags.c_contiguous:
            raise ValueError("a kernel Gram is factored in place, so it must be square, C-ordered")
        self.k_diag = np.diag(K).copy()
        c, p, r = _pivoted_cholesky(K.T, stats, overwrite=True)
        c[r:, :r] = 0.0
        for j in range(r, n):    # the factor's triangle only: an eye write would clobber K's
            c[j + 1:, j] = 0.0
        self.l_diag = np.pad(np.diag(c)[:r], (0, n - r), constant_values=1.0)
        np.fill_diagonal(c, self.k_diag)
        self.shape, self.factor, self.rank = K.shape, c, r
        self.pivots, self.order = p, np.argsort(p)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)    # F-ordered factor: its upper triangle is K's lower one
        symm = scipy.linalg.blas.dsymv if x.ndim == 1 else scipy.linalg.blas.dsymm
        return symm(1.0, self.factor, x)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """x with K x = v for v in K's range: L_11^-T L_11^-1 v[p[:r]] on the pivots, 0 off them."""
        np.fill_diagonal(self.factor, self.l_diag)
        try:
            y = scipy.linalg.cho_solve((self.factor, True), v[self.pivots], check_finite=False)
        finally:
            np.fill_diagonal(self.factor, self.k_diag)
        y[self.rank:] = 0.0
        return y[self.order]


def kernel_map(k_dd: np.ndarray, A: np.ndarray, stats: dict) -> tuple:
    """(T, B, scale) from the factor K_DD[p][:, p] = L L^T of rank r (``_pivoted_cholesky`` of
    a copy): T (n_d x r) is L_11^-T in the pivots' rows, 0 elsewhere, and B = L^T A[p] / scale has
    unit columns (norms floored at 1e-12). The atoms T B have Gram B^T B and cross Gram F B,
    F = K_YD T: linear atoms on the signals' rows F ("virtual samples", Golts and Elad)."""
    L, p, r = _pivoted_cholesky(k_dd, stats)
    L = np.tril(L[:, :r])
    T = np.zeros((len(p), r))
    T[p[:r]] = scipy.linalg.solve_triangular(L[:r], np.eye(r), lower=True, check_finite=False).T
    B = L.T @ A[p]
    scale = np.sqrt(np.maximum(np.einsum("ij,ij->j", B, B), 1e-24))
    B /= scale
    return T, B, scale


def _atom_products(rows, A: np.ndarray) -> tuple:
    """The atoms' cross Gram P (N, n_a) and Gram G on the signals' ``rows``: ``kdl``'s
    ``FactoredGram`` K, P = K A and G = A^T P, or a ``kernel_map``'s F, P = F B and
    G = B^T B. One pair serves an error evaluation and the coding that follows it."""
    P = rows @ A
    return P, A.T @ (P if isinstance(rows, FactoredGram) else A)


def _residuals(kyy: np.ndarray, P, G, Z) -> tuple[np.ndarray, np.ndarray]:
    """Each signal's squared feature-space residual k(y, y) - 2 p.z + z^T G z under
    the code Z (columns) on the atom products P and G, and its round-off slack,
    ``CODE_RISE_RTOL`` times the sum of the three terms' magnitudes: a fresh code
    whose squared residual exceeds the two is a code rise."""
    pz = np.einsum("la,al->l", P, Z)
    zgz = np.einsum("al,al->l", Z, G @ Z)
    return kyy - 2.0 * pz + zgz, CODE_RISE_RTOL * (np.abs(kyy) + 2.0 * np.abs(pz) + np.abs(zgz))


def _check_finite(kernel: KernelSpec, when: str, k_dd, k_yd, kyy=None) -> None:
    """Raise a FloatingPointError naming ``kernel`` and ``when`` unless the Grams
    K_DD and K_YD (read once when they are one array) and, when given, the
    signals' self-kernels ``kyy`` and their sum are finite."""
    if not (all_finite(k_dd) and (k_yd is k_dd or all_finite(k_yd))):
        raise FloatingPointError(f"kernel matrices for {kernel} are not finite {when}")
    if kyy is not None and not np.isfinite(kyy.sum()):
        raise FloatingPointError(f"signal self-kernels for {kernel} are not finite {when}")


def _model_grams(kdict: KernelDictionary, Y: np.ndarray) -> tuple:
    """K_YD, the self-kernels k(y, y) and K_DD of the signals Y under the model
    ``kdict``, each formed once and checked finite: ``kernel_omp_batch``'s order."""
    D, kernel = kdict.vectors.atoms, kdict.kernel
    if Y.shape[0] != D.shape[0]:
        raise ValueError(f"signals have dimension {Y.shape[0]}, the model's vectors {D.shape[0]}")
    k_yd, k_dd, kyy = gram(Y, D, kernel), gram(D, D, kernel), self_kernel_diag(Y, kernel)
    _check_finite(kernel, "for these signals; rescale the signals", k_dd, k_yd, kyy)
    return k_yd, kyy, k_dd


def encode(kdict: KernelDictionary, Y, sparsity: int, stats: dict | None = None) -> SparseCode:
    """Kernel OMP codes of the signals Y (columns) on the atoms of ``kdict``:
    ``kernel_omp_batch`` on the model's K_YD, k(y, y), K_DD and coefficients A.

    Each signal's squared feature-space residual is in ``residual_sq``, so
    ``residual_error(code.residual_sq.sum(), Y.size)`` is the code's error with
    no further product (an upper bound after a pick counted in ``stats["ridge"]``).
    """
    grams = _model_grams(kdict, np.asarray(Y, dtype=float))
    return kernel_omp_batch(*grams, kdict.coefficients, sparsity, stats)


def error_metric(Y: np.ndarray, kdict: KernelDictionary, Z) -> float:
    """Representation error per signal element, ||phi(Y) - phi(D) A Z||_F / sqrt(mN)."""
    Y = np.asarray(Y, dtype=float)
    Zm = Z.matrix if isinstance(Z, SparseCode) else np.asarray(Z, dtype=float)
    k_yd, kyy, k_dd = _model_grams(kdict, Y)
    A = kdict.coefficients
    P, G = k_yd @ A, A.T @ (k_dd @ A)
    return residual_error(_residuals(kyy, P, G, Zm)[0].sum(), Y.size)


def rkdl_atom_sweep(rows, A: np.ndarray, Z: np.ndarray, stats: dict | None = None) -> None:
    """``linear_dl.atom_sweep`` in place on the caller's coefficients A and code Z
    (fastest when Z is signal-major, as a coder's code is) over the signals' ``rows``:
    ``kdl``'s ``FactoredGram`` K, solving with it, or a ``kernel_map``'s F (N x r) on
    the identity Gram, A its B.

    Unused and degenerate atoms are left untouched and counted in
    ``stats["unused_kernel_atom"]`` and ``stats["degenerate_kernel_atom"]``.
    """
    for name, M in (("A", A), ("Z", Z)):    # np.asarray would sweep a copy, unseen
        if not (isinstance(M, np.ndarray) and M.dtype == np.float64 and M.flags.writeable):
            raise TypeError(f"{name} is swept in place, so it must be a writeable float64 ndarray")
    kdl = isinstance(rows, FactoredGram)
    rows = rows if kdl else np.asarray(rows, dtype=float)
    if rows.shape[1] != A.shape[0] or Z.shape[0] != A.shape[1]:
        raise ValueError("Gram/coefficient/code shapes are inconsistent")

    counts = atom_sweep(rows, A, Z, solve=rows.solve if kdl else None)
    for key, count in zip(("unused_kernel_atom", "degenerate_kernel_atom"), counts):
        if count and stats is not None:
            stats[key] = stats.get(key, 0) + count


def _linear_penalty_products(Y: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y X^T (m x n_d) and X X^T (n_d x n_d) for the linear code X (n_d x N).

    The mixed objective's penalty gradient -2 (Y - D X) X^T equals
    -2 (Y X^T - D X X^T), so these two products serve every gradient step
    of one iteration without forming the m x N residual Y - D X. X is the
    dense code matrix: at n_d = 50 the BLAS products measured faster than
    sparse ones (0.03 s against 0.06 s at m = 784, N = 8000, 2 cores).
    """
    return inner_products(Y.T, X.T), X @ X.T


def _init_coefficients(n_vectors: int, n_atoms: int, self_kernels: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Seeded 1-sparse coefficient columns, Gram-normalized.

    Each atom starts as a coordinate vector at a distinct kernel-vector index,
    scaled so a_j^T K_DD a_j = 1; ``self_kernels`` is the diagonal of K_DD.
    """
    if n_vectors < n_atoms:
        raise ValueError(f"cannot place {n_atoms} kernel atoms on {n_vectors} vectors")
    usable = np.flatnonzero(self_kernels > 1e-12)
    if usable.size < n_atoms:
        raise ValueError("not enough kernel vectors with nonzero self-kernel")
    chosen = rng.choice(usable, size=n_atoms, replace=False)
    A = np.zeros((n_vectors, n_atoms))
    A[chosen, np.arange(n_atoms)] = 1.0 / np.sqrt(self_kernels[chosen])
    return A


def _train(Y, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig, *,
           update: str | None, callback=None):
    """The alternating loop of every trainer, under a ``Method.update`` rule.

    Each iteration codes the signals, sweeps the kernel atoms and, when
    ``update`` is set, takes ``cfg.grad_steps`` gradient steps on D, each
    followed by fresh Grams and their ``kernel_map``. A signal whose fresh code
    leaves a larger residual than the swept code it replaces, past the slack of
    ``_residuals``, is counted in ``code_rise``; the fresh code is kept.
    Returns (KernelDictionary, SparseCode, TrainTrace).
    """
    t_start = time.perf_counter()
    Y = np.asarray(Y, dtype=float)
    m, N = Y.shape
    D = vectors.atoms if vectors.atoms is Y else np.array(vectors.atoms, dtype=float, copy=True)
    trace = TrainTrace(errors=[], warnings={}, phase_seconds=dict.fromkeys(
        ("gram_refresh", "coding", "factor", "atom_sweep", "gradient", "error_eval"), 0.0))
    stats, timed = trace.warnings, trace.timed
    rng = np.random.default_rng(cfg.seed)
    descend = update is not None and cfg.grad_steps > 0 and cfg.learning_rate > 0
    penalized = descend and update == "mixed" and cfg.penalty > 0    # reads the linear code X
    hold_yd = penalized or descend and kernel.family == POLYNOMIAL    # Y^T D read past its Gram
    lr_hint = f"try a smaller learning rate (currently {cfg.learning_rate})"

    with timed("gram_refresh"):    # Y is fixed: its norms and self-kernels serve every step
        y_sq = np.einsum("ij,ij->j", Y, Y)
        kyy = self_kernel_diag(Y, kernel)

    def grams(D, when: str, kyy=None):
        """K_DD, K_YD (checked finite, with ``kyy``) and, with ``hold_yd``, the Y^T D
        that the cross Gram, the polynomial gradient and the mixed method's coding
        read. When D is Y, K_YD is K_DD itself: ``kdl`` holds one N x N array."""
        with timed("gram_refresh"):
            k_dd = gram(D, D, kernel)
            yd = inner_products(Y, D) if hold_yd else None
            k_yd = k_dd if D is Y else gram(Y, D, kernel, x_sq=y_sq, xy=yd)
        _check_finite(kernel, when, k_dd, k_yd, kyy)
        return k_dd, k_yd, yd

    k_dd, k_yd, yd = grams(D, "at start-up; lower beta or alpha, or rescale the signals", kyy)

    A = _init_coefficients(D.shape[1], cfg.n_atoms, np.diag(k_dd), rng)
    Z = np.zeros((N, cfg.n_atoms)).T    # signal-major, as every code the coder returns
    with timed("factor"):
        if D is Y:    # kdl factors K in its own buffer and sweeps A itself on K's rows
            k_dd = k_yd = FactoredGram(k_dd, stats)
            if k_dd.rank < N:    # seed A on K's pivots, where the sweep keeps it
                A[...] = k_dd.solve(k_dd @ A)
                A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
            T, B = None, A
        else:    # the reduced trainers sweep A's coordinates B in the kernel map of D
            T, B, _ = kernel_map(k_dd, A, stats)

    def rows():    # the signals' rows: kdl's K, or F = K_YD T, formed where read, never held
        return k_yd if T is None else k_yd @ T

    def evaluate():    # each (P, G) serves one error and the next coding
        with timed("error_eval"):
            P, G = _atom_products(rows(), B)
            res, slack = _residuals(kyy, P, G, Z)
            trace.record(residual_error(res.sum(), m * N, stats), t_start)
        return P, G, res, slack

    P, G, res, slack = evaluate()
    for it in range(cfg.iters):
        with timed("coding"):
            Z = code = None    # freed first; kernel OMP on the atoms (P, G, coefficients I)
            code = kernel_omp_batch(P, kyy, G, np.eye(cfg.n_atoms), cfg.sparsity, stats)
            Z, rise = code.matrix, int(np.count_nonzero(code.residual_sq > res + slack))
            if rise:
                stats["code_rise"] = stats.get("code_rise", 0) + rise
            if penalized:
                X = omp_batch(D, Y, cfg.dl_sparsity, stats=stats, norms_sq=y_sq, yd=yd)

        with timed("atom_sweep"):
            rkdl_atom_sweep(rows(), B, Z, stats=stats)
            if T is not None:    # the loop's own A, read by the gradient, callback and model
                np.matmul(T, B, out=A)

        if descend:
            with timed("gradient"):    # A and Z stay fixed through the steps
                W = A @ Z
                WWt = W @ W.T
                if penalized:
                    YXt, XXt = _linear_penalty_products(Y, X.matrix)
                    X = None    # its last reader: not held through the steps or the next coding
            for step in range(cfg.grad_steps):
                with timed("gradient"):
                    grad = dictionary_gradient(Y, D, W, kernel, k_yd=k_yd, k_dd=k_dd, yd=yd,
                                               WWt=WWt)
                    if penalized:
                        grad = grad - 2.0 * cfg.penalty * (YXt - D @ XXt)
                    if not all_finite(grad):
                        raise FloatingPointError(
                            f"non-finite kernel-vector gradient at iteration {it}; {lr_hint}")
                    D = D - cfg.learning_rate * grad
                    if update == "mixed" and step == cfg.grad_steps - 1:
                        norms = np.linalg.norm(D, axis=0)
                        zero = int(np.sum(norms < 1e-14))
                        if zero:
                            stats["zero_vector"] = stats.get("zero_vector", 0) + zero
                        D = D / np.maximum(norms, 1e-14)
                k_dd = k_yd = yd = None    # not held while grams forms the next ones
                k_dd, k_yd, yd = grams(D, f"after gradient step {step}, iteration {it}; {lr_hint}")
            W = WWt = YXt = XXt = grad = None    # the steps' products, read by no later phase
            with timed("factor"):    # K_DD changed: its kernel map and A's coordinates in it
                T, B, scale = kernel_map(k_dd, A, stats)
            with timed("gradient"):    # the atoms renormalized: the code rows scaled inversely
                Z *= scale[:, None]    # keep phi(D) A Z (and the error) unchanged
                np.matmul(T, B, out=A)

        P, G, res, slack = evaluate()
        if callback is not None:
            callback(it, D, A, Z, k_dd)

    kdict = KernelDictionary(coefficients=A, vectors=Dictionary(atoms=D), kernel=kernel)
    trace.total_seconds = time.perf_counter() - t_start
    return kdict, SparseCode(matrix=Z, sparsity=cfg.sparsity), trace


def kdl_train(Y: np.ndarray, kernel: KernelSpec, cfg: KdlConfig, callback=None):
    """Full kernel dictionary learning with D = Y.

    The N x N Gram K is the one N x N array a run holds, for every kernel:
    ``gram`` builds it in the buffer of its product, its finiteness check
    copies nothing, it is factored in place, and every product with K reads
    the triangle of K that the factor leaves (``FactoredGram``), which the
    callback receives as ``k_dd``. A signal set whose K of 8 N^2 bytes exceeds
    ``MAX_GRAM_BYTES`` is refused before anything is built; a caller with more
    memory raises the constant. Returns (KernelDictionary, SparseCode, TrainTrace).

    K is factored by rank, as every trainer's Gram is (``_pivoted_cholesky``, at
    LAPACK's default tolerance N * eps * max diag(K)): where K is numerically
    singular, each signal dependent on the pivots is counted in ``kdd_rank_drop``
    and has coefficients 0: the atoms are seeded on the pivots, where the sweep keeps them.
    """
    Y = np.asarray(Y, dtype=float)
    N = Y.shape[1]
    if 8 * N * N > MAX_GRAM_BYTES:
        raise ValueError(f"{N} signals would need a {N}x{N} Gram of {8 * N * N} bytes, over "
                         f"kdl's MAX_GRAM_BYTES = {MAX_GRAM_BYTES}; train a reduced method "
                         "such as rkdl-d, or raise rkdl.kernel_dl.MAX_GRAM_BYTES")
    return _train(Y, Dictionary(atoms=Y), kernel, cfg, update=None, callback=callback)


def rkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
               callback=None):
    """Reduced kernel dictionary learning over a fixed pre-trained D."""
    return _train(Y, vectors, kernel, cfg, update=None, callback=callback)


def orkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
                callback=None):
    """Reduced kernel dictionary learning with gradient-refined kernel vectors.

    After every atom sweep, the kernel vectors take ``cfg.grad_steps``
    descent steps along the analytic kernel gradients. Within one step all
    columns use gradients evaluated at the step-start D (Jacobi style); Gram
    matrices are recomputed after every step.
    """
    return _train(Y, vectors, kernel, cfg, update="gradient", callback=callback)


def morkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
                 callback=None):
    """Gradient-refined reduced KDL under a mixed objective.

    The kernel-vector gradient gains the linear-representation term
    -2 * penalty * (Y - D X) X^T, X recoded by OMP in each iteration that takes
    a step with penalty > 0. It is evaluated as -2 * penalty * (Y X^T - D X X^T)
    from the two products Y X^T and X X^T, formed once per iteration from the
    code X, so no gradient step builds the m x N residual Y - D X. The columns
    of D are re-normalized after the gradient steps, so OMP codes X on unit
    vectors in every iteration. X stays internal: like every trainer, this
    returns (KernelDictionary, SparseCode, TrainTrace), the trace recording the
    nonlinear representation error only.
    """
    if cfg.dl_sparsity is None or not 1 <= cfg.dl_sparsity <= vectors.n_atoms:
        raise ValueError(f"morkdl_train needs cfg.dl_sparsity (linear code sparsity) in "
                         f"[1, {vectors.n_atoms}], got {cfg.dl_sparsity}")
    return _train(Y, vectors, kernel, cfg, update="mixed", callback=callback)
