"""Kernel dictionary learning: full-kernel baseline and the reduced trainers.

The four methods differ only in where the kernel vectors D come from and how
D is updated; ``METHODS`` maps each method to both and to its public trainer.
All trainers run one alternating loop, ``_train``, on Gram matrices only;
feature vectors are never formed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import KernelSpec, dictionary_gradient, gram, inner_products, self_kernel_diag
from .linear_dl import GATHER_BYTES, Dictionary, atom_sweep
from .sparse_coding import SparseCode, kernel_omp_batch, omp_batch

KDD_RIDGE = 1e-10


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
    ``penalty``/``dl_sparsity``/``normalize_vectors`` only for the mixed one.
    """

    n_atoms: int
    sparsity: int
    iters: int
    grad_steps: int = 3
    learning_rate: float = 5e-4
    penalty: float = 1.0
    seed: int = 0
    normalize_vectors: bool = True
    dl_sparsity: int | None = None

    def __post_init__(self):
        if self.n_atoms < 1 or self.sparsity < 1:
            raise ValueError("n_atoms and sparsity must be positive")
        if self.sparsity > self.n_atoms:
            raise ValueError("sparsity cannot exceed the number of kernel atoms")
        if self.iters < 0 or self.grad_steps < 0:
            raise ValueError("iters and grad_steps must be non-negative")
        if self.learning_rate < 0 or self.penalty < 0:
            raise ValueError("learning_rate and penalty must be non-negative")


@dataclass
class TrainTrace:
    """Per-iteration errors plus phase timings and warning counters.

    ``errors`` has ``iters + 1`` entries; entry 0 is the error right after
    initialization (empty code), entry i the error after iteration i.
    """

    errors: list[float]
    phase_seconds: dict[str, float]
    warnings: dict[str, int]
    total_seconds: float = 0.0


def _chol_with_ridge(K: np.ndarray, stats: dict) -> tuple:
    """Cholesky factor of K, adding an escalating ridge if not numerically PD."""
    Kr = np.empty_like(K, order="F")    # LAPACK's order: every attempt factors Kr in place
    ridge = 0.0
    while ridge <= 1e-2:
        Kr[...] = K
        Kr.flat[:: K.shape[0] + 1] += ridge
        try:
            return scipy.linalg.cho_factor(Kr, overwrite_a=True)
        except scipy.linalg.LinAlgError:
            ridge = max(100.0 * ridge, KDD_RIDGE)
            stats["kdd_ridge"] = stats.get("kdd_ridge", 0) + 1
    raise np.linalg.LinAlgError("kernel-vector Gram is not positive definite even after ridging")


# Column-block width of ``FactoredGram`` products. Each block costs two BLAS
# calls, and its diagonal square multiplies B(B-1)/2 zeros; at N = 2000
# (2 cores) one K u took about 1.0 ms in 512-column blocks, 1.4 ms in 256 and
# 0.7 ms as one product with the full square K.
FACTOR_BLOCK = 512


class FactoredGram:
    """A symmetric Gram K held only as its Cholesky factor L, L L^T = K + r I,
    written over K's own buffer.

    The factor is LAPACK's lower one of K^T, so K's upper triangle becomes L
    and its strict lower triangle is untouched: a failed attempt mirrors that
    triangle back over the factored one (K itself, since ``gram(Y, Y)`` is
    bit-symmetric) and retries at the next ridge r, counted in
    ``stats["kdd_ridge"]`` as ``_chol_with_ridge`` counts them. ``k @ x`` is
    K x = L (L^T x) - r x, formed from the column-block trapezoids
    L[j0:, j0:j1] in numpy's BLAS, so a product reads about as many bytes as
    one with K. ``chol`` is the ``(factor, lower)`` pair of
    ``scipy.linalg.cho_solve``.
    """

    def __init__(self, K: np.ndarray, stats: dict):
        n = K.shape[0]
        if K.shape != (n, n) or not K.flags.c_contiguous:
            raise ValueError("FactoredGram needs a square C-ordered Gram to factor in place")
        self.shape = K.shape
        diag = np.diag(K).copy()
        self.ridge = 0.0
        while True:
            try:
                c, _ = scipy.linalg.cho_factor(K.T, lower=True, overwrite_a=True,
                                               check_finite=False)
                break
            except scipy.linalg.LinAlgError:
                self.ridge = max(100.0 * self.ridge, KDD_RIDGE)
                stats["kdd_ridge"] = stats.get("kdd_ridge", 0) + 1
                if self.ridge > 1e-2:
                    raise np.linalg.LinAlgError(
                        "kernel Gram is not positive definite even after ridging") from None
                _mirror_upper_from_lower(K)
                K.flat[:: n + 1] = diag + self.ridge
        for j0 in range(0, n, FACTOR_BLOCK):    # the blocks' squares hold K's values above L
            square = c[j0:j0 + FACTOR_BLOCK, j0:j0 + FACTOR_BLOCK]
            square[np.triu(np.ones(square.shape, dtype=bool), 1)] = 0.0
        self.chol = (c, True)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        L = self.chol[0]
        y = np.zeros(x.shape)
        w = np.empty((FACTOR_BLOCK,) + x.shape[1:])
        part = np.empty(x.shape)
        for j0 in range(0, self.shape[0], FACTOR_BLOCK):
            block = L[j0:, j0:j0 + FACTOR_BLOCK]
            wb = np.matmul(block.T, x[j0:], out=w[:block.shape[1]])
            y[j0:] += np.matmul(block, wb, out=part[j0:])
        if self.ridge:
            y -= self.ridge * x
        return y


def _mirror_upper_from_lower(K: np.ndarray) -> None:
    """K[i, j] = K[j, i] for every j > i, in row blocks of at most GATHER_BYTES."""
    n = K.shape[0]
    rows = max(1, GATHER_BYTES // (8 * n))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        square = K[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        square[upper] = square.T[upper]
        K[i0:i1, i1:] = K[i1:, i0:i1].T


def _atom_products(k_yd: np.ndarray, k_dd: np.ndarray, A: np.ndarray) -> tuple:
    """The atoms' cross Gram P = K_YD A (N, n_a) and Gram G = A^T K_DD A.

    One pair serves an error evaluation and the coding that follows it. When
    K_YD is K_DD (``kdl``), P is K_DD A itself: one N x N product, not two.
    """
    KA = k_dd @ A
    return (KA if k_yd is k_dd else k_yd @ A), A.T @ KA


def _trace_error(kyy_sum: float, P, G, Z, m: int, N: int, stats: dict | None = None) -> float:
    """Normalized representation error from the atom products P and G.

    sqrt(max(0, Tr[K_YY] - 2 Tr[P Z] + Tr[Z^T G Z])) / sqrt(mN); only the
    diagonal of K_YY enters through ``kyy_sum``. Each clamp of a negative
    squared residual is counted in ``stats["residual_clamp"]``.
    """
    t2 = float(np.einsum("la,al->", P, Z))
    t3 = float(np.einsum("al,al->", Z, G @ Z))
    res_sq = kyy_sum - 2.0 * t2 + t3
    if res_sq < 0.0 and stats is not None:
        stats["residual_clamp"] = stats.get("residual_clamp", 0) + 1
    return float(np.sqrt(max(0.0, res_sq)) / np.sqrt(m * N))


def error_metric(Y: np.ndarray, kdict: KernelDictionary, Z) -> float:
    """Representation error per signal element, ||phi(Y) - phi(D) A Z||_F / sqrt(mN)."""
    Y = np.asarray(Y, dtype=float)
    Zm = Z.matrix if isinstance(Z, SparseCode) else np.asarray(Z, dtype=float)
    D = kdict.vectors.atoms
    P, G = _atom_products(gram(Y, D, kdict.kernel), gram(D, D, kdict.kernel), kdict.coefficients)
    kyy_sum = float(self_kernel_diag(Y, kdict.kernel).sum())
    return _trace_error(kyy_sum, P, G, Zm, *Y.shape)


def rkdl_atom_sweep(k_dd: np.ndarray, k_yd: np.ndarray, A: np.ndarray, Z: np.ndarray,
                    chol=None, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``linear_dl.atom_sweep`` on the kernel vectors' Gram, with a Cholesky
    solve (``chol``, factored here when not given), on copies of A and Z.
    ``k_dd`` may be a ``FactoredGram`` (``kdl``'s K, then also ``k_yd``),
    which brings its own factor.

    Unused and degenerate atoms are left untouched and counted in
    ``stats["unused_kernel_atom"]`` and ``stats["degenerate_kernel_atom"]``.

    Returns updated copies of (A, Z).
    """
    if isinstance(k_dd, FactoredGram):
        chol = k_dd.chol
    else:
        k_dd = np.asarray(k_dd, dtype=float)
        k_yd = np.asarray(k_yd, dtype=float)
    A = np.array(A, dtype=float, copy=True)
    Z = np.array(Z, dtype=float, copy=True)
    n_d, n_a = A.shape
    if k_yd.shape[1] != n_d or k_dd.shape != (n_d, n_d) or Z.shape[0] != n_a:
        raise ValueError("Gram/coefficient/code shapes are inconsistent")
    if stats is None:
        stats = {}
    if chol is None:
        chol = _chol_with_ridge(k_dd, stats)

    counts = atom_sweep(k_yd, A, Z, k_dd=k_dd,
                        solve=lambda v: scipy.linalg.cho_solve(chol, v, check_finite=False))
    for key, count in zip(("unused_kernel_atom", "degenerate_kernel_atom"), counts):
        if count:
            stats[key] = stats.get(key, 0) + count
    return A, Z


def _linear_penalty_products(Y: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y X^T (m x n_d) and X X^T (n_d x n_d) for the linear code X (n_d x N).

    The mixed objective's penalty gradient -2 (Y - D X) X^T equals
    -2 (Y X^T - D X X^T), so these two products serve every gradient step
    of one iteration without forming the m x N residual Y - D X. X is the
    dense code matrix: at n_d = 50 the BLAS products measured faster than
    sparse ones (0.03 s against 0.06 s at m = 784, N = 8000, 2 cores).
    """
    return inner_products(Y.T, X.T), X @ X.T


def _init_coefficients(n_vectors: int, n_atoms: int, k_dd_diag: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Seeded 1-sparse coefficient columns, Gram-normalized.

    Each atom starts as a coordinate vector at a distinct kernel-vector index,
    scaled so a_j^T K_DD a_j = 1.
    """
    if n_vectors < n_atoms:
        raise ValueError(f"cannot place {n_atoms} kernel atoms on {n_vectors} vectors")
    usable = np.flatnonzero(k_dd_diag > 1e-12)
    if usable.size < n_atoms:
        raise ValueError("not enough kernel vectors with nonzero self-kernel")
    chosen = rng.choice(usable, size=n_atoms, replace=False)
    A = np.zeros((n_vectors, n_atoms))
    A[chosen, np.arange(n_atoms)] = 1.0 / np.sqrt(k_dd_diag[chosen])
    return A


def _train(Y, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig, *,
           update: str | None, callback=None):
    """The alternating loop of every trainer, under a ``Method.update`` rule.

    Each iteration codes the signals, sweeps the kernel atoms and, when
    ``update`` is set, takes ``cfg.grad_steps`` gradient steps on D, each
    followed by fresh Grams. Returns (KernelDictionary, SparseCode,
    TrainTrace); D keeps the input's ``normalized`` flag when fixed, and is
    marked normalized when updated only if the mixed update renormalizes it.
    """
    t_start = time.perf_counter()
    Y = np.asarray(Y, dtype=float)
    m, N = Y.shape
    D = vectors.atoms if vectors.atoms is Y else np.array(vectors.atoms, dtype=float, copy=True)
    phases = {"gram_refresh": 0.0, "coding": 0.0, "factor": 0.0, "atom_sweep": 0.0,
              "gradient": 0.0, "error_eval": 0.0}
    stats: dict = {}
    rng = np.random.default_rng(cfg.seed)
    descend = update is not None and cfg.grad_steps > 0 and cfg.learning_rate > 0
    penalized = update == "mixed" and cfg.penalty > 0
    renormalize = update == "mixed" and cfg.normalize_vectors
    smaller_step = f"try a smaller learning rate (currently {cfg.learning_rate})"

    @contextmanager
    def timed(phase: str):
        t0 = time.perf_counter()
        yield
        phases[phase] += time.perf_counter() - t0

    with timed("gram_refresh"):
        y_sq = np.einsum("ij,ij->j", Y, Y)    # Y is fixed: its norms serve every Gram and code

    def grams(D, when: str):
        """K_DD and K_YD at D, checked finite. K_YD is K_DD itself when D is
        Y, so ``kdl`` holds one N x N array, not two."""
        with timed("gram_refresh"):
            k_dd = gram(D, D, kernel)
            k_yd = k_dd if D is Y else gram(Y, D, kernel, x_sq=y_sq)
        if not (np.all(np.isfinite(k_dd)) and (k_yd is k_dd or np.all(np.isfinite(k_yd)))):
            raise FloatingPointError(f"kernel matrices for {kernel} are not finite {when}")
        return k_dd, k_yd

    at_start = "at start-up; lower beta or alpha, or rescale the signals"
    k_dd, k_yd = grams(D, at_start)
    with timed("gram_refresh"):
        kyy = self_kernel_diag(Y, kernel)
        kyy_sum = float(kyy.sum())
    if not np.isfinite(kyy_sum):
        raise FloatingPointError(f"signal self-kernels for {kernel} are not finite {at_start}")

    k_dd_diag = np.diag(k_dd).copy()
    with timed("factor"):
        if D is Y:    # kdl holds K only as its factor, in K's own buffer
            k_dd = k_yd = FactoredGram(k_dd, stats)
            chol = k_dd.chol
        else:
            chol = _chol_with_ridge(k_dd, stats)

    A = _init_coefficients(D.shape[1], cfg.n_atoms, k_dd_diag, rng)
    Z = np.zeros((cfg.n_atoms, N))
    with timed("error_eval"):    # each (P, G) serves one error and the next coding
        P, G = _atom_products(k_yd, k_dd, A)
        errors = [_trace_error(kyy_sum, P, G, Z, m, N, stats)]

    for it in range(cfg.iters):
        with timed("coding"):
            # kernel OMP on the atoms themselves: cross Gram P, Gram G, coefficients I
            Z = kernel_omp_batch(P, kyy, G, np.eye(cfg.n_atoms), cfg.sparsity, stats).matrix
            if update == "mixed":
                X = omp_batch(D, Y, cfg.dl_sparsity, require_normalized=cfg.normalize_vectors,
                              stats=stats, norms_sq=y_sq)

        with timed("atom_sweep"):
            A, Z = rkdl_atom_sweep(k_dd, k_yd, A, Z, chol=chol, stats=stats)

        if descend:
            with timed("gradient"):
                if penalized:
                    YXt, XXt = _linear_penalty_products(Y, X.matrix)
            for step in range(cfg.grad_steps):
                with timed("gradient"):
                    grad = dictionary_gradient(Y, D, A, Z, kernel, k_yd=k_yd, k_dd=k_dd)
                    if penalized:
                        grad = grad - 2.0 * cfg.penalty * (YXt - D @ XXt)
                    if not np.all(np.isfinite(grad)):
                        raise FloatingPointError(
                            f"non-finite kernel-vector gradient at iteration {it}; {smaller_step}")
                    D = D - cfg.learning_rate * grad
                    if renormalize and step == cfg.grad_steps - 1:
                        norms = np.linalg.norm(D, axis=0)
                        zero = int(np.sum(norms < 1e-14))
                        if zero:
                            stats["zero_vector"] = stats.get("zero_vector", 0) + zero
                        D = D / np.maximum(norms, 1e-14)
                k_dd, k_yd = grams(D, f"after gradient step {step}, iteration {it}; {smaller_step}")
            with timed("factor"):
                chol = _chol_with_ridge(k_dd, stats)
            with timed("atom_sweep"):
                # re-normalize atoms under the refreshed Gram; scaling the code
                # rows inversely keeps phi(D) A Z (and the error) unchanged
                norm_sq = np.einsum("ij,ij->j", A, k_dd @ A)
                scale = np.sqrt(np.maximum(norm_sq, 1e-24))
                A = A / scale
                Z = Z * scale[:, None]

        with timed("error_eval"):
            P, G = _atom_products(k_yd, k_dd, A)
            errors.append(_trace_error(kyy_sum, P, G, Z, m, N, stats))
        if callback is not None:
            callback(it, D, A, Z, k_dd)

    normalized = vectors.normalized if update is None else renormalize
    kdict = KernelDictionary(coefficients=A, vectors=Dictionary(atoms=D, normalized=normalized),
                             kernel=kernel)
    trace = TrainTrace(errors=errors, phase_seconds=phases, warnings=stats,
                       total_seconds=time.perf_counter() - t_start)
    return kdict, SparseCode(matrix=Z, sparsity=cfg.sparsity), trace


def kdl_train(Y: np.ndarray, kernel: KernelSpec, cfg: KdlConfig,
              max_gram_signals: int = 20000, callback=None):
    """Full kernel dictionary learning with D = Y.

    The N x N Gram K is the one N x N array a run holds: it is factored in
    place, and every product with K goes through the factor (``FactoredGram``),
    which the callback receives as ``k_dd``. Refuses signal sets whose Gram
    would exceed ``max_gram_signals`` columns. Returns (KernelDictionary,
    SparseCode, TrainTrace).
    """
    Y = np.asarray(Y, dtype=float)
    N = Y.shape[1]
    if N > max_gram_signals:
        raise ValueError(
            f"{N} signals would need a {N}x{N} Gram of {8 * N * N} bytes, the one N x N "
            f"array kdl holds; cap is max_gram_signals = {max_gram_signals} (raise it to "
            "override)")
    return _train(Y, Dictionary(atoms=Y, normalized=False), kernel, cfg, update=None,
                  callback=callback)


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
    -2 * penalty * (Y - D X) X^T, with X recoded by OMP every iteration. It is
    evaluated as -2 * penalty * (Y X^T - D X X^T) from the two products
    Y X^T and X X^T, formed once per iteration from the code X, so no
    gradient step builds the m x N residual Y - D X;
    with ``normalize_vectors`` the columns of D are re-normalized after the
    gradient steps. X stays internal: like every trainer, this returns
    (KernelDictionary, SparseCode, TrainTrace), the trace recording the
    nonlinear representation error only.
    """
    if cfg.dl_sparsity is None or not 1 <= cfg.dl_sparsity <= vectors.n_atoms:
        raise ValueError(f"morkdl_train needs cfg.dl_sparsity (linear code sparsity) in "
                         f"[1, {vectors.n_atoms}], got {cfg.dl_sparsity}")
    return _train(Y, vectors, kernel, cfg, update="mixed", callback=callback)
