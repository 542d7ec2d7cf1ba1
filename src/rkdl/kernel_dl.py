"""Kernel dictionary learning: full-kernel baseline and the reduced trainers.

The four methods differ only in where the kernel vectors D come from and how
D is updated; ``METHODS`` maps each method to both and to its public trainer.
All trainers run one alternating loop, ``_train``, on Gram matrices only;
feature vectors are never formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import KernelSpec, dictionary_gradient, gram, inner_products, self_kernel_diag
from .linear_dl import Dictionary, atom_sweep
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


def _trace_error(kyy_sum: float, k_yd, k_dd, A, Z, m: int, N: int,
                 stats: dict | None = None) -> float:
    """Normalized representation error from Gram quantities.

    sqrt(max(0, Tr[K_YY] - 2 Tr[K_YD A Z] + Tr[Z^T A^T K_DD A Z])) / sqrt(mN);
    only the diagonal of K_YY enters through ``kyy_sum``. Each clamp of a
    negative squared residual is counted in ``stats["residual_clamp"]``.
    """
    P = k_yd @ A
    t2 = float(np.einsum("la,al->", P, Z))
    G = A.T @ (k_dd @ A)
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
    k_yd = gram(Y, D, kdict.kernel)
    k_dd = gram(D, D, kdict.kernel)
    kyy_sum = float(self_kernel_diag(Y, kdict.kernel).sum())
    m, N = Y.shape
    return _trace_error(kyy_sum, k_yd, k_dd, kdict.coefficients, Zm, m, N)


def rkdl_atom_sweep(k_dd: np.ndarray, k_yd: np.ndarray, A: np.ndarray, Z: np.ndarray,
                    chol=None, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``linear_dl.atom_sweep`` on the kernel vectors' Gram, with a Cholesky
    solve (``chol``, factored here when not given), on copies of A and Z.

    Unused and degenerate atoms are left untouched and counted in
    ``stats["unused_kernel_atom"]`` and ``stats["degenerate_kernel_atom"]``.

    Returns updated copies of (A, Z).
    """
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
    ``update`` is set, takes ``cfg.grad_steps`` gradient steps on D. Returns
    (KernelDictionary, SparseCode, linear code or None, TrainTrace); D keeps
    the input's ``normalized`` flag when fixed, and is marked normalized when
    updated only if the mixed update renormalizes its columns.
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

    t0 = time.perf_counter()
    y_sq = np.einsum("ij,ij->j", Y, Y)    # Y is fixed: its norms serve every Gram and code
    phases["gram_refresh"] += time.perf_counter() - t0

    def grams(D, when: str):
        """K_DD and K_YD at D, checked finite. K_YD is K_DD itself when D is
        Y, so ``kdl`` holds one N x N array, not two."""
        t0 = time.perf_counter()
        k_dd = gram(D, D, kernel)
        k_yd = k_dd if D is Y else gram(Y, D, kernel, x_sq=y_sq)
        phases["gram_refresh"] += time.perf_counter() - t0
        if not (np.all(np.isfinite(k_dd)) and (k_yd is k_dd or np.all(np.isfinite(k_yd)))):
            raise FloatingPointError(f"kernel matrices for {kernel} are not finite {when}")
        return k_dd, k_yd

    at_start = "at start-up; lower beta or alpha, or rescale the signals"
    k_dd, k_yd = grams(D, at_start)
    t0 = time.perf_counter()
    kyy = self_kernel_diag(Y, kernel)
    kyy_sum = float(kyy.sum())
    phases["gram_refresh"] += time.perf_counter() - t0
    if not np.isfinite(kyy_sum):
        raise FloatingPointError(f"signal self-kernels for {kernel} are not finite {at_start}")

    t0 = time.perf_counter()
    chol = _chol_with_ridge(k_dd, stats)
    phases["factor"] += time.perf_counter() - t0

    A = _init_coefficients(D.shape[1], cfg.n_atoms, np.diag(k_dd).copy(), rng)
    Z = np.zeros((cfg.n_atoms, N))
    X_code = None

    t0 = time.perf_counter()
    errors = [_trace_error(kyy_sum, k_yd, k_dd, A, Z, m, N, stats)]
    phases["error_eval"] += time.perf_counter() - t0

    for it in range(cfg.iters):
        t0 = time.perf_counter()
        Z = kernel_omp_batch(k_yd, kyy, k_dd, A, cfg.sparsity, stats).matrix
        if update == "mixed":
            X_code = omp_batch(D, Y, cfg.dl_sparsity, require_normalized=cfg.normalize_vectors,
                               stats=stats, norms_sq=y_sq)
        phases["coding"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        A, Z = rkdl_atom_sweep(k_dd, k_yd, A, Z, chol=chol, stats=stats)
        phases["atom_sweep"] += time.perf_counter() - t0

        if descend:
            t0 = time.perf_counter()
            if penalized:
                YXt, XXt = _linear_penalty_products(Y, X_code.matrix)
            phases["gradient"] += time.perf_counter() - t0
            for step in range(cfg.grad_steps):
                t0 = time.perf_counter()
                G = dictionary_gradient(Y, D, A, Z, kernel, k_yd=k_yd, k_dd=k_dd)
                if penalized:
                    G = G - 2.0 * cfg.penalty * (YXt - D @ XXt)
                if not np.all(np.isfinite(G)):
                    raise FloatingPointError(
                        f"non-finite kernel-vector gradient at iteration {it}; {smaller_step}")
                D = D - cfg.learning_rate * G
                phases["gradient"] += time.perf_counter() - t0
                # the renormalization below replaces the last step's Grams unread
                if step < cfg.grad_steps - 1 or not renormalize:
                    k_dd, k_yd = grams(D, f"after a gradient step at iteration {it}; "
                                          f"{smaller_step}")
            if renormalize:
                t0 = time.perf_counter()
                norms = np.linalg.norm(D, axis=0)
                if np.any(norms < 1e-14):
                    stats["zero_vector"] = stats.get("zero_vector", 0) + int(np.sum(norms < 1e-14))
                    norms = np.maximum(norms, 1e-14)
                D = D / norms
                phases["gradient"] += time.perf_counter() - t0
                k_dd, k_yd = grams(D, f"after renormalizing D at iteration {it}; {smaller_step}")
            t0 = time.perf_counter()
            chol = _chol_with_ridge(k_dd, stats)
            phases["factor"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            # re-normalize atoms under the refreshed Gram; scaling the code
            # rows inversely keeps phi(D) A Z (and the error) unchanged
            norm_sq = np.einsum("ij,ij->j", A, k_dd @ A)
            scale = np.sqrt(np.maximum(norm_sq, 1e-24))
            A = A / scale
            Z = Z * scale[:, None]
            phases["atom_sweep"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        errors.append(_trace_error(kyy_sum, k_yd, k_dd, A, Z, m, N, stats))
        phases["error_eval"] += time.perf_counter() - t0
        if callback is not None:
            callback(it, D, A, Z, k_dd)

    normalized = vectors.normalized if update is None else renormalize
    kdict = KernelDictionary(coefficients=A, vectors=Dictionary(atoms=D, normalized=normalized),
                             kernel=kernel)
    trace = TrainTrace(errors=errors, phase_seconds=phases, warnings=stats,
                       total_seconds=time.perf_counter() - t_start)
    return kdict, SparseCode(matrix=Z, sparsity=cfg.sparsity), X_code, trace


def kdl_train(Y: np.ndarray, kernel: KernelSpec, cfg: KdlConfig,
              max_gram_signals: int = 20000, callback=None):
    """Full kernel dictionary learning with D = Y.

    Refuses signal sets whose N x N Gram would exceed ``max_gram_signals``
    columns. Returns (KernelDictionary, SparseCode, TrainTrace).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape[1] > max_gram_signals:
        raise ValueError(
            f"{Y.shape[1]} signals would need a {Y.shape[1]}x{Y.shape[1]} Gram; "
            f"cap is {max_gram_signals} (raise max_gram_signals to override)")
    kdict, code, _, trace = _train(Y, Dictionary(atoms=Y, normalized=False), kernel, cfg,
                                   update=None, callback=callback)
    return kdict, code, trace


def rkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
               callback=None):
    """Reduced kernel dictionary learning over a fixed pre-trained D."""
    kdict, code, _, trace = _train(Y, vectors, kernel, cfg, update=None, callback=callback)
    return kdict, code, trace


def orkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
                callback=None):
    """Reduced kernel dictionary learning with gradient-refined kernel vectors.

    After every atom sweep, the kernel vectors take ``cfg.grad_steps``
    descent steps along the analytic kernel gradients. Within one step all
    columns use gradients evaluated at the step-start D (Jacobi style); Gram
    matrices are recomputed between steps.
    """
    kdict, code, _, trace = _train(Y, vectors, kernel, cfg, update="gradient",
                                   callback=callback)
    return kdict, code, trace


def morkdl_train(Y: np.ndarray, vectors: Dictionary, kernel: KernelSpec, cfg: KdlConfig,
                 callback=None):
    """Gradient-refined reduced KDL under a mixed objective.

    The kernel-vector gradient gains the linear-representation term
    -2 * penalty * (Y - D X) X^T, with X recoded by OMP every iteration. It is
    evaluated as -2 * penalty * (Y X^T - D X X^T) from the two products
    Y X^T and X X^T, formed once per iteration from the code X, so no
    gradient step builds the m x N residual Y - D X;
    with ``normalize_vectors`` the columns of D are re-normalized after the
    gradient steps. Returns (KernelDictionary, Z, X, TrainTrace); the trace
    records the nonlinear representation error only.
    """
    if cfg.dl_sparsity is None or not 1 <= cfg.dl_sparsity <= vectors.n_atoms:
        raise ValueError(f"morkdl_train needs cfg.dl_sparsity (linear code sparsity) in "
                         f"[1, {vectors.n_atoms}], got {cfg.dl_sparsity}")
    return _train(Y, vectors, kernel, cfg, update="mixed", callback=callback)
