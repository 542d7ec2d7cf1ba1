"""Greedy sparse approximation: batch OMP in signal space and batch Kernel OMP
on Grams.

Both run one Batch-OMP kernel, ``_gram_omp_batch``, over all columns at
once with a progressive Cholesky factor per column; columns are independent,
so the result for each column is the single-signal OMP result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import all_finite, inner_products

# Residual-norm early exits. Linear OMP stops on the residual norm itself,
# kernel OMP on the feature-space squared norm (which is what the Gram
# quadratic form yields directly).
OMP_RESIDUAL_TOL = 1e-10
KOMP_RESIDUAL_SQ_TOL = 1e-10

# Both coders also stop a signal y at a pick whose gain, the drop in its
# squared residual, is at most (OMP_GAIN_TOL ||y||)^2 through an unridged
# pivot: such a pick is chosen by round-off. The residual floors cannot see
# this, since norms_sq - y.y carries a cancellation error of a few 1e-15
# norms_sq, above OMP_RESIDUAL_TOL**2 at any usual signal scale.
OMP_GAIN_TOL = 1e-13

# Near-singular picks in the batch coder: a squared Cholesky pivot at or
# below PIVOT_TOL times the atom's squared norm is ridged with RIDGE.
RIDGE = 1e-10
PIVOT_TOL = 1e-10


@dataclass
class SparseCode:
    """Dense code ``matrix`` (n_atoms, N) with at most ``sparsity`` nonzeros per
    column; ``residual_sq``, when the coder's, each signal's squared residual.
    A code the library returns is signal-major: ``matrix.T`` is C-ordered."""

    matrix: np.ndarray
    sparsity: int
    residual_sq: np.ndarray | None = None

    def validate(self) -> None:
        nnz = np.count_nonzero(self.matrix, axis=0)
        if nnz.size and nnz.max() > self.sparsity:
            col = int(np.argmax(nnz))
            raise ValueError(f"code column {col} has {nnz[col]} nonzeros, "
                             f"above the sparsity bound {self.sparsity}")


def _check_unit_columns(D: np.ndarray, tol: float = 1e-8) -> None:
    norms = np.linalg.norm(D, axis=0)
    bad = ~(np.abs(norms - 1.0) <= tol)    # NaN fails it
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(f"dictionary column {j} is not unit-norm (norm={norms[j]:.6g})")


def _gram_omp_batch(G, proj, norms_sq, sparsity, stop_sq, stats, counter):
    """Batch OMP of every signal at once, with a progressive Cholesky factor
    of each signal's support Gram (Rubinstein, Zibulevsky and Elad,
    "Efficient Implementation of the K-SVD Algorithm using Batch OMP").

    ``G`` is the (n, n) atom Gram, ``proj`` the (N, n) atom/signal inner
    products, one row per signal, and ``norms_sq`` the signals' squared norms.
    A signal stops once its squared residual falls below ``stop_sq`` or at a
    pick whose gain is below ``OMP_GAIN_TOL`` (see there); that last pick
    gets a zero coefficient.

    For a signal with support S, factor L of G[S, S] and y = L^-1 proj[S], a
    pick k appends the row w = L^-1 G[S, k] with pivot sqrt(G[k, k] - w.w)
    to L and (proj[k] - w.y) / pivot to y. The squared residual is then
    norms_sq - y.y (an upper bound after a ridged pick), the code x solves
    L^T x = y by one back substitution, and the next correlations are
    proj - X G. Each step runs over all signals at once, with the signal axis
    last in the factors and the (N, n) arrays (``proj``, made C-ordered, codes
    and correlations) read at each pick's flat position. Every signal keeps
    its place in that state: once it stops, its later picks get y = 0 and
    gain 0, so the back substitution returns its code unchanged. A signal
    whose squared norm is below ``stop_sq`` never starts.

    A squared pivot at or below ``PIVOT_TOL`` G[k, k] means atom k is
    numerically in the span of S. The pivot is then ridged to
    sqrt(G[k, k] + RIDGE), so the atom's coefficient stays at the size of its
    (vanishing) correlation with the residual instead of being divided by a
    vanishing pivot; each such pick of a live signal is counted in
    ``stats[counter]``. Returns ``SparseCode(matrix=X.T)`` on the code state X
    itself, with every signal's norms_sq - y.y as ``residual_sq``: exact up to
    round-off, and after a ridged pick an upper bound, above the true one by
    x^T Delta x for the diagonal Delta >= 0 that the ridges add to L L^T.
    """
    N, n = proj.shape
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}] (the atom count), got {sparsity}")
    proj = np.ascontiguousarray(proj)
    g_diag = np.diag(G)
    live = norms_sq >= stop_sq
    res_sq = norms_sq.copy()
    idle_sq = OMP_GAIN_TOL**2 * res_sq
    X = np.zeros((N, n))                          # codes, one row per signal: the output
    S = np.zeros((sparsity, N), dtype=np.intp)    # supports in pick order
    pos = np.empty_like(S)                        # their flat positions in X, proj and corr
    L = np.zeros((sparsity, sparsity, N))         # lower-triangular factors
    y = np.zeros((sparsity, N))
    x = np.empty((sparsity, N))
    corr = np.empty((N, n))
    row = np.arange(N) * n
    ridged = 0
    for t in range(sparsity):
        # in place: a fresh array per round costs more than the product
        if t:
            np.matmul(X, G, out=corr)
            np.subtract(proj, corr, out=corr)
            np.abs(corr, out=corr)
        else:
            np.abs(proj, out=corr)
        corr.reshape(-1)[pos[:t]] = -np.inf
        k = np.argmax(corr, axis=1)
        S[t] = k
        np.add(row, k, out=pos[t])
        w = L[t]
        g = np.take(G, S[:t] * n + k)
        for i in range(t):
            w[i] = (g[i] - np.einsum("ij,ij->j", L[i, :i], w[:i])) / L[i, i]
        pivot_sq = g_diag[k] - np.einsum("ij,ij->j", w[:t], w[:t])
        weak = pivot_sq <= PIVOT_TOL * g_diag[k]
        pivot_sq[weak] = g_diag[k[weak]] + RIDGE
        ridged += int(np.count_nonzero(weak & live))
        w[t] = np.sqrt(pivot_sq)
        y[t] = (np.take(proj, pos[t]) - np.einsum("ij,ij->j", w[:t], y[:t])) / w[t]
        gain = y[t] ** 2
        idle = (gain <= idle_sq) & ~weak
        stopped = ~live | idle
        y[t, stopped] = gain[stopped] = 0.0
        res_sq -= gain
        for i in range(t, -1, -1):
            x[i] = (y[i] - np.einsum("ij,ij->j", L[i + 1:t + 1, i], x[i + 1:t + 1])) / L[i, i]
        X.reshape(-1)[pos[:t + 1]] = x[:t + 1]
        live = ~(stopped | (res_sq < stop_sq))
        if not live.any():
            break
    if ridged and stats is not None:
        stats[counter] = stats.get(counter, 0) + ridged
    return SparseCode(matrix=X.T, sparsity=sparsity, residual_sq=res_sq)


def omp_batch(D: np.ndarray, Y: np.ndarray, sparsity: int, stats: dict | None = None,
              norms_sq: np.ndarray | None = None, yd: np.ndarray | None = None) -> SparseCode:
    """OMP of every column of Y on the unit-norm atoms of D (checked to 1e-8, a
    ValueError otherwise): up to ``sparsity`` greedy picks by largest |d_j . r|,
    which ranks atoms only when they are unit, a least-squares refit after each, and
    an early stop once the residual norm drops below ``OMP_RESIDUAL_TOL``.
    ``norms_sq`` and ``yd`` may supply Y's squared norms and the products
    ``inner_products(Y, D)`` (read only). Near-singular picks are counted in
    ``stats["linear_ridge"]``."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.shape[0] != Y.shape[0]:
        raise ValueError(f"dictionary rows {D.shape[0]} do not match signal rows {Y.shape[0]}")
    _check_unit_columns(D)
    norms_sq = np.einsum("ij,ij->j", Y, Y) if norms_sq is None else norms_sq
    # the product is passed unnamed, so it is freed once the coder takes its C-ordered copy
    return _gram_omp_batch(D.T @ D, inner_products(Y, D) if yd is None else yd, norms_sq,
                           sparsity, OMP_RESIDUAL_TOL**2, stats, "linear_ridge")


def kernel_omp_batch(k_yd, k_yy_diag, k_dd, A, sparsity, stats: dict | None = None) -> SparseCode:
    """Kernel OMP of all signals from the cross Gram ``k_yd`` (N, n_d), with
    atoms A normalized so that a_j^T k_dd a_j = 1 (checked to 1e-8); the
    pursuit stops once the feature-space residual falls below
    ``KOMP_RESIDUAL_SQ_TOL``. Near-singular picks are counted in
    ``stats["ridge"]``. Raises FloatingPointError when ``k_yd`` A or
    ``k_yy_diag`` is not finite; NaN or inf in ``k_dd`` reaches the diagonal
    of A^T k_dd A and fails the normalization check."""
    A, k_yd, k_dd, k_yy_diag = (np.asarray(v, dtype=float) for v in (A, k_yd, k_dd, k_yy_diag))
    G = A.T @ (k_dd @ A)
    norms = np.diag(G)
    if not np.all(np.abs(norms - 1.0) <= 1e-8):    # NaN fails it
        j = int(np.argmax(np.abs(norms - 1.0)))    # the worst, or the first NaN
        raise ValueError(f"kernel atom {j} is not Gram-normalized (a^T K a = {norms[j]:.6g})")
    proj = k_yd @ A
    if not (all_finite(proj) and all_finite(k_yy_diag)):
        raise FloatingPointError("kernel OMP inputs are not finite: k_yd A or k_yy_diag")
    return _gram_omp_batch(G, proj, k_yy_diag, sparsity, KOMP_RESIDUAL_SQ_TOL, stats, "ridge")
