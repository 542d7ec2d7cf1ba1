"""Greedy sparse approximation: batch OMP in signal space and batch Kernel OMP
on Grams.

Both run one Batch-OMP kernel, ``_gram_omp_batch``, over all columns at
once with a progressive Cholesky factor per column; columns are independent,
so the result for each column is the single-signal OMP result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Dense code ``matrix`` with at most ``sparsity`` nonzeros per column."""

    matrix: np.ndarray
    sparsity: int

    def validate(self) -> None:
        nnz = np.count_nonzero(self.matrix, axis=0)
        if nnz.size and nnz.max() > self.sparsity:
            col = int(np.argmax(nnz))
            raise ValueError(f"code column {col} has {nnz[col]} nonzeros, "
                             f"above the sparsity bound {self.sparsity}")


def _check_unit_columns(D: np.ndarray, tol: float = 1e-8) -> None:
    norms = np.linalg.norm(D, axis=0)
    bad = np.abs(norms - 1.0) > tol
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
    last in the factors. Every signal keeps its place in that state: once it
    stops, its later picks get y = 0 and gain 0, so the back substitution
    returns its code unchanged. A signal whose squared norm is below
    ``stop_sq`` never starts.

    A squared pivot at or below ``PIVOT_TOL`` G[k, k] means atom k is
    numerically in the span of S. The pivot is then ridged to
    sqrt(G[k, k] + RIDGE), so the atom's coefficient stays at the size of its
    (vanishing) correlation with the residual instead of being divided by a
    vanishing pivot; each such pick of a live signal is counted in
    ``stats[counter]``. Returns the (n, N) code.
    """
    N, n = proj.shape
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}] (the atom count), got {sparsity}")
    # The output comes before the state: allocated at return instead, it raised
    # code-stream's peak RSS 11 MB in 6 of 10 benchmark runs (1 of 10 this way).
    matrix = np.empty((n, N))
    g_diag = np.diag(G)
    live = norms_sq >= stop_sq
    res_sq = norms_sq.copy()
    idle_sq = OMP_GAIN_TOL**2 * res_sq
    X = np.zeros((N, n))                          # codes, one row per signal
    S = np.zeros((sparsity, N), dtype=np.intp)    # supports in pick order
    L = np.zeros((sparsity, sparsity, N))         # lower-triangular factors
    y = np.zeros((sparsity, N))
    corr = np.empty_like(X)
    at = np.arange(N)
    ridged = 0
    for t in range(sparsity):
        # in place: a fresh array per round costs more than the product
        if t:
            np.matmul(X, G, out=corr)
            np.subtract(proj, corr, out=corr)
            np.abs(corr, out=corr)
        else:
            np.abs(proj, out=corr)
        corr[at, S[:t]] = -np.inf
        k = np.argmax(corr, axis=1)
        S[t] = k
        w = L[t]
        g = G[S[:t], k]
        for i in range(t):
            w[i] = (g[i] - np.einsum("ij,ij->j", L[i, :i], w[:i])) / L[i, i]
        pivot_sq = g_diag[k] - np.einsum("ij,ij->j", w[:t], w[:t])
        weak = pivot_sq <= PIVOT_TOL * g_diag[k]
        pivot_sq[weak] = g_diag[k[weak]] + RIDGE
        ridged += int(np.count_nonzero(weak & live))
        w[t] = np.sqrt(pivot_sq)
        y[t] = (proj[at, k] - np.einsum("ij,ij->j", w[:t], y[:t])) / w[t]
        gain = y[t] ** 2
        idle = (gain <= idle_sq) & ~weak
        stopped = ~live | idle
        y[t, stopped] = gain[stopped] = 0.0
        res_sq -= gain
        x = np.empty((t + 1, N))
        for i in range(t, -1, -1):
            x[i] = (y[i] - np.einsum("ij,ij->j", L[i + 1:t + 1, i], x[i + 1:])) / L[i, i]
        X[at, S[:t + 1]] = x
        live = ~(stopped | (res_sq < stop_sq))
        if not live.any():
            break
    if ridged and stats is not None:
        stats[counter] = stats.get(counter, 0) + ridged
    np.copyto(matrix, X.T)
    return SparseCode(matrix=matrix, sparsity=sparsity)


def omp_batch(D: np.ndarray, Y: np.ndarray, sparsity: int, require_normalized: bool = True,
              stats: dict | None = None, norms_sq: np.ndarray | None = None) -> SparseCode:
    """OMP of every column of Y on the unit-norm atoms of D: up to ``sparsity``
    greedy picks by largest |d_j . r|, a least-squares refit after each, and
    an early stop once the residual norm drops below ``OMP_RESIDUAL_TOL``.
    ``norms_sq`` may supply the signals' squared norms, for callers that code
    the same Y repeatedly. Near-singular picks are counted in
    ``stats["linear_ridge"]``."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.shape[0] != Y.shape[0]:
        raise ValueError(f"dictionary rows {D.shape[0]} do not match signal rows {Y.shape[0]}")
    if require_normalized:
        _check_unit_columns(D)
    G = D.T @ D
    proj = (D.T @ Y).T
    if norms_sq is None:
        norms_sq = np.einsum("ij,ij->j", Y, Y)
    return _gram_omp_batch(G, proj, norms_sq, sparsity, OMP_RESIDUAL_TOL**2, stats,
                           "linear_ridge")


def kernel_omp_batch(k_yd, k_yy_diag, k_dd, A, sparsity, stats: dict | None = None) -> SparseCode:
    """Kernel OMP of all signals from the cross Gram ``k_yd`` (N, n_d), with
    atoms A normalized so that a_j^T k_dd a_j = 1 (checked to 1e-8); the
    pursuit stops once the feature-space residual falls below
    ``KOMP_RESIDUAL_SQ_TOL``. Near-singular picks are counted in
    ``stats["ridge"]``."""
    A = np.asarray(A, dtype=float)
    k_yd = np.asarray(k_yd, dtype=float)
    k_dd = np.asarray(k_dd, dtype=float)
    G = A.T @ (k_dd @ A)
    norms = np.diag(G)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"kernel atom {j} is not Gram-normalized (a^T K a = {norms[j]:.6g})")
    proj = k_yd @ A
    return _gram_omp_batch(G, proj, np.asarray(k_yy_diag, dtype=float), sparsity,
                           KOMP_RESIDUAL_SQ_TOL, stats, "ridge")
