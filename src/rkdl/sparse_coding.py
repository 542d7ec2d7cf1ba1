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
    For a signal with support S, factor L of G[S, S] and y = L^-1 proj[S], a
    pick k appends the row w = L^-1 G[S, k] with pivot sqrt(G[k, k] - w.w)
    to L and (proj[k] - w.y) / pivot to y. The squared residual is then
    norms_sq - y.y (an upper bound after a ridged pick), the code x solves
    L^T x = y by one back substitution, and the next correlations are
    proj - X G. Each step runs over all active signals at once, with the
    signal axis last in the factors.

    A squared pivot at or below ``PIVOT_TOL`` G[k, k] means atom k is
    numerically in the span of S. The pivot is then ridged to
    sqrt(G[k, k] + RIDGE), so the atom's coefficient stays at the size of its
    (vanishing) correlation with the residual instead of being divided by a
    vanishing pivot; each such pick is counted in ``stats[counter]``.
    Returns the (n, N) code.
    """
    N, n = proj.shape
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}] (the atom count), got {sparsity}")
    matrix = np.zeros((n, N))
    g_diag = np.diag(G)
    # State of the active signals only. A finished signal's code is written
    # out and its state dropped, so nothing is re-gathered while all run.
    cols = np.flatnonzero(norms_sq >= stop_sq)
    P = proj if cols.size == N else proj[cols]
    res_sq = norms_sq[cols]
    X = np.zeros((cols.size, n))                          # codes, one row per signal
    S = np.zeros((sparsity, cols.size), dtype=np.intp)    # supports in pick order
    L = np.zeros((sparsity, sparsity, cols.size))         # lower-triangular factors
    y = np.zeros((sparsity, cols.size))
    corr = np.empty_like(X)
    ridged = 0
    for t in range(sparsity):
        if cols.size == 0:
            break
        at = np.arange(cols.size)
        # in place: a fresh array per round costs more than the product
        if t:
            np.matmul(X, G, out=corr)
            np.subtract(P, corr, out=corr)
            np.abs(corr, out=corr)
        else:
            np.abs(P, out=corr)
        corr[at, S[:t]] = -np.inf
        k = np.argmax(corr, axis=1)
        S[t] = k
        w = L[t]
        g = G[S[:t], k]
        for i in range(t):
            w[i] = (g[i] - np.einsum("ij,ij->j", L[i, :i], w[:i])) / L[i, i]
        pivot_sq = g_diag[k] - np.einsum("ij,ij->j", w[:t], w[:t])
        weak = pivot_sq <= PIVOT_TOL * g_diag[k]
        if np.any(weak):
            pivot_sq[weak] = g_diag[k[weak]] + RIDGE
            ridged += int(np.count_nonzero(weak))
        w[t] = np.sqrt(pivot_sq)
        y[t] = (P[at, k] - np.einsum("ij,ij->j", w[:t], y[:t])) / w[t]
        res_sq -= y[t] ** 2
        x = np.empty((t + 1, cols.size))
        for i in range(t, -1, -1):
            x[i] = (y[i] - np.einsum("ij,ij->j", L[i + 1:t + 1, i], x[i + 1:])) / L[i, i]
        X[at, S[:t + 1]] = x
        done = (res_sq < stop_sq) | (t + 1 == sparsity)
        if np.all(done) and cols.size == N:   # one transpose instead of a scatter
            matrix = np.ascontiguousarray(X.T)
            break
        if np.any(done):
            matrix[:, cols[done]] = X[done].T
            keep = ~done
            cols, P, res_sq, X = cols[keep], P[keep], res_sq[keep], X[keep]
            S, L, y, corr = S[:, keep], L[..., keep], y[:, keep], corr[keep]
    if ridged and stats is not None:
        stats[counter] = stats.get(counter, 0) + ridged
    return SparseCode(matrix=matrix, sparsity=sparsity)


def omp_batch(D: np.ndarray, Y: np.ndarray, sparsity: int, require_normalized: bool = True,
              stats: dict | None = None) -> SparseCode:
    """OMP of every column of Y on the unit-norm atoms of D: up to ``sparsity``
    greedy picks by largest |d_j . r|, a least-squares refit after each, and
    an early stop once the residual norm drops below ``OMP_RESIDUAL_TOL``.
    Near-singular picks are counted in ``stats["linear_ridge"]``."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.shape[0] != Y.shape[0]:
        raise ValueError(f"dictionary rows {D.shape[0]} do not match signal rows {Y.shape[0]}")
    if require_normalized:
        _check_unit_columns(D)
    G = D.T @ D
    proj = (D.T @ Y).T
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
