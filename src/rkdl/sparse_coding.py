"""Greedy sparse approximation: batch OMP in signal space and batch Kernel OMP
on Grams.

Both run one vectorized greedy pursuit, ``_gram_omp_batch``, over all
columns at once; columns are independent, so the result for each column is
the single-signal OMP result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Residual-norm early exits. Linear OMP stops on the residual norm itself,
# kernel OMP on the feature-space squared norm (which is what the Gram
# quadratic form yields directly).
OMP_RESIDUAL_TOL = 1e-10
KOMP_RESIDUAL_SQ_TOL = 1e-10

RIDGE = 1e-10


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


def _gram_omp_batch(G, proj, norms_sq, sparsity, stop_sq, stats=None):
    """Vectorized greedy pursuit over all columns of ``proj`` at once.

    Per round: correlations for every still-active column come from one
    matrix product, then all support systems of the round are solved with one
    stacked ``np.linalg.solve``. Column results are identical to running the
    single-column loop independently. A singular support system is retried
    with a small ridge (counted in ``stats['ridge']``).
    """
    n, N = proj.shape
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}] (the atom count), got {sparsity}")
    codes = np.zeros((N, sparsity))
    supports = np.zeros((N, sparsity), dtype=int)
    counts = np.zeros(N, dtype=int)
    res_sq = norms_sq.astype(float).copy()
    active = res_sq >= stop_sq
    for t in range(sparsity):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        corr = proj[:, idx].copy()
        if t > 0:
            # subtract G[:, S] @ z for each active column
            for r in range(t):
                corr -= G[:, supports[idx, r]] * codes[idx, r]
            corr = np.abs(corr)
            corr[supports[idx, :t].T, np.arange(idx.size)] = -np.inf
        else:
            corr = np.abs(corr)
        picks = np.argmax(corr, axis=0)
        supports[idx, t] = picks
        counts[idx] = t + 1
        sub = G[supports[idx, : t + 1, None], supports[idx, None, : t + 1]]
        rhs = np.take_along_axis(proj[:, idx].T, supports[idx, : t + 1], axis=1)
        try:
            # rhs needs an explicit trailing matrix axis for the stacked solve
            sol = np.linalg.solve(sub, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sol = np.empty_like(rhs)
            for r, col in enumerate(idx):
                try:
                    sol[r] = np.linalg.solve(sub[r], rhs[r])
                except np.linalg.LinAlgError:
                    sol[r] = np.linalg.solve(sub[r] + RIDGE * np.eye(t + 1), rhs[r])
                    if stats is not None:
                        stats["ridge"] = stats.get("ridge", 0) + 1
        codes[idx, : t + 1] = sol
        quad = np.einsum("ni,nij,nj->n", sol, sub, sol)
        res_sq[idx] = norms_sq[idx] - 2.0 * np.einsum("ni,ni->n", sol, rhs) + quad
        active[idx] = res_sq[idx] >= stop_sq
        active &= counts < sparsity

    # a column's picks are distinct, so one scatter places every coefficient
    filled = np.arange(sparsity) < counts[:, None]
    matrix = np.zeros((n, N))
    matrix[supports[filled], np.nonzero(filled)[0]] = codes[filled]
    return SparseCode(matrix=matrix, sparsity=sparsity)


def omp_batch(D: np.ndarray, Y: np.ndarray, sparsity: int, require_normalized: bool = True,
              stats: dict | None = None) -> SparseCode:
    """OMP of every column of Y on the unit-norm atoms of D: up to ``sparsity``
    greedy picks by largest |d_j . r|, a least-squares refit after each, and
    an early stop once the residual norm drops below ``OMP_RESIDUAL_TOL``."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.shape[0] != Y.shape[0]:
        raise ValueError(f"dictionary rows {D.shape[0]} do not match signal rows {Y.shape[0]}")
    if require_normalized:
        _check_unit_columns(D)
    G = D.T @ D
    proj = D.T @ Y
    norms_sq = np.einsum("ij,ij->j", Y, Y)
    return _gram_omp_batch(G, proj, norms_sq, sparsity, OMP_RESIDUAL_TOL**2, stats)


def kernel_omp_batch(k_yd, k_yy_diag, k_dd, A, sparsity, stats: dict | None = None) -> SparseCode:
    """Kernel OMP of all signals from the cross Gram ``k_yd`` (N, n_d), with
    atoms A normalized so that a_j^T k_dd a_j = 1 (checked to 1e-8); the
    pursuit stops once the feature-space residual falls below
    ``KOMP_RESIDUAL_SQ_TOL``."""
    A = np.asarray(A, dtype=float)
    k_yd = np.asarray(k_yd, dtype=float)
    k_dd = np.asarray(k_dd, dtype=float)
    G = A.T @ (k_dd @ A)
    norms = np.diag(G)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"kernel atom {j} is not Gram-normalized (a^T K a = {norms[j]:.6g})")
    proj = (k_yd @ A).T
    return _gram_omp_batch(G, proj, np.asarray(k_yy_diag, dtype=float), sparsity,
                           KOMP_RESIDUAL_SQ_TOL, stats)
