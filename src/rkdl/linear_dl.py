"""Linear dictionary learning by alternating OMP and AK-SVD atom updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import inner_products
from .sparse_coding import SparseCode, omp_batch


@dataclass
class Dictionary:
    """Column dictionary of unit-norm atoms (when ``normalized`` is set)."""

    atoms: np.ndarray
    normalized: bool = True
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def validate(self, tol: float = 1e-10) -> None:
        if self.normalized:
            norms = np.linalg.norm(self.atoms, axis=0)
            if np.any(np.abs(norms - 1.0) > tol):
                raise ValueError("dictionary marked normalized but has non-unit columns")


@dataclass(frozen=True)
class DLConfig:
    n_atoms: int
    sparsity: int
    iters: int
    seed: int = 0

    def __post_init__(self):
        if self.n_atoms < 1 or self.sparsity < 1 or self.iters < 0:
            raise ValueError("n_atoms and sparsity must be positive, iters non-negative")
        if self.sparsity > self.n_atoms:
            raise ValueError("sparsity cannot exceed the number of atoms")


def init_dictionary(Y: np.ndarray, n_atoms: int, seed: int) -> Dictionary:
    """Seeded initialization from data columns.

    Samples ``n_atoms`` distinct columns of Y without replacement and
    normalizes them. Duplicate columns in Y may produce coinciding atoms;
    this is allowed and flagged in ``meta['duplicate_atoms']``.
    """
    Y = np.asarray(Y, dtype=float)
    m, N = Y.shape
    if N < n_atoms:
        raise ValueError(f"cannot draw {n_atoms} atoms from {N} signals")
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(Y, axis=0)
    candidates = np.flatnonzero(norms > 0)
    if candidates.size < n_atoms:
        raise ValueError("not enough nonzero signals to initialize the dictionary")
    chosen = rng.choice(candidates, size=n_atoms, replace=False)
    atoms = Y[:, chosen] / norms[chosen]
    dup = False
    for j in range(n_atoms):
        diff = atoms[:, j + 1:] - atoms[:, j:j + 1]
        if diff.size and np.min(np.einsum("ij,ij->j", diff, diff)) < 1e-24:
            dup = True
            break
    return Dictionary(atoms=atoms, normalized=True, meta={"duplicate_atoms": dup, "source_columns": chosen})


def _reseed_atom(Y, D, X, used: set) -> np.ndarray:
    """The worst-represented nonzero signal not already used as a replacement,
    normalized."""
    residual = Y - D @ X
    norms = np.einsum("ij,ij->j", residual, residual)
    norms[~np.any(Y, axis=0)] = -np.inf
    if used:
        norms[list(used)] = -np.inf
    worst = int(np.argmax(norms))
    used.add(worst)
    return Y[:, worst] / np.linalg.norm(Y[:, worst])


def _aksvd_sweep(Y: np.ndarray, D: np.ndarray, X: np.ndarray) -> tuple[int, int]:
    """One AK-SVD pass over the atoms in ascending order, in place on D and X.

    For atom j on its support S, with x = X[j, S] and the residual
    E = Y - D X, the approximate K-SVD update is d = F x / ||F x|| and
    x_new = F^T d with F = E_S + d_j x^T. Neither E nor F is formed; both
    products are expanded against the current D and X:

        u     = Y_S x - D (X_S x) + d_j (x.x)
        x_new = Y_S^T d - X_S^T (D^T d) + x (d_j.d)

    Y_S x is column j of Y X^T, formed once per sweep: row j of X changes
    only at atom j's own turn, so that column is exact when it is read. X_S x
    is a product with the whole code row, which is zero off S, and Y_S^T d is
    read off d^T Y. With s = 5 of 50 atoms that pass over all of Y measured
    faster than gathering the columns of Y_S (m = 784, N = 8000, 2 cores).

    An atom used by no signal, or whose u vanishes (degenerate), is re-seeded
    from the currently worst-represented nonzero signal; a degenerate atom's
    code row is then cleared.

    Returns the number of atoms re-seeded as (unused, degenerate).
    """
    replaced: set = set()
    unused = degenerate = 0
    YXt = inner_products(Y.T, X.T)
    for j in range(D.shape[1]):
        row = X[j]
        used_by = np.flatnonzero(row)
        if used_by.size == 0:
            unused += 1
            D[:, j] = _reseed_atom(Y, D, X, replaced)
            continue
        x = row[used_by]
        d_j = D[:, j]
        u = YXt[:, j] - D @ (X @ row) + d_j * (x @ x)
        norm = np.linalg.norm(u)
        if norm < 1e-14:
            degenerate += 1
            D[:, j] = _reseed_atom(Y, D, X, replaced)
            X[j, used_by] = 0.0
            continue
        d = u / norm
        X[j, used_by] = (d @ Y - (D.T @ d) @ X)[used_by] + x * (d_j @ d)
        D[:, j] = d
    return unused, degenerate


def aksvd_train(Y: np.ndarray, cfg: DLConfig, D_init: Dictionary | None = None,
                callback=None) -> tuple[Dictionary, SparseCode]:
    """Train a linear dictionary with alternating OMP / AK-SVD sweeps.

    Each iteration recodes all signals with OMP, then runs one approximate
    K-SVD sweep (``_aksvd_sweep``): atom j becomes the normalized residual
    product F x_j and its code row is refit as F^T d_j on its support, with
    F the residual over the signals using atom j plus atom j's own
    contribution. The sweep works in factored form from Y, D and X and never
    builds the m x N residual or F. Unused and degenerate atoms are re-seeded
    from the currently worst-represented signal; ``meta["replaced_atoms"]``
    counts them over all iterations as ``{"unused": u, "degenerate": g}``.

    Returns the trained dictionary and the sparse code of the last coding
    pass (updated in place by the atom sweeps).
    """
    Y = np.asarray(Y, dtype=float)
    m, N = Y.shape
    if N < cfg.n_atoms:
        raise ValueError(f"need at least {cfg.n_atoms} signals, got {N}")
    if not np.any(Y):
        raise ValueError("training signals are all zero")
    if cfg.sparsity > m:
        raise ValueError("sparsity cannot exceed the signal dimension")

    dictionary = D_init if D_init is not None else init_dictionary(Y, cfg.n_atoms, cfg.seed)
    D = dictionary.atoms.copy()
    norms_sq = np.einsum("ij,ij->j", Y, Y)
    X = omp_batch(D, Y, cfg.sparsity, norms_sq=norms_sq).matrix
    replaced = {"unused": 0, "degenerate": 0}

    for it in range(cfg.iters):
        if it > 0:
            X = omp_batch(D, Y, cfg.sparsity, norms_sq=norms_sq).matrix
        unused, degenerate = _aksvd_sweep(Y, D, X)
        replaced["unused"] += unused
        replaced["degenerate"] += degenerate
        if callback is not None:
            callback(it, D, X)

    meta = {**dictionary.meta, "replaced_atoms": replaced}
    code = SparseCode(matrix=X, sparsity=cfg.sparsity)
    return Dictionary(atoms=D, normalized=True, meta=meta), code
