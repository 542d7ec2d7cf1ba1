"""Linear dictionary learning by alternating OMP and AK-SVD atom updates."""

from __future__ import annotations

import time
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


def _reseed_atom(Y, D, XT, norms_sq, used: set) -> np.ndarray:
    """The worst-represented nonzero signal not already used as a replacement,
    normalized.

    Signals are ranked by the squared residual ||y||^2 - 2 x^T (D^T y) +
    x^T (D^T D) x, read off D, the signal-major code XT (one row per signal)
    and the squared norms, so no m x N residual is formed."""
    norms = (norms_sq - 2.0 * np.einsum("ij,ij->i", XT, inner_products(Y, D))
             + np.einsum("ij,ij->i", XT @ (D.T @ D), XT))
    norms[norms_sq == 0] = -np.inf
    if used:
        norms[list(used)] = -np.inf
    worst = int(np.argmax(norms))
    used.add(worst)
    return Y[:, worst] / np.linalg.norm(Y[:, worst])


# Size of one block of gathered signal rows in the sweep's code-row refit. A
# block this small stays in cache between its gather and its product: at
# m = 784, N = 8000 (2 cores, 2 MiB L2) the refit's gathers took about 25 ms
# per sweep in 512 KiB blocks against about 45 ms in one gather per atom.
GATHER_BYTES = 1 << 19


def _gathered_dot(YT: np.ndarray, rows: np.ndarray, d: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``YT[rows] @ d``, gathering the rows block by block into ``block``."""
    out = np.empty(rows.size)
    step = block.shape[0]
    for a in range(0, rows.size, step):
        part = block[:min(step, rows.size - a)]
        np.take(YT, rows[a:a + step], axis=0, out=part, mode="clip")
        np.matmul(part, d, out=out[a:a + part.shape[0]])
    return out


def _aksvd_sweep(Y: np.ndarray, D: np.ndarray, X: np.ndarray,
                 norms_sq: np.ndarray | None = None) -> tuple[int, int]:
    """One AK-SVD pass over the atoms in ascending order, in place on D and X.

    For atom j on its support S, with x = X[j, S] and the residual
    E = Y - D X, the approximate K-SVD update is d = F x / ||F x|| and
    x_new = F^T d with F = E_S + d_j x^T. Neither E nor F is formed; both
    products are expanded against the current D and X:

        u     = Y_S x - D (X_S x) + d_j (x.x)
        x_new = Y_S^T d - X_S^T (D^T d) + x (d_j.d)

    Y_S x is column j of Y X^T, formed once per sweep: row j of X changes
    only at atom j's own turn, so that column is exact when it is read. For
    the same reason every atom's support is found once per sweep. The sweep
    reads Y signal-major: Y_S^T d is a product with the |S| rows ``Y.T[S]``,
    gathered block by block (``_gathered_dot``), instead of a pass over all
    of Y. Those rows are contiguous when Y is F-ordered, as ``aksvd_train``
    passes it; a C-ordered Y gives the same numbers to round-off, slower.
    X_S is gathered from a signal-major copy of X made once per sweep and
    kept in step with X.

    An atom used by no signal, or whose u vanishes (degenerate), is re-seeded
    from the currently worst-represented nonzero signal; a degenerate atom's
    code row is then cleared. The residuals are ranked in factored form from
    ``norms_sq``, the signals' squared norms (formed here when not given).

    Returns the number of atoms re-seeded as (unused, degenerate).
    """
    if norms_sq is None:
        norms_sq = np.einsum("ij,ij->j", Y, Y)
    replaced: set = set()
    unused = degenerate = 0
    YXt = inner_products(Y.T, X.T)
    XT = X.T.copy()
    atoms, signals = np.nonzero(X)
    bounds = np.searchsorted(atoms, np.arange(D.shape[1] + 1))
    m = Y.shape[0]
    block = np.empty((max(1, min(np.diff(bounds).max(), GATHER_BYTES // (8 * m))), m))
    YT = Y.T
    for j in range(D.shape[1]):
        used_by = signals[bounds[j]:bounds[j + 1]]
        if used_by.size == 0:
            unused += 1
            D[:, j] = _reseed_atom(Y, D, XT, norms_sq, replaced)
            continue
        x = X[j, used_by]
        X_S = XT[used_by]
        d_j = D[:, j]
        u = YXt[:, j] - D @ (x @ X_S) + d_j * (x @ x)
        norm = np.linalg.norm(u)
        if norm < 1e-14:
            degenerate += 1
            D[:, j] = _reseed_atom(Y, D, XT, norms_sq, replaced)
            X[j, used_by] = XT[used_by, j] = 0.0
            continue
        d = u / norm
        x_new = _gathered_dot(YT, used_by, d, block) - X_S @ (D.T @ d) + x * (d_j @ d)
        X[j, used_by] = XT[used_by, j] = x_new
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

    Y is taken F-ordered once per run (a copy unless it already is), so the
    sweep gathers each atom's signals as contiguous rows of Y^T; the squared
    signal norms are formed once and serve every OMP call and every re-seed.
    ``meta["phase_seconds"]`` holds the seconds spent in OMP (``coding``) and
    in the sweeps, re-seeds included (``sweep``).

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
    Y = np.asfortranarray(Y)
    t0 = time.perf_counter()
    X = omp_batch(D, Y, cfg.sparsity, norms_sq=norms_sq).matrix
    phases = {"coding": time.perf_counter() - t0, "sweep": 0.0}
    replaced = {"unused": 0, "degenerate": 0}

    for it in range(cfg.iters):
        t0 = time.perf_counter()
        if it > 0:
            X = omp_batch(D, Y, cfg.sparsity, norms_sq=norms_sq).matrix
        t1 = time.perf_counter()
        unused, degenerate = _aksvd_sweep(Y, D, X, norms_sq)
        phases["coding"] += t1 - t0
        phases["sweep"] += time.perf_counter() - t1
        replaced["unused"] += unused
        replaced["degenerate"] += degenerate
        if callback is not None:
            callback(it, D, X)

    meta = {**dictionary.meta, "replaced_atoms": replaced, "phase_seconds": phases}
    code = SparseCode(matrix=X, sparsity=cfg.sparsity)
    return Dictionary(atoms=D, normalized=True, meta=meta), code
