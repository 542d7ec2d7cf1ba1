"""Reference implementations that only the tests use."""

import numpy as np


def aksvd_sweep_residual(Y, D, X):
    """AK-SVD sweep over an explicit residual E = Y - D X, in place on D and X.

    For atom j on its support S it forms F = E_S + d_j x^T, sets
    d = F x / ||F x|| and x_new = F^T d, and writes F - d x_new^T back into E.
    Unused and degenerate atoms are re-seeded from the worst-represented
    nonzero signal not yet used for a replacement. Returns the re-seed counts
    as (unused, degenerate).
    """
    E = Y - D @ X
    replaced: set = set()
    counts = [0, 0]

    def reseed(j, kind):
        residual = Y - D @ X
        norms = np.einsum("ij,ij->j", residual, residual)
        norms[np.linalg.norm(Y, axis=0) == 0] = -np.inf
        norms[list(replaced)] = -np.inf
        worst = int(np.argmax(norms))
        replaced.add(worst)
        D[:, j] = Y[:, worst] / np.linalg.norm(Y[:, worst])
        counts[kind] += 1

    for j in range(D.shape[1]):
        used_by = np.flatnonzero(X[j])
        if used_by.size == 0:
            reseed(j, 0)
            continue
        x = X[j, used_by]
        F = E[:, used_by] + np.outer(D[:, j], x)
        u = F @ x
        norm = np.linalg.norm(u)
        if norm < 1e-14:
            reseed(j, 1)
            X[j, used_by] = 0.0
            E[:, used_by] = F
            continue
        d = u / norm
        x_new = F.T @ d
        D[:, j] = d
        X[j, used_by] = x_new
        E[:, used_by] = F - np.outer(d, x_new)
    return tuple(counts)
