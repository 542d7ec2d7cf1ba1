"""Reference implementations that only the tests use.

The per-signal pursuits and kernel functions here are the contracts that the
library's batch kernels (``omp_batch``, ``kernel_omp_batch``, ``gram``,
``dictionary_gradient``) are checked against. The two explicit atom sweeps,
over a residual E = Y - D X and over a running sum S = A Z, are the
references for the one factored sweep, ``linear_dl.atom_sweep``, on the
identity Gram (``_aksvd_sweep``, and ``rkdl_atom_sweep`` in a kernel map) and
on a kernel Gram (``rkdl_atom_sweep`` on ``kdl``'s ``FactoredGram``); the
running-sum sweep solves with its own scipy factor (``ridged_factor``). ``trace_error_from_grams``
is the representation error formed from the Grams themselves, the reference
for the trainers' error trace. ``kdl_train_two_arrays`` is ``kdl`` on K plus a
factored copy of it, the reference for ``kdl_train``, which holds one N x N
array. ``swept`` runs the library's in-place kernel sweep on copies, for tests
that compare a sweep's output with its input. ``synth_reference`` is the planted-model
generator in one piece, the reference for ``datasets.synth``, which builds
the same signals signal-major in blocks. ``poly_features`` is the polynomial
kernel's explicit feature map, on which the kernel trainers' errors and kernel
OMP are checked against plain linear algebra.
"""

import numpy as np
import scipy.linalg

from rkdl.kernel_dl import (CODE_RISE_RTOL, KDD_RIDGE, FactoredGram, _atom_products,
                            _init_coefficients, _residuals, kernel_map, rkdl_atom_sweep)
from rkdl.kernels import POLYNOMIAL, RBF, KernelSpec, _check_shapes, gram, self_kernel_diag
from rkdl.linear_dl import atom_sweep, residual_error
from rkdl.sparse_coding import (KOMP_RESIDUAL_SQ_TOL, OMP_RESIDUAL_TOL, RIDGE, _check_unit_columns,
                                kernel_omp_batch)


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


def ridged_factor(K, stats):
    """scipy's ``(factor, lower)`` of K + r I for a copy of K, at the first ridge
    r of ``kdl``'s schedule (0, then ``KDD_RIDGE`` growing 100-fold up to 1e-2),
    each retry counted in ``stats["kdd_ridge"]``: the reference for
    ``FactoredGram``'s factor, formed on K + r I itself."""
    ridge = 0.0
    while ridge <= 1e-2:
        try:
            return scipy.linalg.cho_factor(K + ridge * np.eye(len(K)), lower=True)
        except scipy.linalg.LinAlgError:
            ridge = max(100.0 * ridge, KDD_RIDGE)
            stats["kdd_ridge"] = stats.get("kdd_ridge", 0) + 1
    raise np.linalg.LinAlgError("kernel Gram is not positive definite even after ridging")


def rkdl_atom_sweep_running_sum(k_dd, k_yd, A, Z, stats=None):
    """Reference kernel atom sweep over an explicit running sum S = A Z.

    For each atom j (ascending), restricted to the signals whose code uses it:
    the unconstrained optimum of the representation objective in a_j is
    K_DD^{-1} K_DY z_j - R z_j (R being the reconstruction without atom j),
    solved with ``ridged_factor``; the atom is then Gram-normalized and its
    code row refit as (K_YD - R^T K_DD) a_j on the same support. The running
    sum S = A Z is maintained incrementally. Atoms used by no signal are left
    untouched.

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
    chol = ridged_factor(k_dd, stats)

    S = A @ Z
    for j in range(n_a):
        support = np.flatnonzero(Z[j])
        if support.size == 0:
            stats["unused_kernel_atom"] = stats.get("unused_kernel_atom", 0) + 1
            continue
        z = Z[j, support]
        R = S[:, support] - np.outer(A[:, j], z)
        k_sd = k_yd[support]
        u = scipy.linalg.cho_solve(chol, k_sd.T @ z, check_finite=False) - R @ z
        norm_sq = float(u @ (k_dd @ u))
        if norm_sq <= 1e-24:
            stats["degenerate_kernel_atom"] = stats.get("degenerate_kernel_atom", 0) + 1
            continue
        a = u / np.sqrt(norm_sq)
        z_new = k_sd @ a - R.T @ (k_dd @ a)
        del k_sd   # not held into the next atom's gathers, which would raise the peak
        A[:, j] = a
        Z[j, support] = z_new
        S[:, support] = R + np.outer(a, z_new)
    return A, Z


def swept(k_dd, k_yd, A, Z, stats=None):
    """The library's sweep on copies of A and of Z (signal-major, as a coder's
    code); returns the swept copies (A, Z) and leaves the inputs untouched.

    ``kdl``'s shape (``k_yd is k_dd``) sweeps on a ``FactoredGram`` of a copy of
    K. Otherwise the coefficients go through the library's ``kernel_map`` to
    the coordinates B, which ``rkdl_atom_sweep`` sweeps on the identity Gram
    over the signals' rows K_YD T, and back as T B, for the atoms the sweep
    changed: an atom it leaves untouched keeps its coefficients bit for bit,
    as in place."""
    stats = {} if stats is None else stats
    A, Z = np.array(A, dtype=float), np.array(Z, dtype=float, order="F")
    if k_yd is k_dd:
        K = FactoredGram(np.array(k_dd, dtype=float, order="C"), stats)
        rkdl_atom_sweep(K, K, A, Z, stats=stats)
        return A, Z
    T, B = kernel_map(np.asarray(k_dd, dtype=float), A, stats)
    B0 = B.copy()
    rkdl_atom_sweep(None, np.asarray(k_yd, dtype=float) @ T, B, Z, stats=stats)
    changed = np.any(B != B0, axis=0)
    A[:, changed] = (T @ B)[:, changed]
    return A, Z


def trace_error_from_grams(kyy_sum, k_yd, k_dd, A, Z, m, N, stats=None):
    """Normalized representation error with the atom products formed from
    the Grams on the spot:
    sqrt(max(0, Tr[K_YY] - 2 Tr[K_YD A Z] + Tr[Z^T A^T K_DD A Z])) / sqrt(mN).
    The reference for the trainers' trace, which reads one pair of products
    per iteration. Clamps are counted in ``stats["residual_clamp"]``."""
    P = k_yd @ A
    t2 = float(np.einsum("la,al->", P, Z))
    G = A.T @ (k_dd @ A)
    t3 = float(np.einsum("al,al->", Z, G @ Z))
    res_sq = kyy_sum - 2.0 * t2 + t3
    if res_sq < 0.0 and stats is not None:
        stats["residual_clamp"] = stats.get("residual_clamp", 0) + 1
    return float(np.sqrt(max(0.0, res_sq)) / np.sqrt(m * N))


def _rise_limit_on_k(K, kyy, W):
    """Each signal's squared residual k(y, y) - 2 (K W)_nn + w_n^T K w_n for the
    N x N coefficients W = A Z, plus ``CODE_RISE_RTOL`` times the sum of the
    terms' magnitudes."""
    KW = K @ W
    kw, wkw = np.diag(KW), np.einsum("in,in->n", W, KW)
    return kyy - 2.0 * kw + wkw + CODE_RISE_RTOL * (np.abs(kyy) + 2.0 * np.abs(kw) + np.abs(wkw))


def kdl_train_two_arrays(Y, kernel, cfg):
    """``kdl_train`` on K itself plus a factored copy of K + r I
    (``ridged_factor``): every product with K reads the full square. The
    reference for ``FactoredGram``, which holds K only as its factor.

    Returns (A, Z, errors, warning counters). ``code_rise`` is counted from the
    codes' residuals formed on K itself.
    """
    Y = np.asarray(Y, dtype=float)
    m, N = Y.shape
    stats: dict = {}
    K = gram(Y, Y, kernel)
    kyy = self_kernel_diag(Y, kernel)
    chol = ridged_factor(K, stats)
    A = _init_coefficients(N, cfg.n_atoms, np.diag(K).copy(), np.random.default_rng(cfg.seed))
    Z = np.zeros((cfg.n_atoms, N))
    P, G = _atom_products(K, K, A)
    errors = [residual_error(_residuals(kyy, P, G, Z)[0].sum(), m * N, stats)]
    for _ in range(cfg.iters):
        limit = _rise_limit_on_k(K, kyy, A @ Z)
        code = kernel_omp_batch(P, kyy, G, np.eye(cfg.n_atoms), cfg.sparsity, stats)
        rise = int(np.count_nonzero(code.residual_sq > limit))
        if rise:
            stats["code_rise"] = stats.get("code_rise", 0) + rise
        Z = code.matrix
        counts = atom_sweep(K, A, Z, solve=lambda v: scipy.linalg.cho_solve(chol, v))
        for key, count in zip(("unused_kernel_atom", "degenerate_kernel_atom"), counts):
            if count:
                stats[key] = stats.get(key, 0) + count
        P, G = _atom_products(K, K, A)
        errors.append(residual_error(_residuals(kyy, P, G, Z)[0].sum(), m * N, stats))
    return A, Z, errors, stats


def omp(D: np.ndarray, y: np.ndarray, sparsity: int):
    """Orthogonal matching pursuit for a single signal.

    Greedy selection of at most ``sparsity`` atoms by largest |d_j . r| on the
    current residual, with a least-squares refit over the selected support
    after every pick. Stops early once the residual norm drops below
    ``OMP_RESIDUAL_TOL``. A singular support system drops the offending atom
    and stops.

    Returns (support, coefficients) with the support sorted ascending.
    """
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    m, n = D.shape
    if y.shape[0] != m:
        raise ValueError(f"signal length {y.shape[0]} does not match dictionary rows {m}")
    if not 1 <= sparsity <= min(m, n):
        raise ValueError(f"sparsity must be in [1, {min(m, n)}], got {sparsity}")
    _check_unit_columns(D)

    support: list[int] = []
    coeffs = np.zeros(0)
    residual = y.copy()
    for _ in range(sparsity):
        if np.linalg.norm(residual) < OMP_RESIDUAL_TOL:
            break
        corr = np.abs(D.T @ residual)
        corr[support] = -np.inf
        pick = int(np.argmax(corr))
        support.append(pick)
        sub = D[:, support]
        sol, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(support):
            support.pop()
            break
        coeffs = sol
        residual = y - sub @ coeffs
    order = np.argsort(support)
    return np.asarray(support, dtype=int)[order], coeffs[order] if coeffs.size else coeffs


def _greedy_gram_select(proj, G, norm_sq, sparsity, stop_sq, stats=None):
    """Shared greedy loop on precomputed Gram quantities (single column).

    ``proj`` holds the atom/signal inner products, ``G`` the atom Gram, and
    ``norm_sq`` the signal's squared norm. The support least-squares is the
    normal-equation solve on the support Gram; a singular system is retried
    with a small ridge (counted in ``stats['ridge']``).
    """
    n = proj.shape[0]
    support: list[int] = []
    coeffs = np.zeros(0)
    res_sq = norm_sq
    for _ in range(sparsity):
        if res_sq < stop_sq:
            break
        corr = proj - (G[:, support] @ coeffs if support else 0.0)
        corr = np.abs(corr)
        corr[support] = -np.inf
        pick = int(np.argmax(corr))
        support.append(pick)
        sub = G[np.ix_(support, support)]
        rhs = proj[support]
        try:
            coeffs = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            coeffs = np.linalg.solve(sub + RIDGE * np.eye(len(support)), rhs)
            if stats is not None:
                stats["ridge"] = stats.get("ridge", 0) + 1
        res_sq = norm_sq - 2.0 * (coeffs @ rhs) + coeffs @ (sub @ coeffs)
    order = np.argsort(support)
    return np.asarray(support, dtype=int)[order], coeffs[order] if coeffs.size else coeffs


def kernel_omp(k_yd_row, k_yy, k_dd, A, sparsity, stats=None):
    """Kernel OMP for a single signal, entirely on Gram quantities.

    Parameters
    ----------
    k_yd_row : (n_d,) kernel values between the signal and the kernel vectors.
    k_yy : float, the signal's self-kernel.
    k_dd : (n_d, n_d) kernel-vector Gram.
    A : (n_d, n_a) coefficient dictionary, columns normalized so that
        a_j^T k_dd a_j = 1 (checked to 1e-8).
    sparsity : max number of selected kernel atoms.

    Greedy selection maximizes |A^T (k_yd_row - k_dd A z)| over unselected
    atoms; the support coefficients solve the support's normal equations.
    Stops when the feature-space residual squared norm falls below
    ``KOMP_RESIDUAL_SQ_TOL``. Returns (support, coefficients).
    """
    A = np.asarray(A, dtype=float)
    k_yd_row = np.asarray(k_yd_row, dtype=float).ravel()
    k_dd = np.asarray(k_dd, dtype=float)
    n_d, n_a = A.shape
    if k_yd_row.shape[0] != n_d or k_dd.shape != (n_d, n_d):
        raise ValueError("Gram shapes do not match the coefficient dictionary")
    if not 1 <= sparsity <= n_a:
        raise ValueError(f"sparsity must be in [1, {n_a}], got {sparsity}")
    G = A.T @ (k_dd @ A)
    norms = np.diag(G)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"kernel atom {j} is not Gram-normalized (a^T K a = {norms[j]:.6g})")
    proj = A.T @ k_yd_row
    return _greedy_gram_select(proj, G, float(k_yy), sparsity, KOMP_RESIDUAL_SQ_TOL, stats)


def poly_features(X: np.ndarray, alpha: float, beta: int) -> np.ndarray:
    """The explicit feature map of the polynomial kernel (x.y + alpha)^beta for
    beta <= 3 and m <= 5: column n is the beta-fold tensor power of
    [sqrt(alpha), x_n], so Phi^T Phi is the Gram. Shape ((m + 1)^beta, N)."""
    X = np.asarray(X, dtype=float)
    m, N = X.shape
    if not (1 <= beta <= 3 and m <= 5):
        raise ValueError(f"poly_features covers beta <= 3 and m <= 5, got beta {beta}, m {m}")
    v = np.vstack([np.full((1, N), np.sqrt(alpha)), X])
    phi = v
    for _ in range(beta - 1):
        phi = (phi[:, None, :] * v[None, :, :]).reshape(-1, N)
    return phi


def ksvd_sweep(phi: np.ndarray, atoms: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One approximate K-SVD pass over the columns of ``atoms`` in ascending
    order, on the signals ``phi`` and their code Z (copies of both updated).
    Atom j's signals S give the residual without it, E = phi_S - atoms Z_S +
    atom_j Z[j, S]; the atom becomes E Z[j, S] normalized and its code row E^T
    atom. An atom with no signal or with E Z[j, S] of squared norm at most
    1e-24 is left as it is."""
    atoms, Z = atoms.copy(), Z.copy()
    for j in range(Z.shape[0]):
        S = np.flatnonzero(Z[j])
        if S.size == 0:
            continue
        z = Z[j, S]
        E = phi[:, S] - atoms @ Z[:, S] + np.outer(atoms[:, j], z)
        d = E @ z
        if d @ d <= 1e-24:
            continue
        atoms[:, j] = d / np.linalg.norm(d)
        Z[j, S] = E.T @ atoms[:, j]
    return atoms, Z


def kernel_eval(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate k(x, y) for two single signals."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"signal lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if spec.family == RBF:
        d = x - y
        return float(np.exp(-(d @ d) / spec.rbf_scale))
    if spec.family == POLYNOMIAL:
        return float((x @ y + spec.alpha) ** spec.beta)
    return float(x @ y)


def kernel_grad_first(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gradient of k(x, y) with respect to the first argument x."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"signal lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if spec.family == RBF:
        d = x - y
        k = np.exp(-(d @ d) / spec.rbf_scale)
        return -k * 2.0 * d / spec.rbf_scale
    if spec.family == POLYNOMIAL:
        return spec.beta * (x @ y + spec.alpha) ** (spec.beta - 1) * y
    return y.copy()


def kernel_vector_gradient(
    Y: np.ndarray,
    D: np.ndarray,
    A: np.ndarray,
    Z: np.ndarray,
    j: int,
    spec: KernelSpec,
    k_yd: np.ndarray | None = None,
    k_dd: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ||phi(Y) - phi(D) A Z||_F^2 with respect to column j of D.

    The derivative Gram matrices are never materialized: with W = A Z and
    M = W W^T the gradient contracts the analytic per-pair kernel gradients
    against row j of M (vector-vector pairs within D) and row j of W (pairs
    against the signals), which costs O(m (N + n_d)) per column once W is
    available.

    ``k_yd`` / ``k_dd`` optionally supply precomputed Gram matrices for the
    current D (they must be fresh; stale matrices give wrong gradients).
    """
    Y = np.asarray(Y, dtype=float)
    D = np.asarray(D, dtype=float)
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    _check_shapes(Y, D, A, Z)
    n_d = D.shape[1]
    if not 0 <= j < n_d:
        raise IndexError(f"vector index {j} out of range [0, {n_d})")

    W = A @ Z
    w = W[j]            # per-signal weight of vector j in the reconstruction
    m_row = W @ w       # row j of M = W W^T
    d = D[:, j]

    if spec.family == RBF:
        scale = spec.rbf_scale
        kd = k_dd[j] if k_dd is not None else np.exp(-((D - d[:, None]) ** 2).sum(axis=0) / scale)
        ky = k_yd[:, j] if k_yd is not None else np.exp(-((Y - d[:, None]) ** 2).sum(axis=0) / scale)
        c = m_row * kd
        e = w * ky
        term_dd = (-4.0 / scale) * (d * c.sum() - D @ c)
        term_yd = (4.0 / scale) * (d * e.sum() - Y @ e)
    elif spec.family == POLYNOMIAL:
        b = spec.beta
        pd = (D.T @ d + spec.alpha) ** (b - 1)
        py = (Y.T @ d + spec.alpha) ** (b - 1)
        term_dd = 2.0 * b * (D @ (m_row * pd))
        term_yd = -2.0 * b * (Y @ (w * py))
    else:
        term_dd = 2.0 * (D @ m_row)
        term_yd = -2.0 * (Y @ w)
    return term_dd + term_yd


def synth_reference(m, N, n_planted, sparsity, seed, noise_sigma=0.0, coeff_low=None,
                    coeff_high=None):
    """Y = D* X* + noise with the whole C-ordered product and noise array at
    once, from the same generator stream as ``synth``. Returns (Y, D*, X*)."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n_planted))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((n_planted, N))
    for ell in range(N):
        support = np.sort(rng.choice(n_planted, size=sparsity, replace=False))
        if coeff_low is None:
            coeffs = rng.standard_normal(sparsity)
        else:
            coeffs = rng.uniform(coeff_low, coeff_high, size=sparsity)
            coeffs *= rng.choice([-1.0, 1.0], size=sparsity)
        X[support, ell] = coeffs
    Y = D @ X
    if noise_sigma > 0:
        Y = Y + noise_sigma * rng.standard_normal((m, N))
    return Y, D, X
