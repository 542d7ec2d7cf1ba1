import itertools

import numpy as np
import pytest

from oracles import kernel_omp, omp
from rkdl.kernels import KernelSpec, gram
from rkdl.sparse_coding import SparseCode, kernel_omp_batch, omp_batch


def unit_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    return D / np.linalg.norm(D, axis=0)


def incoherent_frame(m, n, seed, target=0.45, iters=60):
    """Low-coherence frame via alternating Gram clipping and refactorization."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    D /= np.linalg.norm(D, axis=0)
    for _ in range(iters):
        G = D.T @ D
        off = np.clip(G - np.diag(np.diag(G)), -target, target)
        w, V = np.linalg.eigh(off + np.eye(n))
        D = (V[:, -m:] * np.sqrt(np.clip(w[-m:], 0, None))).T
        D /= np.linalg.norm(D, axis=0)
    return D


def reconstruction_residual(D, y, support, coeffs):
    x = np.zeros(D.shape[1])
    x[support] = coeffs
    return np.linalg.norm(y - D @ x)


def test_omp_recovers_single_atom():
    D = unit_dictionary(6, 9, 0)
    y = 2.5 * D[:, 3]
    support, coeffs = omp(D, y, 1)
    assert support.tolist() == [3]
    assert reconstruction_residual(D, y, support, coeffs) < 1e-12


def test_omp_zero_signal():
    D = unit_dictionary(6, 9, 1)
    support, coeffs = omp(D, np.zeros(6), 3)
    assert support.size == 0 and coeffs.size == 0


def test_omp_requires_normalized_dictionary():
    D = unit_dictionary(6, 9, 2)
    D[:, 4] *= 1.5
    with pytest.raises(ValueError, match="unit-norm"):
        omp(D, np.ones(6), 2)


def test_omp_sparsity_bounds():
    D = unit_dictionary(4, 6, 3)
    with pytest.raises(ValueError):
        omp(D, np.ones(4), 0)
    with pytest.raises(ValueError):
        omp(D, np.ones(4), 5)


@pytest.mark.parametrize("seed", [1, 2, 4, 5, 6, 13, 16])
def test_omp_matches_exhaustive_two_subset_search(seed):
    # brute-force oracle: smallest residual over every 2-atom support
    D = incoherent_frame(4, 6, seed)
    assert (np.abs(D.T @ D) - np.eye(6)).max() < 0.5
    y = np.random.default_rng(1000 + seed).standard_normal(4)
    support, coeffs = omp(D, y, 2)
    r_greedy = reconstruction_residual(D, y, support, coeffs)
    r_best = min(
        np.linalg.norm(y - D[:, p] @ np.linalg.lstsq(D[:, p], y, rcond=None)[0])
        for p in itertools.combinations(range(6), 2)
    )
    assert abs(r_greedy - r_best) < 1e-9


def test_omp_residual_nonincreasing_and_no_repeats():
    D = unit_dictionary(10, 16, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.standard_normal(10)
        prev = np.linalg.norm(y)
        for s in range(1, 7):
            support, coeffs = omp(D, y, s)
            assert np.unique(support).size == support.size
            r = reconstruction_residual(D, y, support, coeffs)
            assert r <= prev + 1e-12
            prev = r


def test_omp_batch_matches_per_signal():
    D = unit_dictionary(8, 12, 6)
    Y = np.random.default_rng(7).standard_normal((8, 40))
    code = omp_batch(D, Y, 3)
    code.validate()
    for ell in range(40):
        support, coeffs = omp(D, Y[:, ell], 3)
        x = np.zeros(12)
        x[support] = coeffs
        np.testing.assert_allclose(code.matrix[:, ell], x, atol=1e-9)


def test_sparse_code_validate_rejects_overfull_column():
    matrix = np.zeros((5, 3))
    matrix[:2, 0] = [1.0, -1.0]
    matrix[[0, 2, 4], 2] = [1.0, -2.0, 0.5]
    SparseCode(matrix=matrix, sparsity=3).validate()
    with pytest.raises(ValueError, match="column 2 has 3 nonzeros"):
        SparseCode(matrix=matrix, sparsity=2).validate()


def test_batch_coders_reject_sparsity_above_atom_count():
    D = unit_dictionary(8, 4, 3)
    Y = np.random.default_rng(4).standard_normal((8, 5))
    with pytest.raises(ValueError, match="sparsity must be in"):
        omp_batch(D, Y, 5)
    spec = KernelSpec("linear")
    with pytest.raises(ValueError, match="sparsity must be in"):
        kernel_omp_batch(gram(Y, D, spec), np.ones(5), gram(D, D, spec), np.eye(4), 0)


def kernel_setup(m, n_d, n_a, seed, spec):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n_d))
    k_dd = gram(D, D, spec)
    A = rng.standard_normal((n_d, n_a))
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    return D, A, k_dd


def test_kernel_omp_linear_kernel_equals_omp():
    # the central oracle: with a linear kernel and identity coefficients the
    # kernel pursuit must reproduce plain OMP's residuals
    spec = KernelSpec("linear")
    D = unit_dictionary(8, 12, 8)
    k_dd = gram(D, D, spec)
    rng = np.random.default_rng(9)
    for _ in range(25):
        y = rng.standard_normal(8)
        support, coeffs = omp(D, y, 3)
        k_support, k_coeffs = kernel_omp(D.T @ y, float(y @ y), k_dd, np.eye(12), 3)
        r_lin = reconstruction_residual(D, y, support, coeffs)
        r_ker = reconstruction_residual(D, y, k_support, k_coeffs)
        assert abs(r_lin - r_ker) < 1e-9


def test_kernel_omp_exact_atom_match():
    spec = KernelSpec("rbf", sigma=1.5)
    _, A, k_dd = kernel_setup(6, 8, 5, 10, spec)
    j = 2
    k_yd_row = k_dd @ A[:, j]          # signal is the phi-image of kernel atom j
    k_yy = float(A[:, j] @ k_yd_row)   # = 1 under normalization
    support, coeffs = kernel_omp(k_yd_row, k_yy, k_dd, A, 1)
    assert support.tolist() == [j]
    assert coeffs[0] == pytest.approx(1.0, abs=1e-10)


def test_kernel_omp_full_support_zeroes_correlation():
    spec = KernelSpec("polynomial", alpha=1.0, beta=2)
    _, A, k_dd = kernel_setup(5, 7, 4, 11, spec)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(5)
    D = rng.standard_normal((5, 7))
    k_dd = gram(D, D, spec)
    A = rng.standard_normal((7, 4))
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    k_yd_row = gram(y[:, None], D, spec).ravel()
    k_yy = float(gram(y[:, None], y[:, None], spec)[0, 0])
    support, coeffs = kernel_omp(k_yd_row, k_yy, k_dd, A, 4)
    z = np.zeros(4)
    z[support] = coeffs
    corr = A.T @ (k_yd_row - k_dd @ (A @ z))
    assert np.max(np.abs(corr)) < 1e-9


def test_kernel_omp_requires_gram_normalized_atoms():
    spec = KernelSpec("rbf", sigma=1.0)
    _, A, k_dd = kernel_setup(5, 6, 3, 13, spec)
    A[:, 1] *= 2.0
    with pytest.raises(ValueError, match="Gram-normalized"):
        kernel_omp(np.ones(6), 1.0, k_dd, A, 2)


def test_kernel_omp_batch_matches_per_signal():
    spec = KernelSpec("rbf", sigma=2.0)
    D, A, k_dd = kernel_setup(7, 9, 5, 14, spec)
    Y = np.random.default_rng(15).standard_normal((7, 30))
    k_yd = gram(Y, D, spec)
    k_yy = np.ones(30)
    code = kernel_omp_batch(k_yd, k_yy, k_dd, A, 3)
    code.validate()
    for ell in range(30):
        support, coeffs = kernel_omp(k_yd[ell], 1.0, k_dd, A, 3)
        x = np.zeros(5)
        x[support] = coeffs
        np.testing.assert_allclose(code.matrix[:, ell], x, atol=1e-10)


def test_kernel_omp_ridge_counter_on_redundant_atoms():
    # two coefficient columns map to the same feature-space atom, so a full
    # support has a singular Gram and the solve falls back to the ridge
    D = unit_dictionary(6, 4, 20)
    D = np.column_stack([D, D[:, 0]])
    k_dd = D.T @ D
    A = np.eye(5)[:, [0, 4, 1]]
    A = A / np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    rng = np.random.default_rng(21)
    y = D[:, 0] * 2 + D[:, 1] * 0.5 + 0.3 * rng.standard_normal(6)
    stats: dict = {}
    support, coeffs = kernel_omp(D.T @ y, float(y @ y), k_dd, A, 3, stats=stats)
    assert stats.get("ridge", 0) >= 1
    assert support.size == 3


def test_kernel_omp_residual_sq_nonnegative():
    spec = KernelSpec("rbf", sigma=1.0)
    D, A, k_dd = kernel_setup(6, 8, 4, 16, spec)
    rng = np.random.default_rng(17)
    G = A.T @ (k_dd @ A)
    for _ in range(20):
        y = rng.standard_normal(6)
        k_yd_row = gram(y[:, None], D, spec).ravel()
        support, coeffs = kernel_omp(k_yd_row, 1.0, k_dd, A, 4)
        proj = (A.T @ k_yd_row)[support]
        sub = G[np.ix_(support, support)]
        res_sq = 1.0 - 2.0 * coeffs @ proj + coeffs @ (sub @ coeffs)
        assert res_sq >= -1e-9
