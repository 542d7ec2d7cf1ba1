import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_omp, omp
from rkdl import sparse_coding
from rkdl.kernels import KernelSpec, gram, inner_products, self_kernel_diag
from rkdl.linear_dl import Dictionary
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


def test_omp_batch_given_norms_is_bit_identical():
    D = unit_dictionary(12, 20, 24)
    rng = np.random.default_rng(25)
    Y = rng.standard_normal((12, 300))
    Y[:, :20] = 2.0 * D
    norms_sq = np.einsum("ij,ij->j", Y, Y)
    kept = norms_sq.copy()
    code = omp_batch(D, Y, 4, norms_sq=norms_sq).matrix
    assert np.array_equal(code, omp_batch(D, Y, 4).matrix)
    assert np.array_equal(norms_sq, kept)   # callers reuse them for the next call


def test_omp_batch_codes_f_ordered_signals_bit_identically():
    # aksvd_train codes an F-ordered copy of Y with the norms of the input
    D = unit_dictionary(64, 30, 26)
    rng = np.random.default_rng(27)
    Y = rng.standard_normal((64, 500))
    Y[:, :30] = 2.0 * D
    norms_sq = np.einsum("ij,ij->j", Y, Y)
    code = omp_batch(D, Y, 5, norms_sq=norms_sq).matrix
    assert np.array_equal(omp_batch(D, np.asfortranarray(Y), 5, norms_sq=norms_sq).matrix, code)


@pytest.mark.parametrize("m, n", [(16, 8), (32, 16)])
def test_omp_batch_returns_exact_supports_at_unit_scale(m, n):
    # every atom at 2.5 and every atom pair at (1.5, -0.75) is fit exactly;
    # a further pick would be chosen by round-off, since the squared residual
    # then carries a cancellation error near 1e-15 ||y||^2
    D = unit_dictionary(m, n, 0)
    pairs = list(itertools.combinations(range(n), 2))
    singles = [(j,) for j in range(n)]
    Y2 = np.column_stack([1.5 * D[:, i] - 0.75 * D[:, j] for i, j in pairs])
    for Y, supports in ((2.5 * D, singles), (Y2, pairs)):
        code = omp_batch(D, Y, 5).matrix
        assert [tuple(np.flatnonzero(col)) for col in code.T] == supports
        np.testing.assert_allclose(D @ code, Y, atol=1e-12)


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
    with pytest.raises(ValueError, match="^dictionary rows 8 do not match signal rows 7$"):
        omp_batch(D, Y[:7], 2)
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


def test_omp_batch_and_dictionary_validate_reject_a_nan_atom():
    D = unit_dictionary(6, 4, 2)
    D[0, 1] = np.nan
    with pytest.raises(ValueError, match="column 1 is not unit-norm"):
        omp_batch(D, np.ones((6, 3)), 2)
    with pytest.raises(ValueError, match="column 1 is not unit-norm"):
        Dictionary(atoms=D).validate()


@pytest.mark.parametrize("where,index,value,error,reason", [
    ("k_dd", (0, 1), np.nan, ValueError, "kernel atom 0 is not Gram-normalized"),
    ("k_yd", (0, 1), np.inf, FloatingPointError, "not finite"),
    ("k_yd", (3, 5), np.nan, FloatingPointError, "not finite"),
    ("k_yy", 2, np.nan, FloatingPointError, "not finite"),
    ("k_yy", 0, np.inf, FloatingPointError, "not finite")])
def test_kernel_omp_batch_rejects_non_finite_grams(where, index, value, error, reason):
    # coefficients I on an RBF Gram, as the trainers and encode call it: a NaN
    # anywhere in K_DD spreads to all of A^T K_DD A, its diagonal included
    spec = KernelSpec("rbf", sigma=2.0)
    rng = np.random.default_rng(14)
    D, Y = rng.standard_normal((5, 6)), rng.standard_normal((5, 4))
    grams = {"k_yd": gram(Y, D, spec), "k_yy": np.ones(4), "k_dd": gram(D, D, spec)}
    grams[where][index] = value
    with np.errstate(invalid="ignore"), pytest.raises(error, match=reason):
        kernel_omp_batch(grams["k_yd"], grams["k_yy"], grams["k_dd"], np.eye(6), 2)


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


def test_batch_coders_stop_when_every_signal_is_nearly_exact():
    # every signal is one atom's image plus a trace of another, below the
    # residual tolerance, so every signal stops after one pick
    spec = KernelSpec("rbf", sigma=1.5)
    _, A, k_dd = kernel_setup(6, 8, 5, 10, spec)
    picks, traces = np.array([2, 0, 4, 2]), np.array([1, 3, 0, 4])
    W = A[:, picks] + 1e-6 * A[:, traces]
    k_yd, kyy = (k_dd @ W).T, np.einsum("ij,ij->j", W, k_dd @ W)
    code = kernel_omp_batch(k_yd, kyy, k_dd, A, 3).matrix
    assert np.count_nonzero(code) == 4
    for ell in range(4):
        support, coeffs = kernel_omp(k_yd[ell], kyy[ell], k_dd, A, 3)
        assert support.tolist() == [picks[ell]]
        assert code[picks[ell], ell] == pytest.approx(coeffs[0], abs=1e-12)
    D = unit_dictionary(8, 6, 23)
    Y = 1e-3 * D[:, picks] + 1e-12 * D[:, traces]
    code = omp_batch(D, Y, 3).matrix
    assert np.count_nonzero(code) == 4
    np.testing.assert_allclose(code[picks, range(4)], 1e-3 + 1e-12 * np.einsum(
        "ij,ij->j", D[:, picks], D[:, traces]), rtol=1e-12)


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


# ------------------------------------------------- batch coder against oracles

def fold_twin(code, twin):
    """Codes with an exact duplicate atom's row (last) added onto its original
    (row 0): the pursuit may pick either of two identical atoms."""
    code = code.copy()
    if twin:
        code[0] += code[-1]
        code[-1] = 0.0
    return code


def plant_twin(M, plant, rng):
    """Make the last column of M a copy (``"duplicate"``) or a 1e-6
    perturbation (``"near-duplicate"``) of column 0, in place. At 1e-6 the
    twins' squared pivot (about 1e-12) is ridged, while their correlations
    with a signal still differ by far more than round-off."""
    if plant != "none":
        noise = 1e-6 * rng.standard_normal(M.shape[0]) if plant == "near-duplicate" else 0.0
        M[:, -1] = M[:, 0] + noise


def check_ridged_codes(code, prev_code, residual_sq):
    """A ridged pursuit's codes are finite, and its last pick does not raise
    any signal's residual."""
    assert np.all(np.isfinite(code))
    if prev_code is not None:
        assert np.all(residual_sq(code) <= residual_sq(prev_code) + 1e-9)


twin_plants = st.sampled_from(["none", "duplicate", "near-duplicate"])
signal_kinds = st.sampled_from(["random", "zero", "exact"])


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), extra_rows=st.integers(2, 5),
       plant=twin_plants, unit=st.booleans(), data=st.data())
def test_omp_batch_matches_oracle_or_counts_ridges(seed, n, extra_rows, plant, unit, data):
    # m >= n + 2 keeps random atoms well conditioned, so without a ridged
    # pick the normal-equation coder and the lstsq oracle agree to 1e-10
    m = n + extra_rows
    s = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="sparsity")
    kinds = data.draw(st.lists(signal_kinds, min_size=1, max_size=10), label="signals")
    plant = plant if n >= 2 else "none"
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    plant_twin(D, plant, rng)
    D /= np.linalg.norm(D, axis=0)
    if not unit:
        D *= rng.uniform(0.25, 4.0, n)
    Y = np.zeros((m, len(kinds)))
    for ell, kind in enumerate(kinds):
        if kind == "random":
            Y[:, ell] = rng.standard_normal(m)
        elif kind == "exact":
            support = rng.choice(n, size=rng.integers(1, s + 1), replace=False)
            Y[:, ell] = D[:, support] @ rng.uniform(0.5, 2.0, support.size)
    if not unit:
        with pytest.raises(ValueError, match="not unit-norm"):
            omp_batch(D, Y, s)
        return
    stats: dict = {}
    code = omp_batch(D, Y, s, stats=stats).matrix
    assert "ridge" not in stats
    if stats.get("linear_ridge", 0) == 0:
        expected = np.zeros_like(code)
        for ell in range(len(kinds)):
            support, coeffs = omp(D, Y[:, ell], s)
            expected[support, ell] = coeffs
        twin = plant == "duplicate"
        np.testing.assert_allclose(fold_twin(code, twin), fold_twin(expected, twin), atol=1e-10)
    else:
        prev = omp_batch(D, Y, s - 1).matrix if s > 1 else None
        check_ridged_codes(code, prev, lambda X: np.sum((Y - D @ X) ** 2, axis=0))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 6), extra_vectors=st.integers(2, 4),
       family=st.sampled_from(["rbf", "linear"]), plant=twin_plants, data=st.data())
def test_kernel_omp_batch_matches_oracle_or_counts_ridges(seed, n_a, extra_vectors, family,
                                                          plant, data):
    # n_d >= n_a + 2 vectors in m >= n_d dimensions keep K_DD and the atom
    # Gram well conditioned unless a twin is planted
    n_d = n_a + extra_vectors
    m = n_d + 1
    spec = KernelSpec("rbf", sigma=2.0) if family == "rbf" else KernelSpec("linear")
    s = data.draw(st.one_of(st.just(n_a), st.integers(1, n_a)), label="sparsity")
    kinds = data.draw(st.lists(signal_kinds, min_size=1, max_size=10), label="signals")
    plant = plant if n_a >= 2 else "none"
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n_d))
    k_dd = gram(D, D, spec)
    A = rng.standard_normal((n_d, n_a))
    plant_twin(A, plant, rng)
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    G = A.T @ k_dd @ A
    Y = rng.standard_normal((m, len(kinds)))
    k_yd = gram(Y, D, spec)
    kyy = self_kernel_diag(Y, spec)
    for ell, kind in enumerate(kinds):
        if kind == "zero":   # the zero vector of feature space
            k_yd[ell], kyy[ell] = 0.0, 0.0
        elif kind == "exact":
            c = np.zeros(n_a)
            support = rng.choice(n_a, size=rng.integers(1, s + 1), replace=False)
            c[support] = rng.uniform(0.5, 2.0, support.size)
            k_yd[ell], kyy[ell] = k_dd @ (A @ c), c @ G @ c
    stats: dict = {}
    code = kernel_omp_batch(k_yd, kyy, k_dd, A, s, stats=stats).matrix
    if stats.get("ridge", 0) == 0:
        expected = np.zeros_like(code)
        for ell in range(len(kinds)):
            support, coeffs = kernel_omp(k_yd[ell], kyy[ell], k_dd, A, s)
            expected[support, ell] = coeffs
        twin = plant == "duplicate"
        np.testing.assert_allclose(fold_twin(code, twin), fold_twin(expected, twin), atol=1e-10)
    else:
        prev = kernel_omp_batch(k_yd, kyy, k_dd, A, s - 1).matrix if s > 1 else None
        P = k_yd @ A
        check_ridged_codes(code, prev, lambda Z: kyy - 2.0 * np.einsum("la,al->l", P, Z)
                           + np.einsum("al,al->l", Z, G @ Z))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 6), extra_vectors=st.integers(0, 4),
       family=st.sampled_from(["rbf", "linear"]), kdl_shaped=st.booleans(),
       duplicate=st.booleans(), data=st.data())
def test_kernel_omp_batch_on_the_atoms_own_products_is_bit_identical(
        seed, n_a, extra_vectors, family, kdl_shaped, duplicate, data):
    # the trainers code on the atoms themselves: cross Gram K_YD A, Gram
    # A^T K_DD A and coefficients I. Products with I are exact, so the codes
    # and the ridge counts are those of coding on K_YD, K_DD and A
    n_d = n_a + extra_vectors
    m = n_d + 1
    spec = KernelSpec("rbf", sigma=2.0) if family == "rbf" else KernelSpec("linear")
    s = data.draw(st.one_of(st.just(n_a), st.integers(1, n_a)), label="sparsity")
    N = n_d if kdl_shaped else data.draw(st.integers(1, 10), label="signals")
    n_zero = data.draw(st.integers(0, N - 1), label="zero signals")
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    Y[:, :n_zero] = 0.0
    D = Y if kdl_shaped else rng.standard_normal((m, n_d))
    k_dd = gram(D, D, spec)
    k_yd = k_dd if kdl_shaped else gram(Y, D, spec)
    kyy = self_kernel_diag(Y, spec)
    if not kdl_shaped:
        k_yd[:n_zero], kyy[:n_zero] = 0.0, 0.0    # the zero vector of feature space
    A = rng.standard_normal((n_d, n_a))
    plant_twin(A, "duplicate" if duplicate and n_a >= 2 else "none", rng)
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    stats: dict = {}
    code = kernel_omp_batch(k_yd, kyy, k_dd, A, s, stats=stats).matrix
    on_atoms: dict = {}
    atom_code = kernel_omp_batch(k_yd @ A, kyy, A.T @ (k_dd @ A), np.eye(n_a), s,
                                 stats=on_atoms).matrix
    assert atom_code.tobytes() == code.tobytes()
    assert on_atoms == stats


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), extra_rows=st.integers(0, 4),
       plant=twin_plants, data=st.data())
def test_batch_coder_reads_any_proj_layout_and_a_held_product_bit_identically(
        seed, n, extra_rows, plant, data):
    # the coder reads proj C-ordered at flat positions: a C- or F-ordered
    # proj, and omp_batch's own Y^T D or a held one in either order, give the
    # same codes, squared residuals and ridge counts bit for bit, and the held
    # product is never written into
    m = n + extra_rows
    s = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="sparsity")
    kinds = data.draw(st.lists(signal_kinds, min_size=1, max_size=12), label="signals")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    plant_twin(D, plant if n >= 2 else "none", rng)
    D /= np.linalg.norm(D, axis=0)
    Y = np.zeros((m, len(kinds)))
    for ell, kind in enumerate(kinds):
        if kind == "random":
            Y[:, ell] = rng.standard_normal(m)
        elif kind == "exact":
            support = rng.choice(n, size=rng.integers(1, s + 1), replace=False)
            Y[:, ell] = D[:, support] @ rng.uniform(0.5, 2.0, support.size)
    yd = inner_products(Y, D)
    held = yd.copy()
    runs = []
    for proj in (np.ascontiguousarray(yd), np.asfortranarray(yd)):
        stats: dict = {}
        code = sparse_coding._gram_omp_batch(D.T @ D, proj, np.einsum("ij,ij->j", Y, Y), s,
                                             sparse_coding.OMP_RESIDUAL_TOL**2, stats,
                                             "linear_ridge")
        runs.append((code, stats))
    for given_yd in (None, yd, np.ascontiguousarray(yd), np.asfortranarray(yd)):
        stats = {}
        runs.append((omp_batch(D, Y, s, stats=stats, yd=given_yd), stats))
    code, stats = runs[0]
    for other, other_stats in runs[1:]:
        assert other.matrix.tobytes() == code.matrix.tobytes()
        assert other.residual_sq.tobytes() == code.residual_sq.tobytes()
        assert other_stats == stats
    assert yd.tobytes() == held.tobytes()


def check_signals_coded_apart(code, N, counter, twin):
    """``code(cols, stats)`` codes the signals ``cols`` in one batch. Each
    column of the batch's code equals, bit for bit, its signal's column in a
    batch of N copies of that signal (the same BLAS shapes, none of the other
    signals' stops), and the code of the signal alone to round-off. The
    batch's counter is the sum of its signals' counts, which are returned."""
    stats: dict = {}
    batch = code(np.arange(N), stats)
    counts = []
    for ell in range(N):
        copy_stats: dict = {}
        copies = code(np.full(N, ell), copy_stats)
        assert copies[:, ell].tobytes() == batch[:, ell].tobytes()
        counts.append(copy_stats.get(counter, 0) / N)
        np.testing.assert_allclose(fold_twin(code([ell], {}), twin),
                                   fold_twin(batch[:, [ell]], twin), atol=1e-12)
    assert stats.get(counter, 0) == sum(counts)
    return counts


@pytest.mark.parametrize("offset", [0.0, 1e-7])
def test_batch_coders_ridge_near_singular_picks(monkeypatch, offset):
    # atom 3 repeats atom 0 (exactly, or 1e-7 off), and s = atom count forces
    # both into every support: the pick is counted, and its coefficient stays
    # small instead of exploding on a vanishing pivot
    rng = np.random.default_rng(22)
    D = unit_dictionary(6, 4, 21)
    D[:, 3] = D[:, 0] + offset * rng.standard_normal(6)
    D /= np.linalg.norm(D, axis=0)
    Y = rng.standard_normal((6, 12))
    stats: dict = {}
    X = omp_batch(D, Y, 4, stats=stats).matrix
    assert stats == {"linear_ridge": 12}
    check_ridged_codes(X, omp_batch(D, Y, 3).matrix,
                       lambda X: np.sum((Y - D @ X) ** 2, axis=0))
    assert np.abs(X).max() < 10.0 * np.abs(Y).max()

    # the same dictionary as kernel atoms: linear kernel, identity coefficients
    spec = KernelSpec("linear")
    k_dd, k_yd, kyy = gram(D, D, spec), gram(Y, D, spec), self_kernel_diag(Y, spec)
    stats = {}
    Z = kernel_omp_batch(k_yd, kyy, k_dd, np.eye(4), 4, stats=stats).matrix
    assert stats == {"ridge": 12}
    check_ridged_codes(Z, kernel_omp_batch(k_yd, kyy, k_dd, np.eye(4), 3).matrix,
                       lambda Z: np.sum((Y - D @ Z) ** 2, axis=0))
    np.testing.assert_allclose(Z, X, atol=1e-9)

    # a batch whose signals stop at every point of the pursuit: a zero signal
    # and one below the residual floor (neither starts), exact signals on one
    # and on two atoms (stopping after picks 1 and 2), a two-atom signal plus
    # a vector orthogonal to every atom, whose third pick gains nothing and is
    # idle, and noisy signals that run to the end. A stopped signal's later
    # picks, weak ones included, count nothing.
    exact = D[:, 1:3] @ [1.5, -2.5]
    M = np.column_stack([np.zeros(6), 1e-12 * D[:, 0], 2.0 * D[:, 1], exact,
                         exact + np.linalg.qr(D, mode="complete")[0][:, -1], Y[:, :4]])
    k_yd, kyy = gram(M, D, spec), self_kernel_diag(M, spec)
    for counter, code in [
            ("linear_ridge", lambda c, st: omp_batch(D, M[:, c], 4, stats=st).matrix),
            ("ridge", lambda c, st: kernel_omp_batch(k_yd[c], kyy[c], k_dd, np.eye(4), 4,
                                                     stats=st).matrix)]:
        counts = check_signals_coded_apart(code, M.shape[1], counter, twin=offset == 0.0)
        assert counts == [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert np.count_nonzero(code(np.arange(5), {}), axis=0).tolist() == [0, 0, 1, 2, 2]
        with monkeypatch.context() as mp:
            mp.setattr(sparse_coding, "OMP_GAIN_TOL", 0.0)    # no idle stop
            assert np.count_nonzero(code([4], {})) > 2

    # residual_sq is each signal's squared residual to 1e-12 of its squared
    # norm; on a ridged column it is an upper bound, above by the ridged twin's
    # x_k^2 times its diagonal shift w.w + RIDGE <= 1 + RIDGE, and that twin
    # holds the smaller of the two coefficients
    ridged = np.array(counts) > 0
    norms_sq = np.sum(M ** 2, axis=0)
    for sc in (omp_batch(D, M, 4), kernel_omp_batch(k_yd, kyy, k_dd, np.eye(4), 4)):
        gap = sc.residual_sq - np.sum((M - D @ sc.matrix) ** 2, axis=0)
        tol = 1e-12 * norms_sq
        assert np.all(np.abs(gap[~ridged]) <= tol[~ridged])
        twin_sq = np.minimum(sc.matrix[0] ** 2, sc.matrix[3] ** 2)
        assert np.all(-tol[ridged] <= gap[ridged])
        assert np.all(gap[ridged] <= (1.0 + sparse_coding.RIDGE) * twin_sq[ridged] + tol[ridged])
