import dataclasses
import functools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (kdl_train_two_arrays, rkdl_atom_sweep_running_sum, swept,
                     trace_error_from_grams)
from rkdl import kernel_dl, kernels, linear_dl, sparse_coding
from rkdl.cli import main as cli_main
from rkdl.datasets import load_csv, save_csv, synth
from rkdl.kernel_dl import (
    METHODS,
    KdlConfig,
    KernelDictionary,
    TrainTrace,
    _linear_penalty_products,
    encode,
    error_metric,
    kdl_train,
    kernel_map,
    morkdl_train,
    orkdl_train,
    rkdl_atom_sweep,
    rkdl_train,
)
from rkdl.kernels import KernelSpec, dictionary_gradient, gram, inner_products, self_kernel_diag
from rkdl.linear_dl import Dictionary, DLConfig, aksvd_train, init_dictionary
from rkdl.model_io import save_model
from rkdl.sparse_coding import SparseCode, kernel_omp_batch, omp_batch

LINEAR = KernelSpec("linear")


def objective(Y, D, A, Z, spec):
    """Squared representation objective evaluated from scratch (oracle path)."""
    kyy = self_kernel_diag(Y, spec).sum()
    kyd = gram(Y, D, spec)
    kdd = gram(D, D, spec)
    t2 = np.einsum("la,al->", kyd @ A, Z)
    t3 = np.einsum("al,al->", Z, (A.T @ (kdd @ A)) @ Z)
    return kyy - 2.0 * t2 + t3


def random_sweep_instance(seed, m=7, N=20, n_d=6, n_a=3, spec=LINEAR):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    D = rng.standard_normal((m, n_d))
    k_dd = gram(D, D, spec)
    k_yd = gram(Y, D, spec)
    A = rng.standard_normal((n_d, n_a))
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    Z = np.zeros((n_a, N))
    for ell in range(N):
        sup = rng.choice(n_a, size=min(2, n_a), replace=False)
        Z[sup, ell] = rng.standard_normal(sup.size)
    return Y, D, A, Z, k_dd, k_yd


# ---------------------------------------------------------------- error metric

def test_error_metric_zero_code_rbf():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((9, 14))
    D = rng.standard_normal((9, 5))
    spec = KernelSpec("rbf", sigma=1.7)
    kdict = KernelDictionary(coefficients=np.zeros((5, 3)), vectors=Dictionary(D),
                             kernel=spec)
    err = error_metric(Y, kdict, np.zeros((3, 14)))
    assert err == pytest.approx(1.0 / np.sqrt(9), abs=1e-14)


def test_error_metric_exact_linear_representation():
    # the Gram form squares the residual before the square root, so an exact
    # representation bottoms out near sqrt(eps) * signal scale, not at eps
    rng = np.random.default_rng(1)
    D = rng.standard_normal((6, 4))
    A = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 10))
    Y = D @ A @ Z
    kdict = KernelDictionary(coefficients=A, vectors=Dictionary(D), kernel=LINEAR)
    assert error_metric(Y, kdict, Z) < 1e-7


def test_trace_error_counts_residual_clamps():
    # an exact representation leaves a squared residual of round-off size;
    # 1e-6 below zero it clamps to 0 and is counted, above zero it is not
    rng = np.random.default_rng(1)
    D = rng.standard_normal((6, 4))
    A = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 10))
    Y = D @ A @ Z
    P, G = kernel_dl._atom_products(gram(Y, D, LINEAR), gram(D, D, LINEAR), A)
    kyy = np.einsum("ij,ij->j", Y, Y)    # each signal's shift below adds up to 1e-6

    def trace_error(kyy, stats):
        return linear_dl.residual_error(kernel_dl._residuals(kyy, P, G, Z)[0].sum(), 60, stats)

    stats: dict = {}
    assert trace_error(kyy - 1e-7, stats) == 0.0
    assert stats == {"residual_clamp": 1}
    assert trace_error(kyy + 1e-7, stats) > 0.0
    assert stats == {"residual_clamp": 1}


def test_error_metric_matches_explicit_linear_residual():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((8, 12))
    D = rng.standard_normal((8, 5))
    A = rng.standard_normal((5, 4))
    Z = rng.standard_normal((4, 12))
    kdict = KernelDictionary(coefficients=A, vectors=Dictionary(D), kernel=LINEAR)
    explicit = np.linalg.norm(Y - D @ A @ Z) / np.sqrt(Y.size)
    assert error_metric(Y, kdict, Z) == pytest.approx(explicit, abs=1e-10)


# ------------------------------------------------------------------ atom sweep

def test_sweep_leaves_unused_atom_untouched():
    Y, D, A, Z, k_dd, k_yd = random_sweep_instance(3)
    Z[1, :] = 0.0
    stats: dict = {}
    A2, Z2 = swept(k_dd, k_yd, A, Z, stats=stats)
    np.testing.assert_array_equal(A2[:, 1], A[:, 1])
    np.testing.assert_array_equal(Z2[1], Z[1])
    assert stats["unused_kernel_atom"] == 1


@pytest.mark.parametrize("spec", [LINEAR, KernelSpec("rbf", sigma=2.0),
                                  KernelSpec("polynomial", alpha=0.5, beta=2)])
def test_sweep_never_increases_objective(spec):
    for seed in range(20):
        Y, D, A, Z, k_dd, k_yd = random_sweep_instance(100 + seed, spec=spec)
        before = objective(Y, D, A, Z, spec)
        A2, Z2 = swept(k_dd, k_yd, A, Z)
        after = objective(Y, D, A2, Z2, spec)
        assert after <= before + 1e-9
        norms = np.einsum("ij,ij->j", A2, k_dd @ A2)
        used = np.array([Z[j].any() for j in range(A.shape[1])])
        assert np.max(np.abs(norms[used] - 1.0)) < 1e-8


def test_sweep_scale_stationarity():
    # with the refit code fixed, the objective along t * a_j is minimized at
    # t = 1 for the last atom the sweep touched (earlier atoms see their
    # residual move again when later atoms update); a brute-force grid over t
    # confirms the normalize/refit bookkeeping
    for seed in (5, 6, 7):
        Y, D, A, Z, k_dd, k_yd = random_sweep_instance(seed)
        A2, Z2 = swept(k_dd, k_yd, A, Z)
        last = max(j for j in range(A2.shape[1]) if Z2[j].any())
        base = objective(Y, D, A2, Z2, LINEAR)
        for t in np.linspace(0.9, 1.1, 21):
            At = A2.copy()
            At[:, last] = t * A2[:, last]
            assert objective(Y, D, At, Z2, LINEAR) >= base - 1e-9


def test_sweep_single_atom_reaches_projection_residual():
    rng = np.random.default_rng(8)
    for m, n_d in ((5, 5), (7, 4)):
        D = rng.standard_normal((m, n_d))
        y = rng.standard_normal((m, 1))
        k_dd = gram(D, D, LINEAR)
        k_yd = gram(y, D, LINEAR)
        A = rng.standard_normal((n_d, 1))
        A /= np.sqrt(A[:, 0] @ k_dd @ A[:, 0])
        Z = np.ones((1, 1))
        A2, Z2 = swept(k_dd, k_yd, A, Z)
        achieved = objective(y, D, A2, Z2, LINEAR)
        lstsq_residual = y[:, 0] - D @ np.linalg.lstsq(D, y[:, 0], rcond=None)[0]
        assert achieved == pytest.approx(lstsq_residual @ lstsq_residual, abs=1e-9)


SWEEP_KERNELS = [LINEAR, KernelSpec("rbf", sigma=2.0), KernelSpec("polynomial", alpha=0.5, beta=3)]


def sweep_inputs(spec, m, N, n_a, n_d, sparsity, seed, duplicate=False, degenerate=False,
                 unused_last=False):
    """(k_dd, k_yd, A, Z) for a sweep; ``n_d=None`` is the ``kdl`` shape, D = Y
    and ``k_yd is k_dd``.

    The ``kdl`` shape has more signals than dimensions, so its linear Gram is
    rank-deficient: its Cholesky factor is ridged, or unridged and
    ill-conditioned. ``duplicate`` makes signal 1 a copy of signal 0, with a
    bit-equal Gram row. The ``degenerate`` atom 0 is used by the duplicate
    pair (N - 2, N - 1) only, with opposite weights, so its update direction u
    is zero. ``unused_last`` leaves the last atom without signals.
    """
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    D = Y if n_d is None else rng.standard_normal((m, n_d))
    k_dd = gram(D, D, spec)
    k_yd = k_dd if n_d is None else gram(Y, D, spec)
    pairs = [(1, 0)] if duplicate else []
    if degenerate:
        pairs.append((N - 1, N - 2))
    for copy, source in pairs:
        k_yd[copy] = k_yd[source]
        if n_d is None:
            k_dd[:, copy] = k_dd[:, source]
    A = rng.standard_normal((k_dd.shape[0], n_a))
    A /= np.sqrt(np.maximum(np.einsum("ij,ij->j", A, k_dd @ A), 1e-3))
    Z = np.zeros((n_a, N))
    for ell in range(N):
        support = rng.choice(n_a, size=sparsity, replace=False)
        Z[support, ell] = rng.uniform(0.5, 2.0, sparsity) * rng.choice([-1.0, 1.0], sparsity)
    for copy, source in pairs:
        Z[:, copy] = Z[:, source]
    if degenerate:
        Z[0] = 0.0
        Z[0, [N - 2, N - 1]] = [1.0, -1.0]
    if unused_last:
        Z[-1] = 0.0
    return k_dd, k_yd, A, Z


@st.composite
def sweep_oracle_inputs(draw):
    """``sweep_inputs`` on drawn shapes, sparsities, seeds and plantings."""
    spec = draw(st.sampled_from(SWEEP_KERNELS))
    kdl_shape = draw(st.booleans())
    m, N, n_a = draw(st.integers(2, 6)), draw(st.integers(8, 24)), draw(st.integers(1, 5))
    n_d = None if kdl_shape else draw(st.integers(1, 8))
    sparsity = n_a if draw(st.booleans()) else draw(st.integers(1, n_a))
    seed = draw(st.integers(0, 2**32 - 1))
    duplicate = draw(st.booleans())
    degenerate = n_a > 1 and draw(st.booleans())
    unused_last = n_a > 1 and draw(st.booleans())
    return sweep_inputs(spec, m, N, n_a, n_d, sparsity, seed, duplicate, degenerate, unused_last)


@settings(max_examples=300)
@given(sweep_oracle_inputs())
# a reduced-shape draw with cond(K_DD) = 1.4e8: Z differs from the oracle by
# 1.3e-10 relative, and a 60-digit sweep puts each about 6e-10 from the exact
# result, so neither is at fault and the round-off bound below applies
@example(sweep_inputs(LINEAR, m=5, N=15, n_a=2, n_d=5, sparsity=1, seed=231))
def test_sweep_matches_running_sum_oracle(inputs):
    k_dd, k_yd, A, Z = inputs
    stats, expected_stats = {}, {}
    A_ref, Z_ref = rkdl_atom_sweep_running_sum(k_dd, k_yd, A, Z, stats=expected_stats)
    A2, Z2 = swept(k_dd, k_yd, A, Z, stats=stats)
    assert stats == expected_stats    # both drop the same dependent vectors
    # in the reduced shape, Z and K_DD A carry the map's and the reference
    # solve's round-off, eps * cond(K_DD), which exceeds 1e-10 only for
    # cond(K_DD) above 4.5e5
    cond = np.linalg.cond(k_dd)
    tol = 1e-10 if k_yd is k_dd else max(1e-10, np.finfo(float).eps * cond)
    assert np.linalg.norm(Z2 - Z_ref) <= tol * np.linalg.norm(Z_ref)
    # the objective sees A only through K_DD A; where K_DD is numerically
    # singular, the map folds A's part on the dropped vectors into the
    # pivots', where the reference keeps it
    assert np.linalg.norm(k_dd @ (A2 - A_ref)) <= tol * np.linalg.norm(k_dd @ A_ref)
    if cond < 1e5:
        assert np.linalg.norm(A2 - A_ref) <= 1e-10 * np.linalg.norm(A_ref)


def test_sweep_peak_allocation_stays_below_half_an_n_by_n_array():
    # kdl shape at N = 800, each atom used by about N/5 signals: the sweep on
    # kdl's factored K builds no N x N array such as A Z and no N x |S|
    # residual R
    rng = np.random.default_rng(0)
    N, n_a = 800, 10
    Y = rng.standard_normal((8, N))
    k_dd = gram(Y, Y, KernelSpec("rbf", sigma=2.0))
    A = kernel_dl._init_coefficients(N, n_a, np.diag(k_dd).copy(), rng)
    K = kernel_dl.FactoredGram(k_dd, {})
    Z = np.zeros((n_a, N))
    for ell in range(N):
        Z[rng.choice(n_a, size=2, replace=False), ell] = rng.standard_normal(2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rkdl_atom_sweep(K, K, A, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * k_dd.nbytes


def test_kdl_sweep_peak_allocation_stays_below_a_tenth_of_an_n_by_n_array():
    # kdl shape at N = 2000, n_a = 20, sparsity 4, so each atom is used by
    # about N/5 signals: the sweep reads K's rows through its factored K, so
    # the peak is copies of A and Z plus N x n_a products, not |S| x N rows
    rng = np.random.default_rng(1)
    N, n_a = 2000, 20
    Y = rng.standard_normal((8, N))
    k_dd = gram(Y, Y, KernelSpec("rbf", sigma=2.0))
    A = kernel_dl._init_coefficients(N, n_a, np.diag(k_dd).copy(), rng)
    K = kernel_dl.FactoredGram(k_dd, {})
    Z = np.zeros((n_a, N))
    for ell in range(N):
        Z[rng.choice(n_a, size=4, replace=False), ell] = rng.standard_normal(4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rkdl_atom_sweep(K, K, A, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * k_dd.nbytes


def test_sweep_on_the_coders_code_holds_no_second_code():
    # a trainer's shape: the sweep updates the coder's signal-major code and
    # the caller's coordinates B in the kernel map in place, so its peak is
    # the code's nonzero indices and small products, below a copy of the code
    # on top of them
    signals, _, _ = synth(64, 20000, 30, 4, 5, 0.05, 1.0, 3.0)
    Y = signals.values
    D = init_dictionary(Y, 50, seed=0).atoms
    spec = KernelSpec("rbf", sigma=4.0, denom_factor=1.0)
    k_dd, k_yd = gram(D, D, spec), gram(Y, D, spec)
    A = kernel_dl._init_coefficients(50, 20, np.diag(k_dd).copy(), np.random.default_rng(0))
    T, B = kernel_map(k_dd, A, {})
    F = k_yd @ T
    P, G = kernel_dl._atom_products(F, None, B)
    Z = kernel_omp_batch(P, np.ones(Y.shape[1]), G, np.eye(20), 4).matrix
    B0, Z0 = B.copy(), Z.copy()
    tracemalloc.start()
    try:
        result = rkdl_atom_sweep(None, F, B, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * Z.nbytes, peak / Z.nbytes
    assert result is None and not np.array_equal(B, B0) and not np.array_equal(Z, Z0)
    assert Z.T.flags.c_contiguous


def _read_only(M):
    M = M.copy()
    M.flags.writeable = False
    return M


@pytest.mark.parametrize("name", ["A", "Z"])
@pytest.mark.parametrize("make", [lambda M: M.astype(np.int64), lambda M: M.astype(np.float32),
                                  _read_only], ids=["int64", "float32", "read-only"])
def test_sweep_rejects_an_array_it_cannot_update_in_place(name, make):
    # converting it would sweep a copy that the caller never sees
    k_dd, k_yd, A, Z = sweep_inputs(LINEAR, m=4, N=10, n_a=2, n_d=3, sparsity=1, seed=0)
    arrays = {"A": A, "Z": Z}
    arrays[name] = make(arrays[name])
    with pytest.raises(TypeError, match=f"^{name} is swept in place, so it must be a writeable "
                                        "float64 ndarray$"):
        rkdl_atom_sweep(k_dd, k_yd, arrays["A"], arrays["Z"])


def test_train_reaches_the_sweep_through_its_module_binding(monkeypatch):
    # the benchmark's tracer rebinds kernel_dl.rkdl_atom_sweep for its
    # per-layer span, so every trainer must call the sweep through it
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return rkdl_atom_sweep(*args, **kwargs)

    monkeypatch.setattr(kernel_dl, "rkdl_atom_sweep", spy)
    signals, _, _ = synth(10, 60, 8, 3, seed=7)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=2)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=3, grad_steps=1,
                    learning_rate=1e-4, dl_sparsity=3)
    for method, table in METHODS.items():
        calls.clear()
        trainer = getattr(kernel_dl, table.trainer)
        if table.vectors == "signals":
            trainer(Y, spec, cfg)
        else:
            trainer(Y, vectors, spec, cfg)
        assert len(calls) == cfg.iters, method


@pytest.mark.parametrize("m", [30, 5])
def test_chol_ridge_matches_explicit_identity_ridge(m):
    # kdl's factor: m = 5 signals of 20 give a rank-deficient linear Gram,
    # factored at its rank 5, the 15 dependent signals dropped, not ridged;
    # m = 30 a positive definite one, at full rank. The factor is LAPACK's
    # pivoted one of a copy of K in its first r rows and columns and
    # [0; I] past them, in K's buffer, whose strict lower triangle and
    # diagonal (K's own, which the products read) are as they were; the
    # factor's diagonal is kept apart
    Y = np.random.default_rng(m).standard_normal((m, 20))
    K = gram(Y, Y, LINEAR)
    buffer = K.copy()
    stats: dict = {}
    k = kernel_dl.FactoredGram(buffer, stats)
    c_ref, piv, r, _ = scipy.linalg.lapack.dpstrf(K.copy(), lower=1)
    L = np.tril(k.factor, -1)
    assert r == k.rank == min(m, 20) and np.shares_memory(k.factor, buffer)
    np.testing.assert_array_equal(k.pivots, piv - 1)
    np.testing.assert_array_equal(L[:r, :r], np.tril(c_ref, -1)[:r, :r])
    assert not L[r:].any()
    np.testing.assert_array_equal(k.l_diag, np.r_[np.diag(c_ref)[:r], np.ones(20 - r)])
    np.testing.assert_array_equal(np.tril(buffer), np.tril(K))
    assert stats == ({"kdd_rank_drop": 15} if m < 20 else {})


@pytest.mark.parametrize("m", [30, 5])
def test_kernel_map_is_a_factor_of_k_dd_at_its_rank(m):
    # 20 linear vectors of dimension m: full rank at m = 30, rank 5 at m = 5,
    # where the map drops 15 dependent vectors and counts them. T^T K_DD T is
    # the identity, B carries the atoms' Gram, the coefficients T B are the
    # atoms of A, with weight 0 on the dropped vectors, and K_DD is left as
    # it was
    rng = np.random.default_rng(m)
    D = rng.standard_normal((m, 20))
    k_dd, A = gram(D, D, LINEAR), rng.standard_normal((20, 3))
    k_before = k_dd.copy()
    stats: dict = {}
    T, B = kernel_map(k_dd, A, stats)
    r = min(m, 20)
    assert T.shape == (20, r) and B.shape == (r, 3)
    assert stats == ({"kdd_rank_drop": 15} if m < 20 else {})
    assert np.count_nonzero(np.any(T, axis=1)) == r
    scale = np.abs(k_dd).max() * np.abs(A).max() ** 2
    np.testing.assert_allclose(T.T @ k_dd @ T, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(B.T @ B, A.T @ k_dd @ A, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(k_dd @ (T @ B), k_dd @ A, rtol=0, atol=1e-10 * scale)
    np.testing.assert_array_equal(k_dd, k_before)


@pytest.mark.parametrize("block", [3, 512])
@pytest.mark.parametrize("m", [30, 5])
def test_factored_gram_is_the_factor_of_k_and_multiplies_like_k(monkeypatch, block, m):
    # in 3-row blocks the 20 x 20 Gram is built in 7 row blocks and mirrored
    # in 3 x 3 tiles; in 512 in one each. m = 5 gives a singular Gram
    # (rank-deficient linear, or RBF with a duplicated signal), factored at its
    # rank: the factor of K[p][:, p] itself on the pivots, since gram(Y, Y) is
    # bit-symmetric. Products read K's untouched triangle and diagonal, so
    # they are K's own at any rank; the solve gives K x = v on K's range, with
    # x 0 off the pivots
    monkeypatch.setattr(kernels, "GRAM_BLOCK", block)
    for spec in (LINEAR, KernelSpec("rbf", sigma=3.0)):
        rng = np.random.default_rng(m)
        Y = rng.standard_normal((m, 20))
        if m < 20 and spec.family == "rbf":
            Y[:, 7] = Y[:, 3]
        K = gram(Y, Y, spec)
        assert np.array_equal(K, K.T)
        buffer = K.copy()
        stats: dict = {}
        k = kernel_dl.FactoredGram(buffer, stats)
        drop = (15 if spec is LINEAR else 1) if m < 20 else 0
        assert stats == ({"kdd_rank_drop": drop} if drop else {})
        r = 20 - drop
        q = k.pivots[:r]
        L_ref = scipy.linalg.lapack.dpstrf(K.copy(), lower=1)[0]
        assert np.shares_memory(k.factor, buffer)
        np.testing.assert_array_equal(np.tril(k.factor, -1)[:r], np.tril(L_ref, -1)[:r])
        np.testing.assert_array_equal(k.l_diag[:r], np.diag(L_ref)[:r])
        Z = rng.standard_normal((4, 20))
        for x in (rng.standard_normal(20), rng.standard_normal((20, 3)), Z.T):
            tol = 1e-13 * np.linalg.norm(K) * np.linalg.norm(x)
            assert np.linalg.norm(k @ x - K @ x) <= tol
        v = K @ rng.standard_normal(20)
        x = k.solve(v)
        assert np.count_nonzero(x) == r and not np.delete(x, q).any()
        np.testing.assert_allclose(K[np.ix_(q, q)] @ x[q], v[q], rtol=0,
                                   atol=1e-10 * np.linalg.norm(v))


# -------------------------------------------------------------------- trainers

def pretrained(Y, n_atoms, sparsity, seed):
    return aksvd_train(Y, DLConfig(n_atoms=n_atoms, sparsity=sparsity, iters=5, seed=seed))[0]


def reference_explicit_linear_kdl(Y, n_atoms, sparsity, iters, seed):
    """Independent explicit-space analogue of linear-kernel KDL.

    Works on the materialized dictionary B = Y A: OMP coding, AK-SVD-style
    restricted atom sweep, plain Frobenius errors. Per-iteration errors must
    match kdl_train's under the linear kernel.
    """
    m, N = Y.shape
    rng = np.random.default_rng(seed)
    norms_sq = np.einsum("ij,ij->j", Y, Y)
    chosen = rng.choice(np.flatnonzero(norms_sq > 1e-12), size=n_atoms, replace=False)
    B = Y[:, chosen] / np.sqrt(norms_sq[chosen])
    errors = [np.linalg.norm(Y) / np.sqrt(m * N)]
    for _ in range(iters):
        Z = omp_batch(B, Y, sparsity).matrix
        for j in range(n_atoms):
            used = np.flatnonzero(Z[j])
            if used.size == 0:
                continue
            z = Z[j, used]
            E = Y[:, used] - B @ Z[:, used] + np.outer(B[:, j], z)
            b = E @ z
            b /= np.linalg.norm(b)
            B[:, j] = b
            Z[j, used] = E.T @ b
        errors.append(np.linalg.norm(Y - B @ Z) / np.sqrt(m * N))
    return errors


@pytest.mark.parametrize("data_seed,cfg_seed", [(3, 21), (5, 33)])
def test_kdl_train_matches_explicit_linear_reference(data_seed, cfg_seed):
    # instances chosen free of greedy-selection near-ties, where the two
    # arithmetic paths must agree to rounding
    rng = np.random.default_rng(data_seed)
    Y = rng.standard_normal((8, 100))
    cfg = KdlConfig(n_atoms=6, sparsity=3, iters=5, seed=cfg_seed)
    _, _, trace = kdl_train(Y, LINEAR, cfg)
    reference = reference_explicit_linear_kdl(Y, 6, 3, 5, seed=cfg_seed)
    np.testing.assert_allclose(trace.errors, reference, atol=1e-9)


def test_kdl_train_zero_iters_single_error_entry():
    rng = np.random.default_rng(10)
    Y = rng.standard_normal((6, 40))
    _, _, trace = kdl_train(Y, KernelSpec("rbf", sigma=1.0), KdlConfig(4, 2, 0, seed=0))
    assert trace.errors == [pytest.approx(1.0 / np.sqrt(6), abs=1e-12)]


def test_kdl_train_gram_cap(monkeypatch):
    monkeypatch.setattr(kernel_dl, "MAX_GRAM_BYTES", 8 * 49**2)
    Y = np.random.default_rng(11).standard_normal((4, 50))
    with pytest.raises(ValueError, match=r"50x50 Gram of 20000 bytes.*MAX_GRAM_BYTES = 19208"):
        kdl_train(Y, LINEAR, KdlConfig(4, 2, 1))


def test_kdl_refuses_an_oversized_gram_before_building_anything(monkeypatch):
    # the default limit admits N = 20000 and refuses N = 20001 before gram is called
    class Built(Exception):
        pass

    def stub(*args, **kwargs):
        raise Built

    monkeypatch.setattr(kernel_dl, "gram", stub)
    rng = np.random.default_rng(12)
    with pytest.raises(Built):
        kdl_train(rng.standard_normal((1, 20000)), LINEAR, KdlConfig(1, 1, 1))
    with pytest.raises(ValueError, match=r"20001x20001 Gram of 3200320008 bytes, over kdl's "
                                         r"MAX_GRAM_BYTES = 3200000000; train a reduced method"):
        kdl_train(rng.standard_normal((1, 20001)), LINEAR, KdlConfig(1, 1, 1))


@pytest.mark.parametrize("spec,m,duplicates", [(KernelSpec("rbf", sigma=3.0), 10, False),
                                               (KernelSpec("rbf", sigma=3.0), 10, True),
                                               (KernelSpec("polynomial", alpha=1.0, beta=2), 10, True),
                                               (LINEAR, 8, True)])
def test_kdl_factored_gram_matches_the_two_array_reference(spec, m, duplicates):
    # the factor written over K, and products through it, against the loop on
    # K plus a pivoted factor formed apart, which reads the full square K.
    # Duplicate signals (1 = 0, 7 = 3) give K equal rows, so its factor drops
    # them; the linear K of 8-dimensional signals and the quadratic one of
    # 10-dimensional signals (66 features) are rank-deficient besides. The
    # coefficients agree on K's null space as well, since both solves give the
    # dropped signals no weight
    Y = np.random.default_rng(4).standard_normal((m, 120))
    if duplicates:
        Y[:, 1], Y[:, 7] = Y[:, 0], Y[:, 3]
    cfg = KdlConfig(n_atoms=6, sparsity=3, iters=5, seed=2)
    kdict, code, trace = kdl_train(Y, spec, cfg)
    A_ref, Z_ref, errors_ref, stats_ref = kdl_train_two_arrays(Y, spec, cfg)
    np.testing.assert_allclose(trace.errors, errors_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(kdict.coefficients, A_ref, rtol=0, atol=1e-11 * np.abs(A_ref).max())
    np.testing.assert_array_equal(code.matrix != 0, Z_ref != 0)
    assert trace.warnings == stats_ref
    assert ("kdd_rank_drop" in trace.warnings) == duplicates
    K = gram(Y, Y, spec)
    A = kdict.coefficients
    np.testing.assert_allclose(np.einsum("ij,ij->j", A, K @ A), 1.0, rtol=0, atol=1e-8)


@pytest.mark.parametrize("spec,m", [(KernelSpec("rbf", sigma=4.0), 30), (LINEAR, 10),
                                    (KernelSpec("polynomial", alpha=1.0, beta=2), 50)])
def test_kdl_peak_allocation_is_one_n_by_n_array(spec, m):
    # gram builds K in the buffer of its product, K is factored in that buffer,
    # every product reads the factor and the finiteness check copies nothing,
    # so a run allocates one N x N array and N x n_a products; the
    # rank-deficient linear Gram is factored at its rank, m
    N = 1000
    Y = np.random.default_rng(m).standard_normal((m, N))
    cfg = KdlConfig(n_atoms=10, sparsity=3, iters=2, seed=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        trace = kdl_train(Y, spec, cfg)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.warnings.get("kdd_rank_drop", 0) == (N - m if spec is LINEAR else 0)
    assert peak <= 1.25 * 8 * N**2


def test_trainer_peaks_hold_no_dead_signal_sized_product():
    # N = 2000 signals, n_d = 50 vectors or linear atoms, n_a = 20 kernel
    # atoms; the peaks count N x n_d arrays. Each product is dropped after
    # its last reader: the last AK-SVD code while the next one forms, OMP's
    # F-ordered product once the coder copies it, the mixed method's linear
    # code after its penalty products, the old Grams and Y^T D while grams
    # forms the next ones, and the gradient products after the steps
    signals, _, _ = synth(64, 2000, 30, 4, 5, 0.05, 1.0, 3.0)
    Y = signals.values
    vectors = pretrained(Y, 50, 4, seed=0)
    spec = KernelSpec("rbf", sigma=4.0, denom_factor=1.0)
    cfg = KdlConfig(n_atoms=20, sparsity=4, iters=3, seed=0, dl_sparsity=4)
    runs = {"aksvd": (lambda: aksvd_train(Y, DLConfig(50, 4, 3, seed=0)), 4.5),
            "orkdl-d": (lambda: orkdl_train(Y, vectors, spec, cfg), 4.5),
            "morkdl-d": (lambda: morkdl_train(Y, vectors, spec, cfg), 7.5)}
    for name, (run, bound) in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * 2000 * 50, (name, peak / (8 * 2000 * 50))


def test_rkdl_reduction_identity():
    # with D = Y the reduced trainer must reproduce the full trainer
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((8, 80))
    cfg = KdlConfig(n_atoms=5, sparsity=3, iters=5, seed=33)
    _, _, full = kdl_train(Y, LINEAR, cfg)
    _, _, reduced = rkdl_train(Y, Dictionary(atoms=Y.copy()), LINEAR, cfg)
    np.testing.assert_allclose(full.errors, reduced.errors, atol=1e-9)


ILL_CONDITIONED_SPEC = KernelSpec("polynomial", alpha=0.5, beta=3)


def ill_conditioned_draw(seed):
    """Four one-dimensional vectors D under a cubic kernel, N signals Y and a
    config: cond(K_DD) reaches 1e8-1e12 on the seeds below."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 30))
    D = rng.standard_normal((1, 4))
    Y = rng.standard_normal((1, N))
    n_a = int(rng.integers(1, 5))
    return Y, D, KdlConfig(n_a, int(rng.integers(1, n_a + 1)), 3, seed=1)


@pytest.mark.parametrize("seed", [92, 576, 775, 1016, 1215, 1469])
def test_reduced_trainers_code_their_own_atoms_on_an_ill_conditioned_k_dd(seed):
    # cond(K_DD) from 1.5e8 to 6.8e11. The coder reads the atoms' Gram as B^T B
    # in the kernel map, unit by construction; formed as A^T K_DD A from A it
    # lost that to round-off and refused the trainer's own atoms ("not
    # Gram-normalized"), and orkdl-d's refreshed K_DD exhausted the ridge
    # schedule. orkdl-d steps at the feature oracle's rate: the default fixed
    # step diverges from such a K_DD (a non-finite Gram after the first step)
    Y, D, cfg = ill_conditioned_draw(seed)
    spec = ILL_CONDITIONED_SPEC
    for train, c in ((rkdl_train, cfg), (orkdl_train, dataclasses.replace(cfg, learning_rate=1e-6))):
        trace = train(Y, Dictionary(D), spec, c)[2]
        assert len(trace.errors) == 4 and np.all(np.isfinite(trace.errors)), train


@pytest.mark.parametrize("seed", [75, 92, 576, 775, 1016, 1469, 1841, 2119, 2438])
def test_encode_codes_reduced_models_of_an_ill_conditioned_k_dd(tmp_path, seed):
    # cond(K_DD) from 6.3e9 to 6.8e11: the saved A = T B carries eps cond(K_DD),
    # so a^T K_DD a is off 1 by 1.8e-8 to 3.4e-6, past 1e-8 but within the
    # round-off of the form, which kernel OMP allows. encode and `rkdl code`
    # once refused each of these models; an A scaled by 2 is still refused
    Y, D, cfg = ill_conditioned_draw(seed)
    kdict = rkdl_train(Y, Dictionary(D), ILL_CONDITIONED_SPEC, cfg)[0]
    code = encode(kdict, Y, cfg.sparsity)
    assert np.all(np.isfinite(code.residual_sq)) and code.residual_sq.min() > -1e-9
    model, signals, out = (str(tmp_path / name) for name in ("m.json", "y.csv", "c.csv"))
    save_model(model, kdict, "rkdl-d", dataclasses.asdict(cfg))
    save_csv(Y, signals)
    assert cli_main(["code", "--model", model, "--input", signals, "--output", out]) == 0
    assert same_bits(load_csv(out).values, code.matrix.T)
    doubled = dataclasses.replace(kdict, coefficients=2.0 * kdict.coefficients)
    with pytest.raises(ValueError, match="kernel atom 0 is not Gram-normalized"):
        encode(doubled, Y, cfg.sparsity)


@pytest.mark.parametrize("spec", [KernelSpec("rbf", sigma=2.0), LINEAR,
                                  KernelSpec("polynomial", alpha=1.0, beta=2)],
                         ids=["rbf", "linear", "polynomial"])
def test_kernel_map_drops_a_duplicated_vector(spec):
    # vector 4 repeats vector 1, so K_DD has rank 5 of 6: the map drops one
    # of the twins and counts it, its coefficient row is exactly 0, and the
    # trace is still the error formed from the Grams of the returned model
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((10, 60))
    D = rng.standard_normal((10, 6))
    D[:, 4] = D[:, 1]
    kdict, code, trace = rkdl_train(Y, Dictionary(D), spec, KdlConfig(3, 2, 4, seed=0))
    A, D = kdict.coefficients, kdict.vectors.atoms
    assert trace.warnings["kdd_rank_drop"] == 1
    assert not A[1].any() or not A[4].any()
    expected = trace_error_from_grams(float(self_kernel_diag(Y, spec).sum()), gram(Y, D, spec),
                                      gram(D, D, spec), A, code.matrix, *Y.shape)
    assert trace.errors[-1] == pytest.approx(expected, rel=1e-12, abs=0)


def test_trace_has_iters_plus_one_entries():
    signals, _, _ = synth(10, 120, 8, 3, seed=14)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=1)
    spec = KernelSpec("rbf", sigma=2.0)
    _, _, trace = rkdl_train(Y, vectors, spec, KdlConfig(4, 2, 6, seed=2))
    assert len(trace.errors) == 7
    assert all(np.isfinite(trace.errors))


@pytest.mark.parametrize("method", list(METHODS))
def test_elapsed_seconds_align_with_errors(method):
    # one entry per error, from the run's start: rising, within the total
    signals, _, _ = synth(10, 120, 8, 3, seed=14)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=1)
    cfg = KdlConfig(4, 2, 3, seed=2, dl_sparsity=3)
    train = getattr(kernel_dl, METHODS[method].trainer)
    args = (Y, KernelSpec("rbf", sigma=2.0), cfg) if method == "kdl" else (
        Y, vectors, KernelSpec("rbf", sigma=2.0), cfg)
    trace = train(*args)[2]
    assert len(trace.elapsed_seconds) == len(trace.errors) == 4
    assert 0.0 < trace.elapsed_seconds[0] and np.all(np.diff(trace.elapsed_seconds) > 0.0)
    assert trace.elapsed_seconds[-1] <= trace.total_seconds


def test_orkdl_zero_rate_identical_to_rkdl():
    signals, _, _ = synth(12, 150, 10, 3, seed=2)
    Y = signals.values
    vectors = pretrained(Y, 10, 3, seed=1)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=5, sparsity=2, iters=4, seed=9, grad_steps=3, learning_rate=0.0)
    _, _, base = rkdl_train(Y, vectors, spec, cfg)
    _, _, opt = orkdl_train(Y, vectors, spec, cfg)
    assert base.errors == opt.errors


def test_orkdl_gradient_phase_decreases_objective_at_small_rate():
    # spec-scale instance: the gradient rounds must not increase the
    # objective for a small enough learning rate
    signals, _, _ = synth(8, 200, 12, 3, seed=4)
    Y = signals.values
    vectors = pretrained(Y, 10, 3, seed=3)
    spec = KernelSpec("rbf", sigma=2.0)
    gamma = 1e-5
    D = vectors.atoms.copy()
    k_dd = gram(D, D, spec)
    k_yd = gram(Y, D, spec)
    kyy = self_kernel_diag(Y, spec)
    rng = np.random.default_rng(5)
    n_a = 5
    diag = np.diag(k_dd)
    chosen = rng.choice(len(diag), size=n_a, replace=False)
    A = np.zeros((10, n_a))
    A[chosen, np.arange(n_a)] = 1.0 / np.sqrt(diag[chosen])
    for _ in range(3):
        Z = kernel_omp_batch(k_yd, kyy, k_dd, A, 2).matrix
        A, Z = swept(k_dd, k_yd, A, Z)
        before = objective(Y, D, A, Z, spec)
        for _ in range(3):
            G = dictionary_gradient(Y, D, A @ Z, spec, k_yd=k_yd, k_dd=k_dd)
            D = D - gamma * G
            k_dd = gram(D, D, spec)
            k_yd = gram(Y, D, spec)
        after = objective(Y, D, A, Z, spec)
        assert after <= before + 1e-9
        norm_sq = np.einsum("ij,ij->j", A, k_dd @ A)
        scale = np.sqrt(norm_sq)
        A = A / scale
        Z = Z * scale[:, None]


def test_morkdl_zero_penalty_matches_orkdl(monkeypatch):
    # with no penalty the linear code X is never read, so it is never coded,
    # and the first iteration's steps are orkdl-d's; morkdl-d then renormalizes
    calls = []
    monkeypatch.setattr(kernel_dl, "omp_batch",
                        lambda *args, **kwargs: calls.append(1) or omp_batch(*args, **kwargs))
    signals, _, _ = synth(12, 150, 10, 3, seed=2)
    Y = signals.values
    vectors = pretrained(Y, 10, 3, seed=1)
    spec = KernelSpec("rbf", sigma=2.0)
    base_cfg = KdlConfig(n_atoms=5, sparsity=2, iters=4, seed=9, grad_steps=2,
                         learning_rate=1e-5)
    mixed_cfg = KdlConfig(n_atoms=5, sparsity=2, iters=4, seed=9, grad_steps=2,
                          learning_rate=1e-5, penalty=0.0, dl_sparsity=3)
    first = {}

    def keep_first(name):
        return lambda it, D, A, Z, k_dd: first.setdefault(name, D.copy())
    orkdl_train(Y, vectors, spec, base_cfg, callback=keep_first("opt"))
    morkdl_train(Y, vectors, spec, mixed_cfg, callback=keep_first("mix"))
    assert np.array_equal(first["mix"], first["opt"] / np.linalg.norm(first["opt"], axis=0))
    assert calls == []
    morkdl_train(Y, vectors, spec, dataclasses.replace(mixed_cfg, penalty=1.0))
    assert len(calls) == mixed_cfg.iters


def test_morkdl_mixed_gradient_finite_difference():
    # oracle: central differences of the full mixed objective
    rng = np.random.default_rng(15)
    m, N, n_d, n_a = 4, 6, 3, 2
    spec = KernelSpec("rbf", sigma=1.2, denom_factor=1.0)
    lam = 0.8
    Y = rng.standard_normal((m, N))
    D = rng.standard_normal((m, n_d))
    A = rng.standard_normal((n_d, n_a))
    Z = rng.standard_normal((n_a, N))
    X = rng.standard_normal((n_d, N))

    def mixed_objective(Dv):
        lin = Y - Dv @ X
        return objective(Y, Dv, A, Z, spec) + lam * np.sum(lin * lin)

    G = dictionary_gradient(Y, D, A @ Z, spec) - 2.0 * lam * (Y - D @ X) @ X.T
    eps = 1e-6
    fd = np.zeros_like(G)
    for j in range(n_d):
        for i in range(m):
            Dp = D.copy(); Dp[i, j] += eps
            Dm = D.copy(); Dm[i, j] -= eps
            fd[i, j] = (mixed_objective(Dp) - mixed_objective(Dm)) / (2 * eps)
    assert np.linalg.norm(G - fd) <= 1e-5 * np.linalg.norm(fd)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), N=st.integers(1, 40),
       n_d=st.integers(1, 8), data=st.data())
def test_factored_penalty_term_matches_residual_form(seed, m, N, n_d, data):
    rng = np.random.default_rng(seed)
    s = data.draw(st.integers(1, n_d))
    penalty = data.draw(st.floats(0.01, 10.0))
    Y = rng.standard_normal((m, N))
    D = rng.standard_normal((m, n_d))
    X = np.zeros((n_d, N))
    for ell in range(N):
        support = rng.choice(n_d, size=rng.integers(0, s + 1), replace=False)
        X[support, ell] = rng.standard_normal(support.size)
    YXt, XXt = _linear_penalty_products(Y, X)
    factored = -2.0 * penalty * (YXt - D @ XXt)
    reference = -2.0 * penalty * (Y - D @ X) @ X.T
    # relative to the magnitude of the two terms the factored form subtracts
    scale = 2.0 * penalty * (np.linalg.norm(Y @ X.T) + np.linalg.norm(D @ (X @ X.T)))
    assert np.linalg.norm(factored - reference) <= 1e-12 * scale


def test_phase_seconds_book_the_cholesky_factor():
    signals, _, _ = synth(8, 80, 6, 2, seed=3)
    Y = signals.values
    vectors = pretrained(Y, 6, 2, seed=0)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=2, seed=1, grad_steps=1,
                    learning_rate=1e-4, dl_sparsity=2)
    traces = {
        "kdl": kdl_train(Y, spec, cfg)[2],
        "rkdl-d": rkdl_train(Y, vectors, spec, cfg)[2],
        "orkdl-d": orkdl_train(Y, vectors, spec, cfg)[2],
        "morkdl-d": morkdl_train(Y, vectors, spec, cfg)[2],
    }
    for trace in traces.values():
        assert set(trace.phase_seconds) == {"gram_refresh", "coding", "factor", "atom_sweep",
                                            "gradient", "error_eval"}
    assert traces["kdl"].phase_seconds["factor"] > 0


@pytest.mark.parametrize("trainer", [orkdl_train, morkdl_train])
def test_each_iteration_opens_the_atom_sweep_phase_once(monkeypatch, trainer):
    # the atoms' renormalization after the gradient steps is booked as gradient
    opened = []
    real = TrainTrace.timed

    def spy(self, phase):
        opened.append(phase)
        return real(self, phase)

    monkeypatch.setattr(TrainTrace, "timed", spy)
    signals, _, _ = synth(8, 80, 6, 2, seed=3)
    Y = signals.values
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=1, grad_steps=2,
                    learning_rate=1e-4, dl_sparsity=2)
    trainer(Y, pretrained(Y, 6, 2, seed=0), KernelSpec("rbf", sigma=2.0), cfg)
    assert opened.count("atom_sweep") == cfg.iters
    assert opened.count("gradient") == cfg.iters * (1 + cfg.grad_steps + 1)


@pytest.mark.parametrize("iters", [0, 3])
def test_each_sweep_reads_one_factor_of_a_changed_k_dd(monkeypatch, iters):
    # a reduced K_DD is mapped (factored) once at start-up and once after the
    # gradient steps of each iteration changed it, never twice; kdl's K
    # brings its own factor (FactoredGram)
    signals, _, _ = synth(8, 80, 6, 2, seed=3)
    Y = signals.values
    vectors = pretrained(Y, 6, 2, seed=0)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=iters, seed=1, grad_steps=2,
                    learning_rate=1e-4, dl_sparsity=2)
    factors = []
    real = kernel_dl.kernel_map
    monkeypatch.setattr(kernel_dl, "kernel_map", lambda K, *args: factors.append(K) or real(K, *args))
    counts = {}
    for method, train in [("kdl", lambda: kdl_train(Y, spec, cfg)),
                          ("rkdl-d", lambda: rkdl_train(Y, vectors, spec, cfg)),
                          ("orkdl-d", lambda: orkdl_train(Y, vectors, spec, cfg)),
                          ("morkdl-d", lambda: morkdl_train(Y, vectors, spec, cfg))]:
        factors.clear()
        train()
        counts[method] = len(factors)
        assert len({id(K) for K in factors}) == len(factors)    # no Gram is factored twice
    assert counts == {"kdl": 0, "rkdl-d": 1, "orkdl-d": 1 + iters, "morkdl-d": 1 + iters}


def test_morkdl_requires_linear_sparsity():
    signals, _, _ = synth(8, 60, 6, 2, seed=5)
    vectors = pretrained(signals.values, 6, 2, seed=0)
    for dl_sparsity in (None, 7):  # unset, or above the 6 kernel vectors
        with pytest.raises(ValueError, match="dl_sparsity"):
            morkdl_train(signals.values, vectors, KernelSpec("rbf"),
                         KdlConfig(3, 2, 2, seed=0, dl_sparsity=dl_sparsity))


def test_morkdl_counts_linear_ridges_apart_from_kernel_ridges():
    # vector 5 repeats vector 0 and the linear code uses every vector, so each
    # signal's linear OMP ridges once per iteration; one kernel pick never does
    signals, _, _ = synth(10, 40, 8, 3, seed=7)
    Y = signals.values
    D = np.random.default_rng(8).standard_normal((10, 6))
    D[:, 5] = D[:, 0]
    D /= np.linalg.norm(D, axis=0)
    # a vanishing step keeps the twins within the ridge threshold of each other
    cfg = KdlConfig(n_atoms=3, sparsity=1, iters=2, seed=0, grad_steps=1, learning_rate=1e-12,
                    dl_sparsity=6)
    trace = morkdl_train(Y, Dictionary(D), KernelSpec("rbf", sigma=3.0), cfg)[2]
    assert trace.warnings["linear_ridge"] == 2 * 40
    assert "ridge" not in trace.warnings
    # without a step X is not read, so it is not coded and nothing is counted
    fixed = morkdl_train(Y, Dictionary(D), KernelSpec("rbf", sigma=3.0),
                         dataclasses.replace(cfg, grad_steps=0))[2]
    assert "linear_ridge" not in fixed.warnings


def test_morkdl_normalizes_vectors_by_default():
    signals, _, _ = synth(10, 100, 8, 3, seed=6)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=1, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    kdict, _, _ = morkdl_train(Y, vectors, KernelSpec("rbf", sigma=2.0), cfg)
    norms = np.linalg.norm(kdict.vectors.atoms, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_all_trainers_keep_atoms_gram_normalized():
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=2)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=4, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)

    def make_checker(log):
        def cb(it, D, A, Z, k_dd):
            norms = np.einsum("ij,ij->j", A, k_dd @ A)
            log.append(np.max(np.abs(norms - 1.0)))
        return cb

    for train in (lambda cb: kdl_train(Y, spec, cfg, callback=cb),
                  lambda cb: rkdl_train(Y, vectors, spec, cfg, callback=cb),
                  lambda cb: orkdl_train(Y, vectors, spec, cfg, callback=cb),
                  lambda cb: morkdl_train(Y, vectors, spec, cfg, callback=cb)):
        log: list = []
        train(make_checker(log))
        assert log and max(log) < 1e-8


def test_trainers_deterministic():
    signals, _, _ = synth(9, 90, 7, 2, seed=8)
    Y = signals.values
    vectors = pretrained(Y, 7, 2, seed=4)
    spec = KernelSpec("rbf", sigma=1.5)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=5, grad_steps=2,
                    learning_rate=1e-4, penalty=0.5, dl_sparsity=2)
    for train in (lambda: kdl_train(Y, spec, cfg)[2],
                  lambda: rkdl_train(Y, vectors, spec, cfg)[2],
                  lambda: orkdl_train(Y, vectors, spec, cfg)[2],
                  lambda: morkdl_train(Y, vectors, spec, cfg)[2]):
        assert train().errors == train().errors


def test_orkdl_aborts_on_gradient_overflow():
    signals, _, _ = synth(6, 80, 5, 2, seed=1)
    Y = signals.values
    vectors = pretrained(Y, 5, 2, seed=0)
    spec = KernelSpec("polynomial", alpha=1.0, beta=3)
    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=5, seed=0, grad_steps=3, learning_rate=1e6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="learning rate"):
            orkdl_train(Y, vectors, spec, cfg)


def test_initial_gram_overflow_names_the_kernel():
    # signals of norm ~30 against unit-norm vectors: (x.y + 1)^400 overflows
    # in every Gram, (x.y + 1)^150 only in the signals' self-kernels
    Y = 10.0 * np.random.default_rng(0).standard_normal((8, 40))
    vectors = Dictionary(atoms=Y[:, :5] / np.linalg.norm(Y[:, :5], axis=0))
    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=2, seed=0)
    with np.errstate(over="ignore"):
        for beta in (400, 150):
            spec = KernelSpec("polynomial", alpha=1.0, beta=beta)
            with pytest.raises(FloatingPointError, match=f"beta={beta}.*not finite at start-up"):
                rkdl_train(Y, vectors, spec, cfg)
        with pytest.raises(FloatingPointError, match="beta=400.*not finite at start-up"):
            kdl_train(Y, KernelSpec("polynomial", alpha=1.0, beta=400), cfg)


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(["kdl", "rkdl-d K_DD", "rkdl-d K_YD"]),
       position=st.integers(0, 10**6), value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_one_non_finite_gram_entry_names_the_kernel(method, position, value):
    # the check reads min and max, which propagate NaN and +-inf from any entry
    Y = np.random.default_rng(8).standard_normal((5, 30))
    vectors = Dictionary(atoms=Y[:, :6] / np.linalg.norm(Y[:, :6], axis=0))
    spec = KernelSpec("polynomial", alpha=1.0, beta=2)
    calls = []

    def spoiled_gram(X, W, kernel, **kwargs):
        K = gram(X, W, kernel, **kwargs)
        calls.append(K)
        if len(calls) == (2 if method.endswith("K_YD") else 1):
            K.flat[position % K.size] = value
        return K

    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=1, seed=0)
    reason = re.escape(f"kernel matrices for {spec} are not finite at start-up")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_dl, "gram", spoiled_gram)
        with pytest.raises(FloatingPointError, match=reason):
            if method == "kdl":
                kdl_train(Y, spec, cfg)
            else:
                rkdl_train(Y, vectors, spec, cfg)


def test_no_kernel_vectors_is_named_past_the_empty_gram_check():
    # min and max of an empty Gram would raise; the finiteness check passes it
    Y = np.random.default_rng(9).standard_normal((5, 30))
    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=1, seed=0)
    with pytest.raises(ValueError, match="cannot place 3 kernel atoms on 0 vectors"):
        rkdl_train(Y, Dictionary(atoms=np.zeros((5, 0))), LINEAR, cfg)
    with pytest.raises(ValueError, match="cannot place 3 kernel atoms on 0 vectors"):
        kdl_train(np.zeros((5, 0)), LINEAR, cfg)


def test_signal_norms_formed_once_reach_every_gram_and_code(monkeypatch):
    # Y is fixed for a whole run: the trainers hand its squared norms to
    # every cross Gram K_YD and every linear OMP call, and AK-SVD to every
    # OMP call. The spies rebind the module attributes, as the benchmark's
    # tracer does.
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    y_sq = np.einsum("ij,ij->j", Y, Y)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(linear_dl, "omp_batch", spy("aksvd", linear_dl.omp_batch))
    monkeypatch.setattr(kernel_dl, "omp_batch", spy("mixed", kernel_dl.omp_batch))
    monkeypatch.setattr(kernel_dl, "gram", spy("gram", kernel_dl.gram))
    vectors = pretrained(Y, 8, 3, seed=2)
    spec = KernelSpec("rbf", sigma=2.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    for train in (rkdl_train, orkdl_train, morkdl_train):
        train(Y, vectors, spec, cfg)

    cross = [kwargs for name, args, kwargs in calls if name == "gram" and args[0] is Y]
    codes = [kwargs for name, _, kwargs in calls if name != "gram"]
    assert len(cross) == 1 + 7 + 7        # start-up, plus one per gradient step
    assert [name for name, _, _ in calls if name != "gram"] == ["aksvd"] * 5 + ["mixed"] * 3
    for kwargs in cross:
        assert np.array_equal(kwargs["x_sq"], y_sq)
    for kwargs in codes:
        assert np.array_equal(kwargs["norms_sq"], y_sq)


HELD_PRODUCT_SPECS = {"rbf": KernelSpec("rbf", sigma=2.0),
                      "polynomial": KernelSpec("polynomial", alpha=1.0, beta=2), "linear": LINEAR}


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", HELD_PRODUCT_SPECS.values(), ids=HELD_PRODUCT_SPECS)
@pytest.mark.parametrize("method", ["orkdl-d", "morkdl-d"])
def test_held_products_equal_fresh_ones_at_every_use(monkeypatch, method, spec):
    # the trainers hand each gradient step the iteration's W = A Z (the loop's
    # own A, written in place, and its swept code) and W W^T, and the current
    # D's Y^T D to the steps and codings that read it (the polynomial gradient,
    # the mixed coding); every such call returns what it returns when it forms
    # them itself, bit for bit
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=2)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    real_gradient, real_omp = kernel_dl.dictionary_gradient, kernel_dl.omp_batch
    real_init, real_komp = kernel_dl._init_coefficients, kernel_dl.kernel_omp_batch
    uses, held_yd, loop = [], [], {}

    def init(*args):
        loop["A"] = real_init(*args)
        return loop["A"]

    def kernel_coder(*args):
        code = real_komp(*args)
        loop["Z"] = code.matrix
        return code

    def gradient(Y_, D, W, kernel, **kwargs):
        assert same_bits(W, loop["A"] @ loop["Z"])
        assert same_bits(kwargs["WWt"], W @ W.T)
        held_yd.append(kwargs["yd"] is not None)
        if kwargs["yd"] is not None:
            assert same_bits(kwargs["yd"], inner_products(Y_, D))
        own = {k: v for k, v in kwargs.items() if k not in ("yd", "WWt")}
        expected = real_gradient(Y_, D, W, kernel, **own)
        got = real_gradient(Y_, D, W, kernel, **kwargs)
        assert same_bits(got, expected)
        uses.append("gradient")
        return got

    def coder(D, Y_, sparsity, **kwargs):
        assert same_bits(kwargs["yd"], inner_products(Y_, D))
        own_stats, held_stats = {}, {}
        expected = real_omp(D, Y_, sparsity, **{**kwargs, "yd": None, "stats": own_stats})
        got = real_omp(D, Y_, sparsity, **{**kwargs, "stats": held_stats})
        assert same_bits(got.matrix, expected.matrix)
        assert same_bits(got.residual_sq, expected.residual_sq)
        assert held_stats == own_stats
        for key, count in held_stats.items():
            kwargs["stats"][key] = kwargs["stats"].get(key, 0) + count
        uses.append("coding")
        return got

    monkeypatch.setattr(kernel_dl, "_init_coefficients", init)
    monkeypatch.setattr(kernel_dl, "kernel_omp_batch", kernel_coder)
    monkeypatch.setattr(kernel_dl, "dictionary_gradient", gradient)
    monkeypatch.setattr(kernel_dl, "omp_batch", coder)
    run_trainer(method, Y, vectors, spec, cfg)
    steps = cfg.iters * cfg.grad_steps
    assert uses.count("gradient") == steps
    assert uses.count("coding") == (cfg.iters if method == "morkdl-d" else 0)
    assert set(held_yd) == {spec.family == "polynomial" or method == "morkdl-d"}


@pytest.mark.parametrize("spec", HELD_PRODUCT_SPECS.values(), ids=HELD_PRODUCT_SPECS)
def test_each_kernel_vector_set_gets_one_signal_product(monkeypatch, spec):
    # one Y^T D at start-up and one per gradient step, read by the cross
    # Gram, the polynomial gradient and the mixed coding alike; the gradient
    # steps of one iteration share its W = A Z and W W^T
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    vectors = pretrained(Y, 8, 3, seed=2)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    products, held = [], []
    real_products, real_gradient = kernels.inner_products, kernel_dl.dictionary_gradient

    def spy(X, V):
        if X.shape == Y.shape and V.shape == vectors.atoms.shape:
            products.append(1)
        return real_products(X, V)

    for module in (kernels, kernel_dl, sparse_coding):
        monkeypatch.setattr(module, "inner_products", spy)
    monkeypatch.setattr(kernel_dl, "dictionary_gradient",
                        lambda *args, **kwargs: held.append((args[2], kwargs["WWt"]))
                        or real_gradient(*args, **kwargs))
    for method in ("rkdl-d", "orkdl-d", "morkdl-d"):
        products.clear()
        held.clear()
        run_trainer(method, Y, vectors, spec, cfg)
        steps = cfg.iters * cfg.grad_steps if METHODS[method].update else 0
        assert len(products) == 1 + steps, method
        assert len(held) == steps
        firsts = held[::cfg.grad_steps]
        for it, (W, WWt) in enumerate(firsts):
            for W_step, WWt_step in held[it * cfg.grad_steps:(it + 1) * cfg.grad_steps]:
                assert W_step is W and WWt_step is WWt
        assert len({id(W) for W, _ in firsts}) == len(firsts)


@pytest.mark.parametrize("spec", [KernelSpec("rbf", sigma=2.0),
                                  KernelSpec("polynomial", alpha=1.0, beta=2), LINEAR])
def test_trace_matches_the_gram_oracle_from_one_product_step_per_iteration(monkeypatch, spec):
    # every trace entry equals the error formed from the Grams on the spot, to
    # round-off (the trace sums each signal's residual, and a reduced trainer
    # reads its atoms' Gram as B^T B in the kernel map), while each run forms
    # its atom products once at start-up and once per iteration, through the
    # module binding; kdl forms them from K_YD = K_DD itself
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    m, N = Y.shape
    y_sq = np.einsum("ij,ij->j", Y, Y)
    kyy_sum = float(self_kernel_diag(Y, spec).sum())
    vectors = pretrained(Y, 8, 3, seed=2)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    atom_products = kernel_dl._atom_products
    shared = []

    def spy(k_yd, k_dd, A):
        shared.append(k_yd is k_dd)
        return atom_products(k_yd, k_dd, A)

    monkeypatch.setattr(kernel_dl, "_atom_products", spy)
    # entry 0 is the empty code's error, taken over no atoms
    empty = trace_error_from_grams(kyy_sum, np.zeros((N, 0)), np.zeros((0, 0)), np.zeros((0, 0)),
                                   np.zeros((0, N)), m, N)
    for method, table in METHODS.items():
        shared.clear()
        expected = [empty]

        def oracle(it, D, A, Z, k_dd):
            k_yd = k_dd if D is Y else gram(Y, D, spec, x_sq=y_sq)
            expected.append(trace_error_from_grams(kyy_sum, k_yd, k_dd, A, Z, m, N))

        trace = run_trainer(method, Y, vectors, spec, cfg, callback=oracle)[2]
        np.testing.assert_allclose(trace.errors, expected, rtol=1e-12, atol=0, err_msg=method)
        assert shared == [table.vectors == "signals"] * (cfg.iters + 1), method


def test_method_table_matches_trainers(monkeypatch):
    # each method's trainer runs the loop on the table's vector source and
    # under the table's update rule
    seen = {}

    def fake_train(Y, vectors, kernel, cfg, *, update, callback=None):
        seen["source"] = "signals" if vectors.atoms is Y else "pretrained"
        seen["update"] = update
        return None, None, None

    monkeypatch.setattr(kernel_dl, "_train", fake_train)
    Y = np.random.default_rng(0).standard_normal((4, 12))
    vectors = Dictionary(atoms=Y[:, :3] / np.linalg.norm(Y[:, :3], axis=0))
    cfg = KdlConfig(n_atoms=2, sparsity=1, iters=1, dl_sparsity=1)
    for method, spec in METHODS.items():
        trainer = getattr(kernel_dl, spec.trainer)
        if spec.vectors == "signals":
            trainer(Y, LINEAR, cfg)
        else:
            trainer(Y, vectors, LINEAR, cfg)
        assert seen == {"source": spec.vectors, "update": spec.update}, method


def run_trainer(method, Y, vectors, spec, cfg, **kwargs):
    """The method's trainer, looked up through the table, on its vector source."""
    table = METHODS[method]
    trainer = getattr(kernel_dl, table.trainer)
    args = (Y, spec, cfg) if table.vectors == "signals" else (Y, vectors, spec, cfg)
    return trainer(*args, **kwargs)


@pytest.mark.parametrize("method", METHODS)
def test_every_trainer_returns_dictionary_code_and_trace(method):
    signals, _, _ = synth(8, 60, 6, 2, seed=5)
    Y = signals.values
    vectors = pretrained(Y, 6, 2, seed=0)
    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=2, seed=0, grad_steps=1,
                    learning_rate=1e-4, dl_sparsity=2)
    result = run_trainer(method, Y, vectors, KernelSpec("rbf", sigma=2.0), cfg)
    assert type(result) is tuple and len(result) == 3
    kdict, code, trace = result
    assert isinstance(kdict, KernelDictionary) and kdict.n_atoms == 3
    assert isinstance(code, SparseCode) and code.matrix.shape == (3, 60)
    assert isinstance(trace, TrainTrace) and len(trace.errors) == 3


@pytest.mark.parametrize("method", METHODS)
def test_each_gradient_step_refreshes_the_grams_once(monkeypatch, method):
    # counts of kernel_dl.gram calls between callbacks: start-up (K_DD, plus
    # K_YD unless D is Y) and then K_DD and K_YD after each gradient step
    signals, _, _ = synth(8, 60, 6, 2, seed=5)
    Y = signals.values
    vectors = pretrained(Y, 6, 2, seed=0)
    cfg = KdlConfig(n_atoms=3, sparsity=2, iters=3, seed=0, grad_steps=2,
                    learning_rate=1e-4, dl_sparsity=2)
    counts = [0]
    real_gram = kernel_dl.gram

    def spy(*args, **kwargs):
        counts[-1] += 1
        return real_gram(*args, **kwargs)

    monkeypatch.setattr(kernel_dl, "gram", spy)
    run_trainer(method, Y, vectors, KernelSpec("rbf", sigma=2.0), cfg,
                callback=lambda *_: counts.append(0))
    start_up = 1 if METHODS[method].vectors == "signals" else 2
    per_iter = 2 * cfg.grad_steps if METHODS[method].update else 0
    assert counts == [start_up + per_iter] + [per_iter] * (cfg.iters - 1) + [0]


def test_kdl_config_validation():
    with pytest.raises(ValueError):
        KdlConfig(n_atoms=3, sparsity=4, iters=1)
    with pytest.raises(ValueError):
        KdlConfig(n_atoms=3, sparsity=2, iters=-1)
    with pytest.raises(ValueError):
        KdlConfig(n_atoms=3, sparsity=2, iters=1, learning_rate=-1.0)
    for name in ("learning_rate", "penalty"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and at least 0"):
                KdlConfig(n_atoms=3, sparsity=2, iters=1, **{name: value})
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        KdlConfig(n_atoms=3, sparsity=2, iters=1, seed=-1)


# --------------------------------------------------------------------- encoder

@functools.lru_cache(maxsize=None)
def trained_model(method, kernel):
    """A model of ``method`` on the ``HELD_PRODUCT_SPECS`` kernel, 4 atoms over
    10-dimensional signals."""
    signals, _, _ = synth(10, 120, 8, 3, seed=7)
    Y = signals.values
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=2, seed=3, grad_steps=2,
                    learning_rate=1e-4, penalty=1.0, dl_sparsity=3)
    return run_trainer(method, Y, pretrained(Y, 8, 3, seed=2), HELD_PRODUCT_SPECS[kernel], cfg)[0]


@st.composite
def new_signals(draw):
    """Fresh 10-dimensional signals, some of them zero and some duplicated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    Y = draw(st.sampled_from([0.3, 1.0, 3.0])) * rng.standard_normal((10, n))
    Y[:, draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        Y[:, j] = Y[:, i]
    return Y


@settings(max_examples=120)
@given(method=st.sampled_from(["rkdl-d", "morkdl-d", "kdl"]),
       kernel=st.sampled_from(list(HELD_PRODUCT_SPECS)), full=st.booleans(), Y=new_signals())
def test_encode_equals_the_four_call_sequence(method, kernel, full, Y):
    # codes and residuals bit for bit those of kernel OMP on the model's Grams;
    # the residuals give the code's error without a further product
    kdict = trained_model(method, kernel)
    D, spec = kdict.vectors.atoms, kdict.kernel
    sparsity = kdict.n_atoms if full else 1
    ref_stats, stats = {}, {}
    ref = kernel_omp_batch(gram(Y, D, spec), self_kernel_diag(Y, spec), gram(D, D, spec),
                           kdict.coefficients, sparsity, ref_stats)
    code = encode(kdict, Y, sparsity, stats)
    assert same_bits(code.matrix, ref.matrix) and same_bits(code.residual_sq, ref.residual_sq)
    assert stats == ref_stats
    if "ridge" not in stats:
        err = linear_dl.residual_error(code.residual_sq.sum(), Y.size)
        assert err == pytest.approx(error_metric(Y, kdict, code), rel=1e-12, abs=0.0)


def test_encode_overflow_names_the_kernel():
    # (x.y + 3)^3 of signals scaled by 1e110 overflows; encode's Gram check
    # names the kernel before kernel OMP, which rejects non-finite inputs too
    signals, _, _ = synth(16, 200, 12, 3, seed=1, coeff_low=1.0, coeff_high=3.0)
    Y = signals.values
    spec = KernelSpec("polynomial", alpha=1.0, beta=3)
    kdict = rkdl_train(Y, pretrained(Y, 12, 3, seed=0), spec, KdlConfig(8, 3, 3, seed=0))[0]
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match=r"beta=3.*not finite.*rescale the signals"):
            encode(kdict, 1e110 * Y[:, :5], 3)
        with pytest.raises(FloatingPointError, match=r"beta=3.*not finite.*rescale the signals"):
            error_metric(1e110 * Y[:, :5], kdict, np.zeros((8, 5)))


def test_encode_names_both_dimensions():
    kdict = trained_model("rkdl-d", "rbf")
    with pytest.raises(ValueError, match="signals have dimension 9, the model's vectors 10"):
        encode(kdict, np.ones((9, 3)), 1)


def test_exhausted_ridge_schedule_raises_at_both_factor_sites():
    # an eigenvalue of -1, which no ridge up to 1e-2 would lift, stops neither
    # factor site: both factor the positive part, rank 2, and count the vector
    # left past it as dropped. kdl's solve gives it weight 0 while its products
    # stay K's own; the map gives it weight 0 in every atom it maps back
    K = np.diag([-1.0, 1.0, 2.0])
    stats: dict = {}
    k = kernel_dl.FactoredGram(K.copy(), stats)
    assert stats == {"kdd_rank_drop": 1}
    np.testing.assert_allclose(k.solve(np.array([5.0, 1.0, 4.0])), [0.0, 1.0, 2.0],
                               rtol=1e-15, atol=0)
    np.testing.assert_array_equal(k @ np.eye(3), K)
    stats = {}
    T, B = kernel_map(K, np.eye(3), stats)
    assert stats == {"kdd_rank_drop": 1} and T.shape == (3, 2) and not T[0].any()
