import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import aksvd_sweep_residual, swept
from rkdl import linear_dl
from rkdl.datasets import synth
from rkdl.kernel_dl import kernel_map
from rkdl.kernels import KernelSpec, gram
from rkdl.linear_dl import (Dictionary, DLConfig, _aksvd_sweep, aksvd_train, atom_sweep,
                            init_dictionary, residual_error)
from rkdl.sparse_coding import kernel_omp_batch, omp_batch


def frobenius_error(Y, D, X):
    return np.linalg.norm(Y - D @ X) / np.sqrt(Y.size)


def test_planted_dictionary_recovery():
    # noise-free planted model; seed pair verified to converge
    signals, _, _ = synth(16, 200, 8, 2, seed=7)
    Y = signals.values
    dictionary, code = aksvd_train(Y, DLConfig(n_atoms=8, sparsity=2, iters=30, seed=2))
    assert frobenius_error(Y, dictionary.atoms, code.matrix) < 1e-6


def test_rank_one_exact_recovery():
    rng = np.random.default_rng(0)
    d = rng.standard_normal(10)
    d /= np.linalg.norm(d)
    z = rng.standard_normal(50)
    Y = np.outer(d, z)
    dictionary, code = aksvd_train(Y, DLConfig(n_atoms=1, sparsity=1, iters=3, seed=0))
    assert frobenius_error(Y, dictionary.atoms, code.matrix) < 1e-10


def test_zero_iterations_returns_initialization():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((8, 60))
    init = init_dictionary(Y, 5, seed=3)
    dictionary, code = aksvd_train(Y, DLConfig(n_atoms=5, sparsity=2, iters=0, seed=3), D_init=init)
    np.testing.assert_array_equal(dictionary.atoms, init.atoms)
    expected = omp_batch(init.atoms, Y, 2)
    np.testing.assert_array_equal(code.matrix, expected.matrix)


@pytest.mark.parametrize("data_seed,dl_seed,noise", [(5, 4, 0.0), (7, 2, 0.01), (3, 1, 0.01)])
def test_objective_nonincreasing_and_atoms_unit_norm(data_seed, dl_seed, noise):
    signals, _, _ = synth(12, 150, 10, 3, seed=data_seed, noise_sigma=noise)
    Y = signals.values
    errors = []

    def cb(it, D, X):
        errors.append(np.linalg.norm(Y - D @ X))
        assert np.max(np.abs(np.linalg.norm(D, axis=0) - 1.0)) < 1e-10

    aksvd_train(Y, DLConfig(n_atoms=10, sparsity=3, iters=15, seed=dl_seed), callback=cb)
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-9)


def test_sweep_step_never_increases_error_even_on_noisy_data():
    # one aksvd iteration = OMP coding + atom sweep; comparing the error of
    # the fresh coding against the post-sweep error isolates the sweep, which
    # is monotone regardless of the data (unlike greedy re-coding)
    signals, _, _ = synth(12, 150, 10, 3, seed=5, noise_sigma=0.05)
    Y = signals.values
    D_cur = aksvd_train(Y, DLConfig(n_atoms=10, sparsity=3, iters=0, seed=4))[0].atoms
    for _ in range(8):
        X = omp_batch(D_cur, Y, 3).matrix
        before = np.linalg.norm(Y - D_cur @ X)
        d2, c2 = aksvd_train(Y, DLConfig(n_atoms=10, sparsity=3, iters=1, seed=4),
                             D_init=Dictionary(atoms=D_cur.copy()))
        after = np.linalg.norm(Y - d2.atoms @ c2.matrix)
        assert after <= before + 1e-9
        D_cur = d2.atoms


def test_training_is_deterministic():
    signals, _, _ = synth(10, 100, 6, 2, seed=8)
    Y = signals.values
    cfg = DLConfig(n_atoms=6, sparsity=2, iters=5, seed=11)
    d1, c1 = aksvd_train(Y, cfg)
    d2, c2 = aksvd_train(Y, cfg)
    np.testing.assert_array_equal(d1.atoms, d2.atoms)
    np.testing.assert_array_equal(c1.matrix, c2.matrix)


def test_init_dictionary_full_sample_is_permutation():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((6, 8))
    d = init_dictionary(Y, 8, seed=0)
    normalized = Y / np.linalg.norm(Y, axis=0)
    # every atom is some normalized data column, and all columns are used:
    # each column matches exactly one atom
    close = np.linalg.norm(normalized[:, :, None] - d.atoms[:, None, :], axis=0) < 1e-12
    assert np.all(close.sum(axis=1) == 1)
    assert np.all(close.sum(axis=0) == 1)


def test_init_dictionary_deterministic():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((5, 30))
    a = init_dictionary(Y, 7, seed=9)
    b = init_dictionary(Y, 7, seed=9)
    np.testing.assert_array_equal(a.atoms, b.atoms)


def test_init_dictionary_flags_duplicates():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((5, 4))
    Y = np.concatenate([Y, Y], axis=1)  # every column duplicated
    d = init_dictionary(Y, 8, seed=1)
    # drawing every column is allowed, and gives each atom twice
    normalized = Y[:, :4] / np.linalg.norm(Y[:, :4], axis=0)
    close = np.linalg.norm(normalized[:, :, None] - d.atoms[:, None, :], axis=0) < 1e-12
    assert np.all(close.sum(axis=1) == 2)
    assert np.all(close.sum(axis=0) == 1)


def test_init_dictionary_too_few_signals():
    with pytest.raises(ValueError):
        init_dictionary(np.ones((4, 3)), 5, seed=0)
    with pytest.raises(ValueError, match="^not enough nonzero signals to initialize the dictionary$"):
        init_dictionary(np.c_[np.ones((4, 2)), np.zeros((4, 4))], 3, seed=0)


def test_aksvd_rejects_degenerate_input():
    with pytest.raises(ValueError):
        aksvd_train(np.zeros((4, 20)), DLConfig(n_atoms=3, sparsity=1, iters=2, seed=0))
    # fewer nonzero signals than atoms: a sweep would run out of re-seeds
    rng = np.random.default_rng(0)
    Y = np.zeros((6, 10))
    Y[:, [3, 7]] = rng.standard_normal((6, 2))
    D = rng.standard_normal((6, 5))
    with pytest.raises(ValueError, match="5 nonzero signals, got 2"):
        aksvd_train(Y, DLConfig(5, 1, 2), D_init=Dictionary(atoms=D / np.linalg.norm(D, axis=0)))
    # an initial dictionary of another atom count than the config's
    D = rng.standard_normal((6, 12))
    with pytest.raises(ValueError, match="D_init has 12 atoms but the config asks for n_atoms = 5"):
        aksvd_train(rng.standard_normal((6, 40)), DLConfig(5, 2, 3),
                    D_init=Dictionary(atoms=D / np.linalg.norm(D, axis=0)))
    # more atoms per signal than the signals have dimensions
    with pytest.raises(ValueError, match="^sparsity cannot exceed the signal dimension$"):
        aksvd_train(rng.standard_normal((6, 40)), DLConfig(8, 7, 3))


def test_dictionary_validate():
    atoms = np.eye(3)
    Dictionary(atoms=atoms).validate()
    with pytest.raises(ValueError):
        Dictionary(atoms=2.0 * atoms).validate()


def test_dlconfig_validation():
    with pytest.raises(ValueError):
        DLConfig(n_atoms=4, sparsity=5, iters=1)
    with pytest.raises(ValueError):
        DLConfig(n_atoms=0, sparsity=1, iters=1)
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        DLConfig(n_atoms=8, sparsity=3, iters=2, seed=-1)


@st.composite
def sweep_inputs(draw):
    """(Y, D, X) for one AK-SVD sweep, with optional planted edge cases:
    duplicate signals, zero signals (nonzero code), an unused atom (all-zero
    code row), a degenerate atom (used only by zero signals, alone in their
    codes, so u = 0) and full codes (sparsity = n_atoms).

    A re-seed takes the worst-represented signal, so the two exact forms agree
    only where that choice is not a round-off tie: m exceeds n_atoms and N is
    large enough that most residuals stay well away from zero (an atom used
    by a single signal fits it exactly), and duplicate signals keep their own
    codes."""
    n_atoms = draw(st.integers(1, 8))
    m = draw(st.integers(n_atoms + 1, 14))
    N = draw(st.integers(5 * n_atoms + 5, 60))
    full = draw(st.booleans())
    sparsity = n_atoms if full else draw(st.integers(1, n_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = rng.standard_normal((m, N))
    D = rng.standard_normal((m, n_atoms))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((n_atoms, N))
    for ell in range(N):
        support = rng.choice(n_atoms, size=sparsity, replace=False)
        X[support, ell] = rng.uniform(0.5, 2.0, sparsity) * rng.choice([-1.0, 1.0], sparsity)
    if draw(st.booleans()):
        Y[:, 1] = Y[:, 0]
    if draw(st.booleans()):
        Y[:, 2] = 0.0
    if n_atoms > 1 and draw(st.booleans()):
        X[0] = 0.0
    if n_atoms > 1 and draw(st.booleans()):
        cols = [N - 2, N - 1]
        Y[:, cols] = 0.0
        X[:, cols] = 0.0
        X[-1] = 0.0
        X[-1, cols] = rng.uniform(0.5, 1.5, 2)
    return Y, D, X


@settings(max_examples=200)
@given(sweep_inputs())
def test_sweep_matches_residual_oracle(inputs):
    Y, D, X = inputs
    D_ref, X_ref = D.copy(), X.copy()
    expected = aksvd_sweep_residual(Y, D_ref, X_ref)
    assert _aksvd_sweep(Y, D, X) == expected
    np.testing.assert_allclose(D, D_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-10)


@settings(max_examples=200)
@given(sweep_inputs())
def test_sweep_matches_residual_oracle_on_signal_major_y(inputs):
    # aksvd_train hands the sweep an F-ordered Y, whose signals are
    # contiguous rows of Y^T
    Y, D, X = inputs
    Y = np.asfortranarray(Y)
    D_ref, X_ref = D.copy(), X.copy()
    expected = aksvd_sweep_residual(Y, D_ref, X_ref)
    assert _aksvd_sweep(Y, D, X) == expected
    np.testing.assert_allclose(D, D_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-10)


@settings(max_examples=200)
@given(sweep_inputs())
def test_kernel_sweep_on_identity_gram_is_the_aksvd_sweep(inputs):
    # one formula, different solves: the kernel sweep over the m coordinate
    # vectors (K_DD = I, K_YD = Y^T, A = D) is the AK-SVD sweep; the kernel
    # sweep re-seeds nothing, so draws with unused or degenerate atoms are out
    Y, D, X = inputs
    D_ref, X_ref = D.copy(), X.copy()
    assume(aksvd_sweep_residual(Y, D_ref, X_ref) == (0, 0))
    D2, X2 = swept(np.eye(Y.shape[0]), Y.T, D, X)
    np.testing.assert_allclose(D2, D_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(X2, X_ref, rtol=0, atol=1e-10)


def test_init_dictionary_allocates_no_signal_sized_array():
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((400, 2000))
    tracemalloc.start()
    try:
        init_dictionary(Y, 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * Y.nbytes


def test_reseeding_sweep_allocates_no_signal_sized_array():
    # the re-seed ranks residuals in factored form and the refit gathers
    # blocks of an atom's signals, so no m x N array is formed
    rng = np.random.default_rng(8)
    m, N, n = 400, 2000, 10
    Y = np.asfortranarray(rng.standard_normal((m, N)))
    D = rng.standard_normal((m, n))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((n, N))
    for ell in range(N):
        X[rng.choice(n, size=2, replace=False), ell] = rng.standard_normal(2)
    X[0] = 0.0
    tracemalloc.start()
    try:
        assert _aksvd_sweep(Y, D, X) == (1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * Y.nbytes


def test_sweep_on_the_coders_code_copies_no_code():
    # the coder hands out its signal-major buffer and the sweep updates it
    # through Z^T; at small m the gather block and the nonzero indices are
    # small beside one N x n array, so a copy of the code alone breaks the bound
    rng = np.random.default_rng(12)
    m, N, n, s = 16, 20000, 50, 3
    Y = np.asfortranarray(rng.standard_normal((m, N)))
    D = rng.standard_normal((m, n))
    D /= np.linalg.norm(D, axis=0)
    X = omp_batch(D, Y, s).matrix
    tracemalloc.start()
    try:
        assert _aksvd_sweep(Y, D, X) == (0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes
    assert X.shape == (n, N) and X.T.flags.c_contiguous


@st.composite
def coded_signals(draw):
    """(Y, D, sparsity): F-ordered signals, among them duplicates of the first
    and trailing zero signals, and unit atoms, sparsity up to the atom count."""
    n_atoms = draw(st.integers(1, 10))
    m = draw(st.integers(2, 16))
    N = draw(st.integers(n_atoms + 8, 300))
    sparsity = draw(st.integers(1, n_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = np.asfortranarray(rng.standard_normal((m, N)))
    Y[:, 1:1 + draw(st.integers(0, 3))] = Y[:, :1]
    Y[:, N - draw(st.integers(0, 3)):] = 0.0
    D = rng.standard_normal((m, n_atoms))
    D /= np.linalg.norm(D, axis=0)
    return Y, D, sparsity


@settings(max_examples=100)
@given(coded_signals())
def test_sweep_on_the_coders_buffer_equals_a_c_ordered_copy(inputs):
    # bit for bit, on the AK-SVD sweep (re-seeds included) and on a reduced
    # kernel sweep over the atoms as kernel vectors, in their kernel map
    Y, D, sparsity = inputs
    X = omp_batch(D, Y, sparsity).matrix
    Xc, Dc = np.array(X, order="C"), D.copy()
    assert _aksvd_sweep(Y, D, X) == _aksvd_sweep(Y, Dc, Xc)
    assert D.tobytes() == Dc.tobytes() and X.tobytes(order="C") == Xc.tobytes()

    spec = KernelSpec("rbf", sigma=float(np.sqrt(Y.shape[0])))
    k_dd, k_yd = gram(D, D, spec), gram(Y, D, spec)
    # RBF self-kernels are 1: the vectors are Gram-normalized atoms, whose
    # coordinates B the map's rows F code and sweep on the identity Gram
    T, B, _ = kernel_map(k_dd, np.eye(D.shape[1]), {})
    F = k_yd @ T
    Z = kernel_omp_batch(F, np.ones(Y.shape[1]), np.eye(B.shape[0]), B, sparsity).matrix
    Zc, Bc = np.array(Z, order="C"), B.copy()
    for B_, Z_ in ((B, Z), (Bc, Zc)):
        atom_sweep(F, B_, Z_)
    assert B.tobytes() == Bc.tobytes() and Z.tobytes(order="C") == Zc.tobytes()


def test_pretraining_phases_in_meta():
    signals, _, _ = synth(12, 150, 10, 3, seed=5)
    dictionary, _ = aksvd_train(signals.values, DLConfig(n_atoms=10, sparsity=3, iters=4, seed=4))
    assert [f.name for f in dataclasses.fields(dictionary)] == ["atoms", "trace"]
    trace = dictionary.trace
    phases = trace.phase_seconds
    assert set(phases) == {"coding", "sweep"}
    assert all(v > 0.0 for v in phases.values())
    assert sum(phases.values()) <= trace.total_seconds
    idle, _ = aksvd_train(signals.values, DLConfig(n_atoms=10, sparsity=3, iters=0, seed=4))
    assert idle.trace.phase_seconds["sweep"] == 0.0


@pytest.mark.parametrize("iters", [0, 4])
def test_pretraining_elapsed_seconds_per_coding_pass(iters):
    signals, _, _ = synth(12, 150, 10, 3, seed=5)
    trace = aksvd_train(signals.values, DLConfig(10, 3, iters, seed=4))[0].trace
    assert len(trace.elapsed_seconds) == len(trace.errors) == max(iters, 1)
    assert 0.0 < trace.elapsed_seconds[0] and np.all(np.diff(trace.elapsed_seconds) > 0.0)
    assert trace.elapsed_seconds[-1] <= trace.total_seconds


@pytest.mark.parametrize("iters", [0, 1, 5])
def test_pretraining_errors_match_recoded_oracle(iters):
    # coding pass i codes the dictionary the callback saw after sweep i - 1
    # (pass 0 the initial one); its trace error is read off OMP's residual_sq
    signals, _, _ = synth(12, 150, 10, 3, seed=5, noise_sigma=0.05)
    Y = signals.values
    coded = [init_dictionary(Y, 10, seed=4).atoms]
    dictionary, _ = aksvd_train(Y, DLConfig(n_atoms=10, sparsity=3, iters=iters, seed=4),
                                callback=lambda it, D, X: coded.append(D.copy()))
    oracle = [frobenius_error(Y, D, omp_batch(D, Y, 3).matrix) for D in coded[:max(iters, 1)]]
    np.testing.assert_allclose(dictionary.trace.errors, oracle, rtol=1e-12, atol=0.0)


def test_sweep_counts_planted_degenerate_atom():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((6, 20))
    D = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    X = rng.standard_normal((3, 20))
    X[2] = 0.0
    Y[:, :2] = 0.0
    X[:, :2] = 0.0
    X[2, :2] = [0.7, 1.3]
    assert _aksvd_sweep(Y, D, X) == (0, 1)
    assert not np.any(X[2])
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)


def test_replaced_atom_counts_in_meta():
    # the last atom is orthogonal to every signal, so OMP never picks it
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((8, 60))
    Y[-1] = 0.0
    atoms = np.concatenate([init_dictionary(Y, 4, seed=0).atoms, np.eye(8)[:, -1:]], axis=1)
    dictionary, _ = aksvd_train(Y, DLConfig(n_atoms=5, sparsity=2, iters=1, seed=0),
                                D_init=Dictionary(atoms=atoms))
    assert [f.name for f in dataclasses.fields(dictionary)] == ["atoms", "trace"]
    assert dictionary.trace.warnings == {"unused_atom": 1}
    assert abs(dictionary.atoms[-1, -1]) < 1e-15
    clean, _ = aksvd_train(Y, DLConfig(n_atoms=4, sparsity=2, iters=3, seed=0))
    assert clean.trace.warnings == {}


def test_residual_error_keeps_nan_and_clamps_negative_sums():
    stats: dict = {}
    assert np.isnan(residual_error(float("nan"), 4, stats))
    assert stats == {}
    for res_sq, expected in ((-1e-12, 0.0), (-0.0, 0.0), (0.0, 0.0), (9.0, 1.5)):
        got = residual_error(res_sq, 4, stats)
        assert got == expected and np.signbit(got) == np.signbit(expected)
    assert stats == {"residual_clamp": 1}


@pytest.mark.parametrize("iters", [0, 1, 3])
def test_aksvd_train_names_a_non_finite_coding_error_before_any_sweep(iters, monkeypatch):
    signals, _, _ = synth(16, 200, 10, 3, seed=0)
    Y = signals.values.copy()
    Y[4, 7] = np.nan
    sweeps = []
    monkeypatch.setattr(linear_dl, "_aksvd_sweep", lambda *args: sweeps.append(1))
    with pytest.raises(FloatingPointError, match="non-finite AK-SVD coding error of the signals "
                                                  "at pass 0"):
        aksvd_train(Y, DLConfig(10, 3, iters))
    assert sweeps == []
