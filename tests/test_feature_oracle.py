"""The polynomial kernel on its explicit features: the Gram, the trainers'
error traces, kdl's atom sweep and kernel OMP against plain linear algebra on
Phi = poly_features.

Draws keep m <= 5 and beta <= 3 (at most 216 features), include duplicate
signals and reach N above the feature dimension, where K is singular."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import ksvd_sweep, poly_features
from rkdl import kernel_dl
from rkdl.kernel_dl import KdlConfig, kdl_train, morkdl_train, orkdl_train, rkdl_train
from rkdl.kernels import KernelSpec, gram, self_kernel_diag
from rkdl.linear_dl import Dictionary
from rkdl.sparse_coding import kernel_omp_batch, omp_batch


def poly_draw(m, beta, N, alpha, seed, copies):
    """(Y, spec, rng): N signals of dimension m drawn from the generator seeded
    with ``seed``, ``copies`` times a signal copied over another, the polynomial
    kernel (x.y + alpha)^beta, and the generator."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    for _ in range(copies):
        i, j = rng.integers(N, size=2)
        Y[:, i] = Y[:, j]
    return Y, KernelSpec("polynomial", alpha=alpha, beta=beta), rng


@st.composite
def poly_draws(draw, max_n=30):
    """``poly_draw`` on drawn sizes, kernel, seed and number of copies."""
    m, beta, N = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(4, max_n))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return poly_draw(m, beta, N, alpha, draw(st.integers(0, 2**32 - 1)),
                     draw(st.integers(0, N // 2)))


class Draws:
    """Stands in for ``st.data()`` in an ``@example``: ``draw`` returns the given
    values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def feature_dim(m, spec):
    """The dimension of the polynomials of degree beta in m variables that the
    features span: homogeneous ones when alpha = 0."""
    return math.comb(m - (spec.alpha == 0) + spec.beta, spec.beta)


@settings(max_examples=60)
@given(poly_draws(max_n=40))
def test_gram_is_the_feature_inner_product(draw):
    Y, spec, rng = draw
    D = rng.standard_normal((Y.shape[0], 3))
    phi_y, phi_d = (poly_features(X, spec.alpha, spec.beta) for X in (Y, D))
    for K, ref in ((gram(Y, Y, spec), phi_y.T @ phi_y), (gram(Y, D, spec), phi_y.T @ phi_d)):
        np.testing.assert_allclose(K, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(self_kernel_diag(Y, spec), np.einsum("ij,ij->j", phi_y, phi_y),
                               rtol=1e-12)


REDUCED_TRAINERS = {"rkdl-d": rkdl_train, "orkdl-d": orkdl_train, "morkdl-d": morkdl_train}


@settings(max_examples=60)
@given(poly_draws(), st.sampled_from(["kdl", *REDUCED_TRAINERS]), st.data())
# four scalar signals under x^3, so K has rank 1: a factor of K + r I amplified
# round-off into the coefficients on K's null space (to 1.3e6), and the coder
# refused an atom whose a^T K a had drifted 2.4e-7 from 1
@example(poly_draw(1, 3, 4, 0.0, seed=3576794598, copies=1), "kdl", Draws(4, 3))
def test_trace_errors_and_code_rises_on_the_features(draw, method, data):
    # every trace error is ||Phi(Y) - Phi(D) A Z||_F / sqrt(mN), with D, A and Z
    # read through the callback; code_rise counts the signals whose fresh code
    # (read through the coder) leaves a larger feature residual than the swept
    # code. The optimized trainers step D at a small fixed rate from a
    # well-conditioned K_DD (at most as many vectors as the feature dimension,
    # condition number below 1e4): an ill-conditioned K_DD makes the
    # coefficients, and so the gradient, large, and the fixed step diverges (at
    # this rate D moved by 2e5 in one iteration from a condition number of 8e5).
    # The mixed trainer codes Y on unit vectors D
    Y, spec, rng = draw
    m, N = Y.shape
    n_d = 6 if method in ("kdl", "rkdl-d") else min(6, feature_dim(m, spec))
    n_a = data.draw(st.integers(1, min(4, n_d)))
    cfg = KdlConfig(n_atoms=n_a, sparsity=data.draw(st.integers(1, n_a)), iters=3, seed=1,
                    learning_rate=1e-6, dl_sparsity=1)
    D = Y if method == "kdl" else rng.standard_normal((m, data.draw(st.integers(n_a, n_d))))
    if method == "morkdl-d":
        D /= np.linalg.norm(D, axis=0)
    assume(np.count_nonzero(self_kernel_diag(D, spec) > 1e-12) >= n_a)    # else no atom to seed
    assume(method in ("kdl", "rkdl-d") or np.linalg.cond(gram(D, D, spec)) < 1e4)
    phi_y = poly_features(Y, spec.alpha, spec.beta)
    kyy = np.einsum("ij,ij->j", phi_y, phi_y)
    # the trainer's own A, updated in place, and the features of its current D
    live = {"phi_d": poly_features(D, spec.alpha, spec.beta)}
    swept, fresh, fitted = [kyy], [], [0.0]    # per-signal squared residuals; ||Phi(D) A Z||^2

    def residuals(A, Z):
        R = phi_y - live["phi_d"] @ (A @ Z)
        return np.einsum("ij,ij->j", R, R)

    def init(*args):
        live["A"] = init_coefficients(*args)
        return live["A"]

    def coder(*args):
        code = kernel_omp_batch(*args)
        fresh.append(residuals(live["A"], code.matrix))
        return code

    def callback(it, D_, A, Z, k_dd):
        live["phi_d"] = poly_features(D_, spec.alpha, spec.beta)
        swept.append(residuals(A, Z))
        fitted.append(float(np.sum((live["phi_d"] @ (A @ Z)) ** 2)))

    init_coefficients = kernel_dl._init_coefficients
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_dl, "_init_coefficients", init)
        mp.setattr(kernel_dl, "kernel_omp_batch", coder)
        if method == "kdl":
            _, _, trace = kdl_train(Y, spec, cfg, callback=callback)
        else:
            _, _, trace = REDUCED_TRAINERS[method](Y, Dictionary(D), spec, cfg, callback=callback)
    assert len(trace.errors) == len(swept) == cfg.iters + 1
    for got, r, f in zip(trace.errors, swept, fitted):
        assert abs(got**2 * m * N - r.sum()) <= 1e-9 * (kyy.sum() + f)
    if "ridge" not in trace.warnings:    # a ridged pick's residual_sq is only an upper bound
        rises = [int(np.count_nonzero(f > s + sign * 1e-6 * kyy))
                 for f, s in zip(fresh, swept) for sign in (1, -1)]
        assert sum(rises[0::2]) <= trace.warnings.get("code_rise", 0) <= sum(rises[1::2])


@settings(max_examples=100)
@given(poly_draws(), st.data())
def test_kdl_sweep_is_approximate_ksvd_on_the_features(draw, data):
    # kdl's first iteration codes the signals and sweeps the atoms; from the
    # coefficients and code the sweep starts at (read through the coder), the
    # approximate K-SVD pass on Phi(Y) gives the swept atoms Phi(Y) A and code
    # (read through the callback). The coefficients themselves are not
    # compared: on K's null space (duplicate signals, N above the feature
    # dimension) they are one of many that give the same atoms
    Y, spec, _ = draw
    n_a = data.draw(st.integers(1, 4))
    cfg = KdlConfig(n_atoms=n_a, sparsity=data.draw(st.integers(1, n_a)), iters=1, seed=1)
    assume(np.count_nonzero(self_kernel_diag(Y, spec) > 1e-12) >= n_a)    # else no atom to seed
    phi = poly_features(Y, spec.alpha, spec.beta)
    live, seen = {}, {}

    def init(*args):
        live["A"] = init_coefficients(*args)
        return live["A"]

    def coder(*args):
        code = kernel_omp_batch(*args)
        seen["atoms"], seen["Z"] = phi @ live["A"], code.matrix.copy()
        return code

    def callback(it, D_, A, Z, k_dd):
        seen["swept"] = phi @ A, Z.copy()

    init_coefficients = kernel_dl._init_coefficients
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_dl, "_init_coefficients", init)
        mp.setattr(kernel_dl, "kernel_omp_batch", coder)
        kdl_train(Y, spec, cfg, callback=callback)
    atoms, Z = ksvd_sweep(phi, seen["atoms"], seen["Z"])
    np.testing.assert_allclose(seen["swept"][0], atoms, atol=1e-6)
    np.testing.assert_allclose(seen["swept"][1], Z, atol=1e-6 * np.abs(Z).max())


@settings(max_examples=100)
@given(poly_draws(), st.data())
def test_kernel_omp_is_linear_omp_on_the_features(draw, data):
    # atoms Phi(D) A, Gram-normalized and linearly independent (n_a <= n_d, at
    # most the dimension of the polynomials of degree beta, homogeneous when
    # alpha = 0), so no two tie; compared on draws where no signal stops early,
    # since the coders' stop floors differ
    Y, spec, rng = draw
    n_d = data.draw(st.integers(1, min(6, feature_dim(Y.shape[0], spec))))
    n_a = data.draw(st.integers(1, n_d))
    s = data.draw(st.integers(1, n_a))
    D = rng.standard_normal((Y.shape[0], n_d))
    k_dd = gram(D, D, spec)
    A = rng.standard_normal((n_d, n_a))
    A /= np.sqrt(np.einsum("ij,ij->j", A, k_dd @ A))
    kernel = kernel_omp_batch(gram(Y, D, spec), self_kernel_diag(Y, spec), k_dd, A, s)
    atoms = poly_features(D, spec.alpha, spec.beta) @ A
    linear = omp_batch(atoms, poly_features(Y, spec.alpha, spec.beta), s)
    for code in (kernel, linear):
        assume(np.all(np.count_nonzero(code.matrix, axis=0) == s))
    np.testing.assert_array_equal(kernel.matrix != 0, linear.matrix != 0)
    np.testing.assert_allclose(kernel.matrix, linear.matrix, rtol=1e-6,
                               atol=1e-6 * np.abs(linear.matrix).max())
    np.testing.assert_allclose(kernel.residual_sq, linear.residual_sq, rtol=1e-6,
                               atol=1e-9 * np.abs(self_kernel_diag(Y, spec)).max())
