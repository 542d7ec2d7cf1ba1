import numpy as np
import pytest

from oracles import kernel_eval, kernel_grad_first, kernel_vector_gradient
from rkdl import kernels
from rkdl.kernels import (KernelSpec, dictionary_gradient, gram, inner_products,
                          mirror_upper_from_lower, self_kernel_diag)

RBF = KernelSpec("rbf", sigma=1.0, denom_factor=2.0)


def trace_objective(Y, D, A, Z, spec):
    """Full representation objective ||phi(Y) - phi(D) A Z||_F^2 via Grams.

    Independent evaluation path used as the finite-difference oracle.
    """
    kyy = self_kernel_diag(Y, spec).sum()
    kyd = gram(Y, D, spec)
    kdd = gram(D, D, spec)
    t2 = np.einsum("la,al->", kyd @ A, Z)
    t3 = np.einsum("al,al->", Z, (A.T @ (kdd @ A)) @ Z)
    return kyy - 2.0 * t2 + t3


def test_kernel_eval_rbf_zero_distance():
    x = np.array([0.3, -2.0, 1.5])
    assert kernel_eval(x, x, RBF) == 1.0


def test_kernel_eval_polynomial_reduces_to_inner_product():
    spec = KernelSpec("polynomial", alpha=0.0, beta=1)
    assert kernel_eval([1.0, 2.0], [3.0, 4.0], spec) == pytest.approx(11.0, abs=0)


def test_kernel_eval_rbf_direct_formula():
    val = kernel_eval([1.0, 0.0], [0.0, 0.0], KernelSpec("rbf", sigma=1.0, denom_factor=2.0))
    assert val == pytest.approx(np.exp(-0.5), abs=1e-15)


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval([1.0, 2.0], [1.0, 2.0, 3.0], RBF)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec("polynomial", beta=0)
    with pytest.raises(ValueError):
        KernelSpec("sigmoid")
    for family, name, value in (("rbf", "sigma", float("inf")), ("rbf", "sigma", float("nan")),
                                ("rbf", "denom_factor", float("inf")),
                                ("polynomial", "alpha", float("nan")),
                                ("polynomial", "alpha", float("-inf"))):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            KernelSpec(family, beta=2, **{name: value})


def test_gram_linear_identity():
    D = np.eye(2)
    np.testing.assert_allclose(gram(D, D, KernelSpec("linear")), np.eye(2), atol=0)


def test_gram_rbf_range():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((5, 10))
    D = rng.standard_normal((5, 4))
    K = gram(Y, D, RBF)
    assert np.all(K > 0) and np.all(K <= 1)


def test_gram_matches_entrywise_loop():
    # brute-force double loop over kernel_eval on a 3x2 instance
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 3))
    Y = rng.standard_normal((3, 2))
    for spec in (RBF, KernelSpec("polynomial", alpha=0.5, beta=2), KernelSpec("linear")):
        K = gram(X, Y, spec)
        expected = np.array([[kernel_eval(X[:, i], Y[:, j], spec) for j in range(2)]
                             for i in range(3)])
        np.testing.assert_allclose(K, expected, atol=1e-12)


GRAM_SHAPES = {"a<b": (20, 90), "a>b": (90, 20), "a=b": (30, 30), "Y is X": (30, 30)}


@pytest.mark.parametrize("shape", GRAM_SHAPES)
@pytest.mark.parametrize("spec", [RBF, KernelSpec("polynomial", alpha=0.5, beta=3),
                                  KernelSpec("linear")], ids=lambda spec: spec.family)
def test_gram_matches_kernel_eval_in_both_product_orientations(spec, shape):
    # a > b puts Y on the left of the BLAS product, a <= b puts X there; the
    # optional squared norms of X give the same bits, and rows of the result
    # are contiguous either way
    a, b = GRAM_SHAPES[shape]
    rng = np.random.default_rng(4)
    X = 0.4 * rng.standard_normal((16, a))
    Y = X if shape == "Y is X" else 0.4 * rng.standard_normal((16, b))
    expected = np.array([[kernel_eval(X[:, i], Y[:, j], spec) for j in range(b)]
                         for i in range(a)])
    K = gram(X, Y, spec)
    K_sq = gram(X, Y, spec, x_sq=np.einsum("ij,ij->j", X, X))
    np.testing.assert_allclose(K, expected, rtol=1e-12, atol=1e-14)
    assert np.array_equal(K_sq, K)
    assert K.flags.c_contiguous and K_sq.flags.c_contiguous


@pytest.mark.parametrize("layout", ["C", "F", "a<b", "a>b"])
@pytest.mark.parametrize("spec", [KernelSpec("polynomial", alpha=1.0, beta=2),
                                  KernelSpec("polynomial", alpha=0.5, beta=3),
                                  KernelSpec("linear")], ids=lambda spec: spec.family)
def test_gram_in_the_products_buffer_matches_the_separate_output_form(spec, layout):
    # K is built in place on X^T Y; the same elementwise IEEE operations on a
    # separate output array give the same bits, for C- and F-ordered signals
    # and for both product orientations of a cross Gram
    rng = np.random.default_rng(6)
    X = rng.standard_normal((16, 40))
    if layout == "F":
        X = np.asfortranarray(X)
    Y = {"a<b": rng.standard_normal((16, 70)), "a>b": rng.standard_normal((16, 9))}.get(layout, X)
    reference = np.empty((X.shape[1], Y.shape[1]))
    np.add(inner_products(X, Y), spec.alpha, out=reference)
    reference **= spec.beta
    K = gram(X, Y, spec)
    assert np.array_equal(K, reference) and K.flags.c_contiguous


@pytest.mark.parametrize("spec", [RBF, KernelSpec("polynomial", alpha=1.0, beta=2),
                                  KernelSpec("linear")], ids=["rbf", "polynomial", "linear"])
@pytest.mark.parametrize("layout", ["a>b", "a<b"])
def test_gram_on_held_products_matches_and_never_writes_them(spec, layout):
    # a held X^T Y, in any memory order, gives the Gram that gram forms
    # itself, bit for bit, in a C-ordered array of its own
    rng = np.random.default_rng(11)
    X = rng.standard_normal((16, 40))
    Y = rng.standard_normal((16, 9 if layout == "a>b" else 70))
    reference = gram(X, Y, spec)
    xy = inner_products(X, Y)
    for held in (xy, np.ascontiguousarray(xy), np.asfortranarray(xy)):
        before = held.copy()
        K = gram(X, Y, spec, xy=held)
        assert K.tobytes() == reference.tobytes() and K.flags.c_contiguous
        assert not np.shares_memory(K, held)
        assert held.tobytes() == before.tobytes()


def test_gram_row_count_mismatch():
    with pytest.raises(ValueError):
        gram(np.zeros((3, 2)), np.zeros((4, 2)), RBF)


def test_gram_symmetry_and_rbf_diagonal():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 9))
    K = gram(X, X, RBF)
    assert np.max(np.abs(K - K.T)) < 1e-12
    assert np.all(np.diag(K) == 1.0)
    # a bitwise-equal copy is also recognized as the same set
    K2 = gram(X, X.copy(), RBF)
    assert np.all(np.diag(K2) == 1.0)


@pytest.mark.parametrize("block", [1, 3, 7, 256])
def test_same_data_gram_is_bit_symmetric_in_row_blocks(monkeypatch, block):
    # K is built as its lower triangle in gemm row blocks, each mapped to kernel
    # values, and mirrored, never by numpy's X.T @ X (BLAS syrk, which crashes
    # at large N); 20 columns in 1, 3 or 7 rows leave a short last block, 256 is
    # one block. Equal copies of X count as the same data. X has duplicate and
    # all-zero columns, whose distances are 0 but for round-off
    monkeypatch.setattr(kernels, "GRAM_BLOCK", block)
    rng = np.random.default_rng(4)
    X = np.asfortranarray(rng.standard_normal((8, 20)))
    X[:, [5, 11, 17]] = X[:, [2, 2, 9]]
    X[:, [0, 13]] = 0.0
    XtX = X.T @ X
    xx = np.einsum("ij,ij->j", X, X)
    poly = KernelSpec("polynomial", alpha=0.5, beta=3)
    expected = {RBF: np.exp(-np.maximum(xx[:, None] + xx - 2.0 * XtX, 0.0) / RBF.rbf_scale),
                poly: (XtX + 0.5) ** 3, KernelSpec("linear"): XtX}
    for spec, reference in expected.items():
        for Y in (X, X.copy(order="C")):
            K = gram(X, Y, spec)
            assert K.tobytes() == np.ascontiguousarray(K.T).tobytes(), spec
            np.testing.assert_allclose(K, reference, rtol=1e-12,
                                       atol=1e-12 * np.abs(reference).max())
            if spec == RBF:
                assert np.all((K >= 0.0) & (K <= 1.0)) and np.all(np.diag(K) == 1.0)


@pytest.mark.parametrize("block", [3, 256])
def test_mirror_copies_the_lower_triangle_over_the_upper(monkeypatch, block):
    monkeypatch.setattr(kernels, "GRAM_BLOCK", block)
    K = np.random.default_rng(5).standard_normal((11, 11))
    lower = np.tril(K)
    mirror_upper_from_lower(K)
    assert np.array_equal(np.tril(K), lower) and np.array_equal(K, K.T)


def test_self_kernel_diag_matches_gram_diagonal():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 7))
    for spec in (RBF, KernelSpec("polynomial", alpha=0.3, beta=3), KernelSpec("linear")):
        np.testing.assert_allclose(self_kernel_diag(X, spec), np.diag(gram(X, X, spec)),
                                   atol=1e-12)


def test_grad_first_rbf_vanishes_at_zero_distance():
    x = np.array([1.0, -0.5, 2.0])
    np.testing.assert_array_equal(kernel_grad_first(x, x, RBF), np.zeros(3))


def test_grad_first_polynomial_beta_one_is_y():
    spec = KernelSpec("polynomial", alpha=1.2, beta=1)
    y = np.array([0.4, -1.1, 0.0])
    np.testing.assert_array_equal(kernel_grad_first(np.array([1.0, 2.0, 3.0]), y, spec), y)


@pytest.mark.parametrize("spec", [
    KernelSpec("rbf", sigma=0.8, denom_factor=2.0),
    KernelSpec("rbf", sigma=3.0, denom_factor=1.0),
    KernelSpec("polynomial", alpha=0.7, beta=3),
    KernelSpec("linear"),
])
def test_grad_first_finite_difference(spec):
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(10):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        g = kernel_grad_first(x, y, spec)
        fd = np.zeros(5)
        for i in range(5):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            fd[i] = (kernel_eval(xp, y, spec) - kernel_eval(xm, y, spec)) / (2 * eps)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def test_vector_gradient_zero_codes():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((4, 6))
    D = rng.standard_normal((4, 3))
    A = rng.standard_normal((3, 2))
    Z = np.zeros((2, 6))
    for j in range(3):
        np.testing.assert_array_equal(kernel_vector_gradient(Y, D, A, Z, j, RBF), np.zeros(4))


@pytest.mark.parametrize("spec", [
    KernelSpec("rbf", sigma=1.1, denom_factor=2.0),
    KernelSpec("rbf", sigma=2.0, denom_factor=1.0),
    KernelSpec("polynomial", alpha=0.4, beta=2),
])
def test_vector_gradient_finite_difference(spec):
    rng = np.random.default_rng(6)
    m, N, n_d, n_a = 4, 6, 3, 2
    eps = 1e-6
    for _ in range(5):
        Y = rng.standard_normal((m, N))
        D = rng.standard_normal((m, n_d))
        A = rng.standard_normal((n_d, n_a))
        Z = rng.standard_normal((n_a, N))
        for j in range(n_d):
            g = kernel_vector_gradient(Y, D, A, Z, j, spec)
            fd = np.zeros(m)
            for i in range(m):
                Dp = D.copy(); Dp[i, j] += eps
                Dm = D.copy(); Dm[i, j] -= eps
                fd[i] = (trace_objective(Y, Dp, A, Z, spec)
                         - trace_objective(Y, Dm, A, Z, spec)) / (2 * eps)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-10)


def test_vector_gradient_linear_closed_form():
    # explicit feature map: gradient of ||Y - D (A Z)||_F^2 wrt d_j is
    # -2 (Y - D A Z) w_j where w_j is row j of W = A Z
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((5, 8))
    D = rng.standard_normal((5, 4))
    A = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 8))
    W = A @ Z
    residual = Y - D @ W
    for j in range(4):
        expected = -2.0 * residual @ W[j]
        g = kernel_vector_gradient(Y, D, A, Z, j, KernelSpec("linear"))
        np.testing.assert_allclose(g, expected, atol=1e-10)


GRADIENT_SPECS = {"rbf": KernelSpec("rbf", sigma=1.5, denom_factor=1.0),
                  "polynomial": KernelSpec("polynomial", alpha=0.2, beta=2),
                  "linear": KernelSpec("linear")}


def test_dictionary_gradient_matches_per_vector():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((5, 9))
    D = rng.standard_normal((5, 4))
    A = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 9))
    for spec in GRADIENT_SPECS.values():
        G = dictionary_gradient(Y, D, A @ Z, spec)
        for j in range(4):
            np.testing.assert_allclose(G[:, j], kernel_vector_gradient(Y, D, A, Z, j, spec),
                                       atol=1e-11)


@pytest.mark.parametrize("spec", GRADIENT_SPECS.values(), ids=GRADIENT_SPECS)
def test_dictionary_gradient_from_held_products_is_bit_equal(spec):
    # the Grams, Y^T D and W W^T that a trainer holds at the current D and
    # W = A Z give the gradient that it forms without them, bit for bit; a W
    # whose shape is not (n_d, N) is refused
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((5, 9))
    D = rng.standard_normal((5, 4))
    W = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 9))
    own = dictionary_gradient(Y, D, W, spec)
    held = dictionary_gradient(Y, D, W, spec, k_yd=gram(Y, D, spec), k_dd=gram(D, D, spec),
                               yd=inner_products(Y, D), WWt=W @ W.T)
    assert own.shape == D.shape and own.tobytes() == held.tobytes()
    with pytest.raises(ValueError, match=r"W = A Z is \(4, 8\), expected \(4, 9\)"):
        dictionary_gradient(Y, D, W[:, :8], spec)


def test_vector_gradient_index_and_shape_errors():
    Y = np.zeros((4, 6))
    D = np.zeros((4, 3))
    A = np.zeros((3, 2))
    Z = np.zeros((2, 6))
    with pytest.raises(IndexError):
        kernel_vector_gradient(Y, D, A, Z, 3, RBF)
    with pytest.raises(ValueError):
        kernel_vector_gradient(Y, np.zeros((5, 3)), A, Z, 0, RBF)
