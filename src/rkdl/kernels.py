"""Kernel specs, Gram matrices, and the analytic kernel-vector gradient.

All signal sets follow column-major semantics: an (m, N) array holds one
signal per column, and the Gram matrix of two sets X, Y has entry
[i, j] = k(x_i, y_j).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

RBF = "rbf"
POLYNOMIAL = "polynomial"
LINEAR = "linear"

_FAMILIES = (RBF, POLYNOMIAL, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    The RBF kernel is exp(-||x - y||^2 / (denom_factor * sigma^2)); both
    common width conventions are reachable through ``denom_factor`` (2 gives
    the 2*sigma^2 form, 1 gives sigma^2). The polynomial kernel is
    (x.y + alpha)^beta, and ``linear`` is the plain inner product.
    """

    family: str = RBF
    sigma: float = 1.0
    denom_factor: float = 2.0
    alpha: float = 0.0
    beta: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for name in ("sigma", "denom_factor", "alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.family == RBF:
            if not self.sigma > 0:
                raise ValueError("sigma must be positive for the RBF kernel")
            if not self.denom_factor > 0:
                raise ValueError("denom_factor must be positive")
        if self.family == POLYNOMIAL:
            if int(self.beta) != self.beta or self.beta < 1:
                raise ValueError("beta must be an integer >= 1 for the polynomial kernel")

    @property
    def rbf_scale(self) -> float:
        """Denominator of the RBF exponent, denom_factor * sigma**2."""
        return self.denom_factor * self.sigma**2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return from_fields(cls, d, "kernel")


# What a field annotated ``int``, ``float`` (either may be ``| None``) or ``list[str]`` accepts.
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "list[str]": ((list,), "a list of strings")}


def from_fields(cls, d: dict, block: str, **readers):
    """The config dataclass ``cls`` from the dict ``d`` of its fields, each built by
    ``readers[field]`` when given. A ``d`` that is not a dict, unknown keys, missing
    required fields and a value of the wrong kind for a number or list field
    (``_KINDS``) are a ValueError that names them and the config ``block``."""
    if not isinstance(d, dict):
        raise ValueError(f"{block} must be a JSON object, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {block} fields: {unknown}")
    missing = [f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing {block} fields: {missing}")
    for f in fields:  # annotations are strings under `from __future__ import annotations`
        kind, v = _KINDS.get(f.type.removesuffix(" | None")), d.get(f.name)
        if kind and f.name in d and not (v is None and f.type.endswith(" | None")) \
                and (isinstance(v, bool) or not isinstance(v, kind[0])
                     or isinstance(v, list) and not all(isinstance(s, str) for s in v)):
            raise ValueError(f"{block}: {f.name} must be {kind[1]}, got {v!r}")
    return cls(**{k: readers[k](v) if k in readers else v for k, v in d.items()})


def inner_products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^T Y, with the operand of fewer columns on the left of the product.

    For a tall signal block Y (m x N) and a few vectors D (m x n), OpenBLAS
    forms (D^T Y)^T in about half the time of Y^T D with the same numbers
    (9 against 16 ms at m = 784, N = 8000, n = 50, 2 cores). The result may
    be a transposed (F-ordered) view.
    """
    if Y.shape[1] < X.shape[1]:
        return (Y.T @ X).T
    return X.T @ Y


def all_finite(a: np.ndarray) -> bool:
    """Every entry of ``a`` finite, read off min and max (they propagate NaN and +-inf)."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


# Row-block height of a same-data Gram's product and tile side of its mirror.
# At m = 784 (2 cores) 256-row blocks built X^T X in 54 ms at N = 2000 and
# 0.75 s at N = 8000, against 51 ms and 0.92 s for numpy's BLAS syrk.
GRAM_BLOCK = 256


def mirror_upper_from_lower(K: np.ndarray) -> None:
    """K[i, j] = K[j, i] for every j > i, copied in square tiles of ``GRAM_BLOCK``."""
    n, t = K.shape[0], GRAM_BLOCK
    for i0 in range(0, n, t):
        square = K[i0:i0 + t, i0:i0 + t]
        np.copyto(square, square.T, where=np.tri(square.shape[0], k=-1, dtype=bool).T)
        for j0 in range(i0 + t, n, t):
            K[i0:i0 + t, j0:j0 + t] = K[j0:j0 + t, i0:i0 + t].T


def _same(X: np.ndarray, Y: np.ndarray) -> bool:
    return Y is X or (X.shape == Y.shape and np.array_equal(X, Y))


def _kernel_values(P: np.ndarray, spec: KernelSpec, xx: np.ndarray | None,
                   yy: np.ndarray | None) -> None:
    """Map the products P = X^T Y to the kernel values k(x_i, y_j), in place.
    The RBF kernel reads ``xx`` and ``yy``, the squared column norms of X and Y,
    and forms ||x - y||^2 = -2 x.y + ||x||^2 + ||y||^2, clamped at 0 because
    round-off can make it slightly negative."""
    if spec.family == RBF:
        P *= -2.0
        P += xx[:, None]
        P += yy
        np.maximum(P, 0.0, out=P)
        P /= -spec.rbf_scale
        np.exp(P, out=P)
    elif spec.family == POLYNOMIAL:
        P += spec.alpha
        P **= spec.beta


def gram(X: np.ndarray, Y: np.ndarray, spec: KernelSpec,
         x_sq: np.ndarray | None = None, xy: np.ndarray | None = None) -> np.ndarray:
    """The C-ordered (a, b) Gram k(X[:, i], Y[:, j]) of the columns of X (m, a)
    and Y (m, b). ``x_sq`` may give X's squared column norms, for callers that
    hold them across calls (only the RBF kernel reads them), and ``xy`` the
    products ``inner_products(X, Y)``, read only.

    On the same data (Y is X, or equal to it) K is bit-symmetric, for every
    family: each ``GRAM_BLOCK``-row block of its lower triangle is formed by
    gemm and mapped to kernel values, an RBF diagonal is set to exactly 1, and
    the triangle is mirrored. numpy's own ``X.T @ X`` (BLAS syrk) killed the
    process with SIGSEGV at m = 784 from N = 15500 on 2 threads of OpenBLAS 0.3.31.
    """
    X = np.asarray(X, dtype=float)
    Y = X if Y is X else np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("gram expects 2-D column-major signal matrices")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row counts differ: {X.shape[0]} vs {Y.shape[0]}")
    same = _same(X, Y)
    xx = yy = None
    if spec.family == RBF:
        xx = np.einsum("ij,ij->j", X, X) if x_sq is None else x_sq
        yy = xx if same else np.einsum("ij,ij->j", Y, Y)
    if not same:
        # rows of K_YD are gathered per atom, so the output is C-ordered
        K = np.ascontiguousarray(inner_products(X, Y)) if xy is None else np.array(xy, order="C")
        _kernel_values(K, spec, xx, yy)
        return K
    n = X.shape[1]
    K = np.empty((n, n))
    for i0 in range(0, n, GRAM_BLOCK):
        i1 = min(i0 + GRAM_BLOCK, n)
        block = K[i0:i1, :i1]
        np.matmul(X[:, i0:i1].T, X[:, :i1], out=block)
        _kernel_values(block, spec, *((None, None) if xx is None else (xx[i0:i1], xx[:i1])))
    if spec.family == RBF:
        np.fill_diagonal(K, 1.0)
    mirror_upper_from_lower(K)
    return K


def self_kernel_diag(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Vector of k(x_i, x_i) for each column, without forming the full Gram."""
    X = np.asarray(X, dtype=float)
    if spec.family == RBF:
        return np.ones(X.shape[1])
    sq = np.einsum("ij,ij->j", X, X)
    if spec.family == POLYNOMIAL:
        return (sq + spec.alpha) ** spec.beta
    return sq


def _check_shapes(Y, D, W):
    (m, N), (md, n_d) = Y.shape, D.shape
    if md != m:
        raise ValueError(f"signal and vector dimensions differ: {m} vs {md}")
    if W.shape != (n_d, N):
        raise ValueError(f"W = A Z is {W.shape}, expected ({n_d}, {N})")


def dictionary_gradient(
    Y: np.ndarray,
    D: np.ndarray,
    W: np.ndarray,
    spec: KernelSpec,
    k_yd: np.ndarray | None = None,
    k_dd: np.ndarray | None = None,
    yd: np.ndarray | None = None,
    WWt: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ||phi(Y) - phi(D) W||_F^2 in every kernel vector, (m, n_d), at the
    vectors' weights W = A Z (n_d, N): the objective reads the coefficients A and
    the code Z only through W.

    Every column is evaluated at the same D (one Jacobi-style round), and the
    derivative Gram matrices are never formed. ``k_yd`` / ``k_dd`` may supply
    the Grams at the current D, ``yd`` its ``inner_products(Y, D)`` and ``WWt``
    the product W W^T; stale ones give wrong gradients.
    """
    Y, D, W = (np.asarray(v, dtype=float) for v in (Y, D, W))
    _check_shapes(Y, D, W)

    M = W @ W.T if WWt is None else WWt
    if spec.family == RBF:
        k_dd = gram(D, D, spec) if k_dd is None else k_dd
        k_yd = gram(Y, D, spec) if k_yd is None else k_yd
        C = M * k_dd
        E = W * k_yd.T
        term_dd = (-4.0 / spec.rbf_scale) * (D * C.sum(axis=1) - D @ C)
        term_yd = (4.0 / spec.rbf_scale) * (D * E.sum(axis=1) - inner_products(Y.T, E.T))
        return term_dd + term_yd
    if spec.family == POLYNOMIAL:
        b = spec.beta
        pd = (D.T @ D + spec.alpha) ** (b - 1)
        py = ((inner_products(Y, D) if yd is None else yd) + spec.alpha) ** (b - 1)
        return 2.0 * b * (D @ (M * pd)) - 2.0 * b * inner_products(Y.T, W.T * py)
    return 2.0 * (D @ M - inner_products(Y.T, W.T))
