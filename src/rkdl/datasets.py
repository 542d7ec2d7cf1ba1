"""Dataset ingestion: IDX image files, CIFAR-10 binary batches, CSV matrices,
and seeded synthetic generators for oracle tests and benchmarks."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .kernels import from_fields
from .linear_dl import Dictionary
from .sparse_coding import SparseCode

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixels

NORMALIZATIONS = ("none", "unit01", "per_column_l2")


class FormatError(ValueError):
    """Raised when an input file does not match its declared binary format."""


@dataclass
class SignalMatrix:
    """Column-major training set: one signal per column."""

    values: np.ndarray
    provenance: str = ""

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_signals(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("signal matrix must be 2-D with at least one column")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal matrix contains non-finite entries")


def _apply_normalization(values: np.ndarray, normalize: str) -> np.ndarray:
    if normalize not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalize!r}; choose one of {NORMALIZATIONS}")
    if normalize == "unit01":
        return values / 255.0
    if normalize == "per_column_l2":
        norms = np.linalg.norm(values, axis=0)
        return values / np.maximum(norms, 1e-300)
    return values


def _read_idx(path: str, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: IDX header truncated ({len(raw)} bytes)")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic {magic} at byte offset 0, expected {expected_magic}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: IDX dimension header truncated")
    dims = [int.from_bytes(raw[4 + 4 * i: 8 + 4 * i], "big") for i in range(ndim)]
    count = int(np.prod(dims)) if dims else 0
    payload = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if payload.size != count:
        raise FormatError(f"{path}: payload has {payload.size} bytes, dimensions say {count}")
    return payload.reshape(dims)


def load_idx(images_path: str, labels_path: str | None = None, label_filter: int | None = None,
             max_signals: int | None = None, normalize: str = "unit01") -> SignalMatrix:
    """Load an IDX image file (optionally with labels) into a signal matrix.

    Images are flattened so each one becomes a column of length rows*cols.
    ``label_filter`` keeps only signals with the given label, preserving file
    order, and requires ``labels_path``.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected 3 dimensions, found {images.ndim}")
    n, rows, cols = images.shape
    flat = images.reshape(n, rows * cols).T.astype(float)

    if label_filter is not None and labels_path is None:
        raise ValueError("label_filter requires a labels file")
    if labels_path is not None:
        labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
        if labels.shape[0] != n:
            raise FormatError(
                f"{labels_path}: {labels.shape[0]} labels for {n} images in {images_path}")
        if label_filter is not None:
            flat = flat[:, labels == label_filter]

    if max_signals is not None:
        flat = flat[:, :max_signals]
    values = _apply_normalization(flat, normalize)
    note = f"idx:{os.path.basename(images_path)}"
    if label_filter is not None:
        note += f" label={label_filter}"
    return SignalMatrix(values=values, provenance=note)


def load_cifar10(batch_paths: list[str], label_filter: int | None = 0,
                 grayscale: str = "mean", max_signals: int | None = None,
                 normalize: str = "unit01") -> SignalMatrix:
    """Load CIFAR-10 binary batches as grayscale 1024-pixel signals.

    Each record is 3073 bytes: a label byte followed by the R, G, B planes of
    a 32x32 image. ``grayscale`` is either "mean" (unweighted plane average)
    or "luminance" (0.299 R + 0.587 G + 0.114 B).
    """
    if grayscale not in ("mean", "luminance"):
        raise ValueError(f"grayscale must be 'mean' or 'luminance', got {grayscale!r}")
    columns = []
    for path in batch_paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            expected = (len(raw) // CIFAR_RECORD_BYTES + 1) * CIFAR_RECORD_BYTES
            raise FormatError(
                f"{path}: {len(raw)} bytes is not a multiple of {CIFAR_RECORD_BYTES} "
                f"(nearest record boundary {expected})")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels = records[:, 0]
        planes = records[:, 1:].reshape(-1, 3, 1024).astype(float)
        if grayscale == "mean":
            gray = planes.mean(axis=1)
        else:
            gray = 0.299 * planes[:, 0] + 0.587 * planes[:, 1] + 0.114 * planes[:, 2]
        if label_filter is not None:
            gray = gray[labels == label_filter]
        columns.append(gray.T)
    values = np.concatenate(columns, axis=1) if columns else np.zeros((1024, 0))
    if values.shape[1] == 0:
        raise ValueError("no CIFAR-10 records survived the label filter")
    if max_signals is not None:
        values = values[:, :max_signals]
    values = _apply_normalization(values, normalize)
    note = f"cifar10:{len(batch_paths)} batches"
    if label_filter is not None:
        note += f" label={label_filter}"
    return SignalMatrix(values=values, provenance=note)


def load_csv(path: str, signals_in: str = "columns", normalize: str = "none") -> SignalMatrix:
    """Load a rectangular numeric CSV file as a signal matrix."""
    if signals_in not in ("columns", "rows"):
        raise ValueError("signals_in must be 'columns' or 'rows'")
    try:
        values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: not a rectangular numeric CSV ({exc})") from exc
    if signals_in == "rows":
        values = values.T
    values = _apply_normalization(values, normalize)
    return SignalMatrix(values=values, provenance=f"csv:{os.path.basename(path)}")


def save_csv(matrix: np.ndarray, path: str) -> None:
    """Write a matrix as CSV with enough digits to round-trip doubles exactly."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


def synth(m: int, N: int, n_planted: int, sparsity: int, seed: int, noise_sigma: float = 0.0,
          coeff_low: float | None = None, coeff_high: float | None = None):
    """Seeded planted-model generator: Y = D* X* + noise.

    D* has ``n_planted`` unit-norm Gaussian atoms; each signal combines
    ``sparsity`` distinct atoms. Coefficients are standard normal unless
    ``coeff_low``/``coeff_high`` are given, in which case magnitudes are
    uniform in that range with random signs (useful for keeping signal scales
    in a band). Returns (SignalMatrix, Dictionary, SparseCode).
    """
    if sparsity > n_planted:
        raise ValueError("sparsity cannot exceed the number of planted atoms")
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
    signals = SignalMatrix(values=Y, provenance=f"synth(m={m},N={N},seed={seed})")
    return signals, Dictionary(atoms=D, normalized=True), SparseCode(matrix=X, sparsity=sparsity)


@dataclass
class DatasetSpec:
    """Declarative dataset description used by experiment configs.

    ``source`` selects the loader: "idx", "cifar10", "csv" or "synthetic".
    The remaining fields mirror the loader arguments; unused ones are ignored.
    """

    source: str
    images: str | None = None
    labels: str | None = None
    batches: list[str] = field(default_factory=list)
    path: str | None = None
    signals_in: str = "columns"
    label_filter: int | None = None
    max_signals: int | None = None
    normalize: str | None = None
    grayscale: str = "mean"
    # synthetic parameters
    m: int = 64
    n_signals: int = 500
    n_components: int = 16
    sparsity: int = 4
    noise_sigma: float = 0.0
    seed: int = 0
    coeff_low: float | None = None
    coeff_high: float | None = None

    def __post_init__(self):
        if self.label_filter is not None and self.source not in ("idx", "cifar10"):
            raise ValueError(f"label_filter is only valid for labeled sources, not {self.source!r}")

    def to_dict(self) -> dict:
        d = {"source": self.source}
        if self.source == "idx":
            d.update(images=self.images, labels=self.labels, label_filter=self.label_filter,
                     max_signals=self.max_signals, normalize=self.normalize or "unit01")
        elif self.source == "cifar10":
            d.update(batches=list(self.batches), label_filter=self.label_filter,
                     grayscale=self.grayscale, max_signals=self.max_signals,
                     normalize=self.normalize or "unit01")
        elif self.source == "csv":
            d.update(path=self.path, signals_in=self.signals_in,
                     normalize=self.normalize or "none")
        else:
            d.update(m=self.m, n_signals=self.n_signals, n_components=self.n_components,
                     sparsity=self.sparsity, noise_sigma=self.noise_sigma, seed=self.seed,
                     coeff_low=self.coeff_low, coeff_high=self.coeff_high)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return from_fields(cls, d, "dataset")


def load_dataset(spec: DatasetSpec) -> SignalMatrix:
    """Materialize a DatasetSpec through the matching loader."""
    if spec.source == "idx":
        if not spec.images:
            raise ValueError("idx dataset needs an 'images' path")
        return load_idx(spec.images, spec.labels, spec.label_filter, spec.max_signals,
                        spec.normalize or "unit01")
    if spec.source == "cifar10":
        if not spec.batches:
            raise ValueError("cifar10 dataset needs 'batches' paths")
        return load_cifar10(list(spec.batches), spec.label_filter, spec.grayscale,
                            spec.max_signals, spec.normalize or "unit01")
    if spec.source == "csv":
        if not spec.path:
            raise ValueError("csv dataset needs a 'path'")
        sm = load_csv(spec.path, spec.signals_in, spec.normalize or "none")
        if spec.max_signals is not None:
            sm = SignalMatrix(values=sm.values[:, :spec.max_signals], provenance=sm.provenance)
        return sm
    if spec.source == "synthetic":
        signals, _, _ = synth(spec.m, spec.n_signals, spec.n_components, spec.sparsity,
                              spec.seed, spec.noise_sigma, spec.coeff_low, spec.coeff_high)
        return signals
    raise ValueError(f"unknown dataset source {spec.source!r}")
