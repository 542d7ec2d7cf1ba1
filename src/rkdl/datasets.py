"""Dataset ingestion: IDX image files, CIFAR-10 binary batches, CSV matrices,
and seeded synthetic generators for oracle tests and benchmarks."""

from __future__ import annotations

import dataclasses
import inspect
import os
from dataclasses import MISSING, dataclass, field

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


def _signals(values: np.ndarray, labels: np.ndarray | None, label_filter: int | None,
             max_signals: int | None, normalize: str, note: str) -> SignalMatrix:
    """The file loaders' shared tail: the signals labelled ``label_filter``, in
    file order, then the first ``max_signals`` of them, normalized."""
    if label_filter is not None:
        values = values[:, labels == label_filter]
        if values.shape[1] == 0:
            raise ValueError(f"no signals survived the label filter ({note})")
        note += f" label={label_filter}"
    if max_signals is not None:
        values = values[:, :max_signals]
    return SignalMatrix(values=_apply_normalization(values, normalize), provenance=note)


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


def load_idx(images: str, labels: str | None = None, label_filter: int | None = None,
             max_signals: int | None = None, normalize: str = "unit01") -> SignalMatrix:
    """Load an IDX image file (optionally with labels) into a signal matrix.

    Images are flattened so each one becomes a column of length rows*cols.
    ``label_filter`` keeps only signals with the given label, preserving file
    order, and requires ``labels``.
    """
    pixels = _read_idx(images, IDX_IMAGES_MAGIC)
    if pixels.ndim != 3:
        raise FormatError(f"{images}: expected 3 dimensions, found {pixels.ndim}")
    n, rows, cols = pixels.shape
    flat = pixels.reshape(n, rows * cols).T.astype(float)

    if label_filter is not None and labels is None:
        raise ValueError("label_filter requires a labels file")
    tags = None if labels is None else _read_idx(labels, IDX_LABELS_MAGIC)
    if tags is not None and tags.shape[0] != n:
        raise FormatError(f"{labels}: {tags.shape[0]} labels for {n} images in {images}")
    return _signals(flat, tags, label_filter, max_signals, normalize,
                    f"idx:{os.path.basename(images)}")


def load_cifar10(batches: list[str], label_filter: int | None = 0,
                 grayscale: str = "mean", max_signals: int | None = None,
                 normalize: str = "unit01") -> SignalMatrix:
    """Load CIFAR-10 binary batches as grayscale 1024-pixel signals.

    Each record is 3073 bytes: a label byte followed by the R, G, B planes of
    a 32x32 image. ``grayscale`` is either "mean" (unweighted plane average)
    or "luminance" (0.299 R + 0.587 G + 0.114 B).
    """
    if grayscale not in ("mean", "luminance"):
        raise ValueError(f"grayscale must be 'mean' or 'luminance', got {grayscale!r}")
    grays, labels = [], []
    for path in batches:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            expected = (len(raw) // CIFAR_RECORD_BYTES + 1) * CIFAR_RECORD_BYTES
            raise FormatError(
                f"{path}: {len(raw)} bytes is not a multiple of {CIFAR_RECORD_BYTES} "
                f"(nearest record boundary {expected})")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels.append(records[:, 0])
        planes = records[:, 1:].reshape(-1, 3, 1024).astype(float)
        if grayscale == "mean":
            grays.append(planes.mean(axis=1))
        else:
            grays.append(0.299 * planes[:, 0] + 0.587 * planes[:, 1] + 0.114 * planes[:, 2])
    return _signals(np.concatenate(grays).T, np.concatenate(labels), label_filter, max_signals,
                    normalize, f"cifar10:{len(batches)} batches")


def load_csv(path: str, signals_in: str = "columns", max_signals: int | None = None,
             normalize: str = "none") -> SignalMatrix:
    """Load a rectangular numeric CSV file as a signal matrix."""
    if signals_in not in ("columns", "rows"):
        raise ValueError("signals_in must be 'columns' or 'rows'")
    try:
        values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: not a rectangular numeric CSV ({exc})") from exc
    return _signals(values.T if signals_in == "rows" else values, None, None, max_signals,
                    normalize, f"csv:{os.path.basename(path)}")


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


# Each source's loader and the DatasetSpec fields it reads, in ``to_dict``
# order; the loader takes them as keyword arguments, and the first one is
# the input it cannot load without.
SOURCES = {
    "idx": (load_idx, ("images", "labels", "label_filter", "max_signals", "normalize")),
    "cifar10": (load_cifar10,
                ("batches", "label_filter", "grayscale", "max_signals", "normalize")),
    "csv": (load_csv, ("path", "signals_in", "max_signals", "normalize")),
    "synthetic": (lambda n_signals, n_components, **kw:
                  synth(N=n_signals, n_planted=n_components, **kw)[0],
                  ("m", "n_signals", "n_components", "sparsity", "noise_sigma", "seed",
                   "coeff_low", "coeff_high")),
}


@dataclass
class DatasetSpec:
    """Declarative dataset description used by experiment configs.

    ``source`` selects the loader in ``SOURCES``, and the other fields are its
    arguments. A field the source does not read must keep its default; an
    unset ``normalize`` takes the loader's default.
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
        if self.source not in SOURCES:
            raise ValueError(f"unknown dataset source {self.source!r}; choose from {tuple(SOURCES)}")
        loader, reads = SOURCES[self.source]
        unread = [f.name for f in dataclasses.fields(self) if f.name not in ("source", *reads)
                  and getattr(self, f.name) != (f.default_factory() if f.default is MISSING
                                                else f.default)]
        if unread:
            raise ValueError(f"dataset source {self.source!r} does not read {unread}")
        if "normalize" in reads and self.normalize is None:
            self.normalize = inspect.signature(loader).parameters["normalize"].default

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {k: d[k] for k in ("source", *SOURCES[self.source][1])}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return from_fields(cls, d, "dataset")


def load_dataset(spec: DatasetSpec) -> SignalMatrix:
    """Materialize a DatasetSpec through its source's loader."""
    loader, reads = SOURCES[spec.source]
    if not getattr(spec, reads[0]):
        raise ValueError(f"{spec.source} dataset needs {reads[0]!r}")
    return loader(**{k: getattr(spec, k) for k in reads})
