"""Dataset ingestion: IDX image files, CIFAR-10 binary batches, CSV matrices,
and seeded synthetic generators for oracle tests and benchmarks."""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import MISSING, dataclass, field

import numpy as np

from .kernels import all_finite, from_fields
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
    """Training set, one signal per column of the m x N ``values``.

    Every loader returns ``values`` signal-major: F-ordered, so each signal
    is one contiguous column. That is the layout ``aksvd_train`` takes Y in,
    so pretraining on a loaded set makes no copy of it.
    """

    values: np.ndarray

    def validate(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("signal matrix must be 2-D with at least one column")
        if not all_finite(self.values):
            raise ValueError("signal matrix contains non-finite entries")


# Rows in one block of signals (or, in ``synth``, of noise) that a loader
# forms a temporary for, in place of one temporary as large as Y. At m = 784,
# N = 8000 (2 cores) synth's transposed noise add took 20 ms in blocks of 64
# rows, against 36 ms in blocks of 16 and 26 ms for one add of a whole array.
BLOCK_ROWS = 64


def _apply_normalization(rows: np.ndarray, normalize: str) -> None:
    """Normalize the signal-major ``rows`` (one signal per row) in place."""
    if normalize not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalize!r}; choose one of {NORMALIZATIONS}")
    if normalize == "unit01":
        rows /= 255.0
    elif normalize == "per_column_l2":
        # a block of signals at a time: each norm sums the same squares in
        # the same order as one norm over all of them, and no m x N square
        # is formed
        for a in range(0, rows.shape[0], BLOCK_ROWS):
            part = rows[a:a + BLOCK_ROWS]
            part /= np.maximum(np.linalg.norm(part, axis=1), 1e-300)[:, None]


def _select(rows: np.ndarray, labels: np.ndarray | None, label_filter: int | None,
            max_signals: int | None) -> np.ndarray:
    """The file loaders' shared selection: the signal-major ``rows`` labelled
    ``label_filter``, in file order, then the first ``max_signals`` of them.
    Rows are selected before they are converted to float, so no float copy of
    an unselected signal is made."""
    if label_filter is not None:
        rows = rows[labels == label_filter]
        if rows.shape[0] == 0:
            raise ValueError(f"no signals survived the label filter (label_filter={label_filter})")
    if max_signals is not None:
        rows = rows[:max_signals]
    return rows


def _signal_matrix(rows: np.ndarray, normalize: str) -> SignalMatrix:
    """The file loaders' shared tail: normalize the loader's own float
    ``rows`` in place and return them as signal-major ``values``."""
    _apply_normalization(rows, normalize)
    return SignalMatrix(values=np.ascontiguousarray(rows).T)


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

    if label_filter is not None and labels is None:
        raise ValueError("label_filter requires a labels file")
    tags = None if labels is None else _read_idx(labels, IDX_LABELS_MAGIC)
    if tags is not None and tags.shape[0] != n:
        raise FormatError(f"{labels}: {tags.shape[0]} labels for {n} images in {images}")
    flat = _select(pixels.reshape(n, rows * cols), tags, label_filter, max_signals)
    return _signal_matrix(flat.astype(float), normalize)


def _read_cifar_batch(path: str) -> np.ndarray:
    """One batch file's records, one row of 3073 bytes each."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        expected = (len(raw) // CIFAR_RECORD_BYTES + 1) * CIFAR_RECORD_BYTES
        raise FormatError(
            f"{path}: {len(raw)} bytes is not a multiple of {CIFAR_RECORD_BYTES} "
            f"(nearest record boundary {expected})")
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)


def load_cifar10(batches: list[str], label_filter: int | None = None,
                 grayscale: str = "mean", max_signals: int | None = None,
                 normalize: str = "unit01") -> SignalMatrix:
    """Load CIFAR-10 binary batches as grayscale 1024-pixel signals.

    Each record is 3073 bytes: a label byte followed by the R, G, B planes of
    a 32x32 image. ``grayscale`` is either "mean" (unweighted plane average)
    or "luminance" (0.299 R + 0.587 G + 0.114 B). Every class is loaded
    unless ``label_filter`` names one.
    """
    if grayscale not in ("mean", "luminance"):
        raise ValueError(f"grayscale must be 'mean' or 'luminance', got {grayscale!r}")
    records = np.concatenate([_read_cifar_batch(path) for path in batches])
    records = _select(records, records[:, 0], label_filter, max_signals)
    # the gray plane is formed from the uint8 planes, with no float copy of all three
    planes = records[:, 1:].reshape(-1, 3, 1024)
    if grayscale == "mean":
        gray = planes.mean(axis=1, dtype=float)
    else:
        gray = 0.299 * planes[:, 0]
        gray += 0.587 * planes[:, 1]
        gray += 0.114 * planes[:, 2]
    return _signal_matrix(gray, normalize)


def load_csv(path: str, signals_in: str = "columns", max_signals: int | None = None,
             normalize: str = "none") -> SignalMatrix:
    """Load a rectangular numeric CSV file as a signal matrix.

    With ``signals_in="columns"`` the parsed matrix is copied once into the
    signal-major layout; with ``"rows"`` the kept rows are copied only when
    ``max_signals`` drops some, so no dropped signal stays in memory."""
    if signals_in not in ("columns", "rows"):
        raise ValueError("signals_in must be 'columns' or 'rows'")
    try:
        with open(path) as f:    # an unreadable path is the OSError that names it
            values = np.loadtxt(f, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: not a rectangular numeric CSV ({exc})") from exc
    rows = _select(values if signals_in == "rows" else values.T, None, None, max_signals)
    if signals_in == "rows" and rows.shape[0] < values.shape[0]:
        rows = rows.copy()    # a view would keep the dropped signals alive
    return _signal_matrix(rows, normalize)


def save_csv(matrix: np.ndarray, path: str) -> None:
    """Write a matrix as CSV with enough digits to round-trip doubles exactly."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


SIGNS = np.array([-1.0, 1.0])


def synth(m: int, N: int, n_planted: int, sparsity: int, seed: int, noise_sigma: float = 0.0,
          coeff_low: float | None = None, coeff_high: float | None = None):
    """Seeded planted-model generator: Y = D* X* + noise.

    D* has ``n_planted`` unit-norm Gaussian atoms; each signal combines
    ``sparsity`` distinct atoms. Coefficients are standard normal unless
    ``coeff_low``/``coeff_high`` are given (both or neither), in which case
    magnitudes are uniform in that range with random signs (useful for keeping
    signal scales in a band). Gaussian noise of standard deviation
    ``noise_sigma`` >= 0 is added. Returns (SignalMatrix, Dictionary,
    SparseCode); the signals are signal-major, like every loader's.
    """
    if sparsity > n_planted:
        raise ValueError("sparsity cannot exceed the number of planted atoms")
    # checked before any draw, so a valid call's stream is that of an unchecked one
    if (coeff_low is None) != (coeff_high is None):
        raise ValueError(f"coeff_low and coeff_high must be set together, got "
                         f"coeff_low={coeff_low}, coeff_high={coeff_high}")
    if coeff_low is not None and not coeff_low <= coeff_high:
        raise ValueError(f"coeff_low={coeff_low} must not exceed coeff_high={coeff_high}")
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be at least 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n_planted))
    D /= np.linalg.norm(D, axis=0)
    XT = np.zeros((N, n_planted))    # the planted code, signal-major
    for ell in range(N):
        support = np.sort(rng.choice(n_planted, size=sparsity, replace=False))
        if coeff_low is None:
            coeffs = rng.standard_normal(sparsity)
        else:
            coeffs = rng.uniform(coeff_low, coeff_high, size=sparsity)
            coeffs *= SIGNS[rng.integers(0, 2, size=sparsity)]   # as rng.choice(SIGNS, sparsity)
        XT[ell, support] = coeffs
    # D X formed signal-major. A BLAS need not round a product and its
    # transpose alike, so this is D @ X to round-off, bit for bit where it does.
    Y = (XT @ D.T).T
    if noise_sigma > 0:
        # The noise fills an m x N array row by row from the generator's
        # stream. Drawing it in blocks of rows gives the same numbers with no
        # second m x N array; each block is added through Y^T, whose rows are
        # Y's contiguous columns.
        block = np.empty((min(m, BLOCK_ROWS), N))
        for a in range(0, m, BLOCK_ROWS):
            part = block[:m - a]
            rng.standard_normal(out=part)
            part *= noise_sigma
            Y.T[:, a:a + part.shape[0]] += part.T
    return SignalMatrix(values=Y), Dictionary(atoms=D), SparseCode(matrix=XT.T, sparsity=sparsity)


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
        for name in ("m", "n_signals", "max_signals"):    # array sizes and a slice bound
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"dataset {name} must be at least 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"dataset seed must be at least 0, got {self.seed}")
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
