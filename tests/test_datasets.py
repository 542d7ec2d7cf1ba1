import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import synth_reference
from rkdl.datasets import (
    BLOCK_ROWS,
    CIFAR_RECORD_BYTES,
    SOURCES,
    DatasetSpec,
    FormatError,
    load_cifar10,
    load_csv,
    load_dataset,
    load_idx,
    save_csv,
    synth,
)
from rkdl.linear_dl import DLConfig, aksvd_train


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_idx_images(path, images):
    """images: (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    header = (2051).to_bytes(4, "big") + n.to_bytes(4, "big") \
        + rows.to_bytes(4, "big") + cols.to_bytes(4, "big")
    path.write_bytes(header + images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    header = (2049).to_bytes(4, "big") + len(labels).to_bytes(4, "big")
    path.write_bytes(header + np.asarray(labels, dtype=np.uint8).tobytes())


def make_idx_pair(tmp_path, n=60, rows=7, cols=7, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


def write_cifar_batch(path, labels, pixels):
    """labels: (n,), pixels: (n, 3072) uint8."""
    rec = np.concatenate([np.asarray(labels, dtype=np.uint8)[:, None],
                          pixels.astype(np.uint8)], axis=1)
    path.write_bytes(rec.tobytes())


# --------------------------------------------------------------------- IDX

def test_load_idx_shapes_and_values(tmp_path):
    ip, lp, images, labels = make_idx_pair(tmp_path)
    sm = load_idx(str(ip), str(lp), normalize="none")
    assert sm.values.shape == (49, 60)
    np.testing.assert_array_equal(sm.values[:, 13], images[13].reshape(-1).astype(float))
    sm.validate()


def test_load_idx_bad_magic_names_offset(tmp_path):
    ip, lp, _, _ = make_idx_pair(tmp_path)
    with pytest.raises(FormatError, match="byte offset 0"):
        load_idx(str(lp), None)  # labels file has the wrong magic for images


def test_load_idx_label_filter_matches_histogram(tmp_path):
    # cross-check the filter count against an independent label histogram
    ip, lp, _, labels = make_idx_pair(tmp_path, n=500, seed=3)
    histogram = np.bincount(labels, minlength=10)
    for digit in (0, 5, 9):
        sm = load_idx(str(ip), str(lp), label_filter=digit)
        assert sm.values.shape[1] == histogram[digit]


def test_load_idx_filter_preserves_order(tmp_path):
    ip, lp, images, labels = make_idx_pair(tmp_path, n=200, seed=4)
    sm = load_idx(str(ip), str(lp), label_filter=5, normalize="none")
    wanted = np.flatnonzero(labels == 5)
    for k, idx in enumerate(wanted):
        np.testing.assert_array_equal(sm.values[:, k], images[idx].reshape(-1).astype(float))


def test_load_idx_unit01_range(tmp_path):
    ip, lp, _, _ = make_idx_pair(tmp_path)
    sm = load_idx(str(ip), str(lp), normalize="unit01")
    assert sm.values.min() >= 0.0 and sm.values.max() <= 1.0


def test_load_idx_count_mismatch(tmp_path):
    ip, lp, _, _ = make_idx_pair(tmp_path, n=60)
    bad = tmp_path / "short_labels.idx"
    write_idx_labels(bad, np.zeros(59, dtype=np.uint8))
    with pytest.raises(FormatError, match="59 labels for 60 images"):
        load_idx(str(ip), str(bad))


def test_load_idx_requires_labels_for_filter(tmp_path):
    ip, _, _, _ = make_idx_pair(tmp_path)
    with pytest.raises(ValueError, match="labels"):
        load_idx(str(ip), None, label_filter=3)


def test_load_idx_truncated_payload(tmp_path):
    ip, _, _, _ = make_idx_pair(tmp_path)
    raw = ip.read_bytes()
    (tmp_path / "trunc.idx").write_bytes(raw[:-10])
    with pytest.raises(FormatError, match="payload"):
        load_idx(str(tmp_path / "trunc.idx"), None)


def test_load_idx_deterministic(tmp_path):
    ip, lp, _, _ = make_idx_pair(tmp_path)
    a = load_idx(str(ip), str(lp))
    b = load_idx(str(ip), str(lp))
    np.testing.assert_array_equal(a.values, b.values)


# ------------------------------------------------------------------ CIFAR-10

def test_load_cifar10_label_filter_count(tmp_path):
    # labels cycle 0..9, so each batch holds exactly n/10 zero-label records
    rng = np.random.default_rng(5)
    paths = []
    for b in range(5):
        n = 200
        labels = np.arange(n) % 10
        pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
        p = tmp_path / f"batch_{b}.bin"
        write_cifar_batch(p, labels, pixels)
        paths.append(str(p))
    sm = load_cifar10(paths, label_filter=0)
    assert sm.values.shape == (1024, 100)
    sm.validate()


def test_load_cifar10_grayscale_equal_planes(tmp_path):
    rng = np.random.default_rng(6)
    plane = rng.integers(0, 256, size=(4, 1024), dtype=np.uint8)
    pixels = np.concatenate([plane, plane, plane], axis=1)
    p = tmp_path / "batch.bin"
    write_cifar_batch(p, np.zeros(4, dtype=np.uint8), pixels)
    for mode in ("mean", "luminance"):
        sm = load_cifar10([str(p)], label_filter=0, grayscale=mode, normalize="none")
        np.testing.assert_allclose(sm.values, plane.T.astype(float), atol=1e-12)


def test_load_cifar10_truncated_file(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * (2 * CIFAR_RECORD_BYTES + 17))
    with pytest.raises(FormatError, match="6163 bytes"):
        load_cifar10([str(p)])


def test_load_cifar10_luminance_weights(tmp_path):
    pixels = np.zeros((1, 3072), dtype=np.uint8)
    pixels[0, :1024] = 100        # red plane only
    p = tmp_path / "red.bin"
    write_cifar_batch(p, [0], pixels)
    sm = load_cifar10([str(p)], label_filter=0, grayscale="luminance", normalize="none")
    np.testing.assert_allclose(sm.values, np.full((1024, 1), 29.9), atol=1e-12)


def test_load_cifar10_empty_after_filter(tmp_path):
    p = tmp_path / "ones.bin"
    write_cifar_batch(p, np.ones(3, dtype=np.uint8),
                      np.zeros((3, 3072), dtype=np.uint8))
    with pytest.raises(ValueError, match="survived"):
        load_cifar10([str(p)], label_filter=0)


def test_load_cifar10_and_a_cifar10_block_load_the_same_signals(tmp_path):
    # neither filters by label unless told to: every class is loaded
    rng = np.random.default_rng(11)
    p = tmp_path / "batch.bin"
    write_cifar_batch(p, np.arange(30) % 10, rng.integers(0, 256, size=(30, 3072), dtype=np.uint8))
    direct = load_cifar10([str(p)])
    block = load_dataset(DatasetSpec(source="cifar10", batches=[str(p)]))
    assert direct.values.shape == (1024, 30)
    np.testing.assert_array_equal(direct.values, block.values)


def test_file_loaders_form_one_float_array(tmp_path):
    # the signals are selected and converted from the file's bytes, then
    # normalized in place: no second float array the size of the result
    rng = np.random.default_rng(12)
    n = 1000
    ip = tmp_path / "images.idx"
    write_idx_images(ip, rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
    cp = tmp_path / "batch.bin"
    write_cifar_batch(cp, np.arange(n) % 10, rng.integers(0, 256, size=(n, 3072), dtype=np.uint8))
    for normalize in ("unit01", "per_column_l2"):
        sm, peak = traced_peak(lambda: load_idx(str(ip), normalize=normalize))
        assert peak < 1.3 * sm.values.nbytes
        for grayscale in ("mean", "luminance"):
            sm, peak = traced_peak(lambda: load_cifar10([str(cp)], grayscale=grayscale,
                                                        normalize=normalize))
            assert peak < 3.0 * sm.values.nbytes


@pytest.mark.parametrize("signals_in", ["columns", "rows"])
def test_per_column_l2_matches_one_norm_over_all_signals(tmp_path, signals_in):
    # the norms are formed a block of signals at a time; over more signals
    # than one block they are the bits of one norm over the parsed matrix
    rng = np.random.default_rng(13)
    M = rng.standard_normal((37, 2 * BLOCK_ROWS + 5)) * 3.0
    M[:, 4] = 0.0
    save_csv(M if signals_in == "columns" else M.T, str(tmp_path / "m.csv"))
    sm = load_csv(str(tmp_path / "m.csv"), signals_in=signals_in, normalize="per_column_l2")
    Y = M if signals_in == "columns" else np.asfortranarray(M)    # the parsed layout
    np.testing.assert_array_equal(sm.values, Y / np.maximum(np.linalg.norm(Y, axis=0), 1e-300))


def test_load_idx_empty_label_filter_is_named(tmp_path):
    ip, lp, _, labels = make_idx_pair(tmp_path, n=60)
    with pytest.raises(ValueError, match="survived the label filter"):
        load_idx(str(ip), str(lp), label_filter=int(labels.max()) + 1)


def test_load_idx_max_signals(tmp_path):
    ip, lp, _, _ = make_idx_pair(tmp_path, n=60)
    sm = load_idx(str(ip), str(lp), max_signals=10)
    assert sm.values.shape[1] == 10


# ----------------------------------------------------------------------- CSV

def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    M = rng.standard_normal((9, 5)) * np.exp(rng.uniform(-30, 30, size=(9, 5)))
    path = tmp_path / "m.csv"
    save_csv(M, str(path))
    back = load_csv(str(path), signals_in="columns")
    np.testing.assert_array_equal(back.values, M)


def test_csv_signals_in_rows(tmp_path):
    M = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "m.csv"
    save_csv(M, str(path))
    assert load_csv(str(path), signals_in="rows").values.shape == (4, 3)


def test_csv_rejects_ragged_and_non_numeric(tmp_path):
    p1 = tmp_path / "ragged.csv"
    p1.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError):
        load_csv(str(p1))
    p2 = tmp_path / "text.csv"
    p2.write_text("1,2\n3,abc\n")
    with pytest.raises(ValueError):
        load_csv(str(p2))


# ------------------------------------------------------------------ synthetic

def test_synth_noise_free_consistency():
    signals, dictionary, code = synth(10, 50, 8, 3, seed=1)
    np.testing.assert_allclose(signals.values, dictionary.atoms @ code.matrix, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(dictionary.atoms, axis=0), 1.0, atol=1e-12)
    code.validate()


def test_synth_deterministic():
    a, _, _ = synth(6, 30, 5, 2, seed=9, noise_sigma=0.1)
    b, _, _ = synth(6, 30, 5, 2, seed=9, noise_sigma=0.1)
    np.testing.assert_array_equal(a.values, b.values)


def test_synth_coefficient_band():
    _, _, code = synth(6, 40, 5, 2, seed=3, coeff_low=1.0, coeff_high=3.0)
    nz = code.matrix[code.matrix != 0]
    assert np.all((np.abs(nz) >= 1.0) & (np.abs(nz) <= 3.0))


def test_synth_sparsity_bound():
    with pytest.raises(ValueError):
        synth(6, 10, 4, 5, seed=0)


@pytest.mark.parametrize("m,N,n_planted,sparsity,noise_sigma,band", [
    (784, 2000, 60, 5, 0.05, (1.0, 3.0)),     # the benchmark's desk generator
    (BLOCK_ROWS + 37, 333, 20, 4, 0.05, (None, None)),   # a ragged last noise block
    (7, 1, 5, 2, 0.1, (1.0, 3.0)),            # one signal
    (50, 120, 12, 3, 0.0, (None, None)),      # no noise
    (300, 50, 60, 5, 0.05, (1.0, 3.0)),       # a BLAS may round D X two ways here
])
def test_synth_matches_the_reference_generator(m, N, n_planted, sparsity, noise_sigma, band):
    signals, planted, code = synth(m, N, n_planted, sparsity, 3, noise_sigma, *band)
    Y, D, X = synth_reference(m, N, n_planted, sparsity, 3, noise_sigma, *band)
    np.testing.assert_array_equal(planted.atoms, D)
    np.testing.assert_array_equal(code.matrix, X)
    assert signals.values.flags.f_contiguous
    # synth forms D X as (X^T D^T)^T. Where the BLAS rounds both orientations
    # alike, Y is the reference's bits; elsewhere it is within the product's
    # round-off, and the noise, drawn from the same stream, is the same.
    if np.array_equal(D @ X, (X.T @ D.T).T):
        np.testing.assert_array_equal(signals.values, Y)
    bound = 2 * n_planted * np.finfo(float).eps * (np.abs(D) @ np.abs(X) + np.abs(Y))
    assert np.all(np.abs(signals.values - Y) <= bound)


def test_synth_holds_one_noise_block_beside_y():
    signals, peak = traced_peak(lambda: synth(784, 2000, 60, 5, 1, 0.05, 1.0, 3.0))
    assert peak <= 1.3 * signals[0].values.nbytes


def test_pretraining_on_loaded_signals_copies_no_signals():
    # load_dataset returns Y signal-major, the layout aksvd_train takes it in
    Y = load_dataset(DatasetSpec(source="synthetic", m=784, n_signals=2000, n_components=60,
                                 sparsity=5, noise_sigma=0.05, coeff_low=1.0, coeff_high=3.0,
                                 seed=1)).values
    _, peak = traced_peak(lambda: aksvd_train(Y, DLConfig(n_atoms=50, sparsity=5, iters=1)))
    assert peak <= 0.7 * Y.nbytes


def test_every_loader_returns_signal_major_values(tmp_path):
    ip, lp, _, labels = make_idx_pair(tmp_path, n=200, seed=14)
    cp = tmp_path / "batch.bin"
    rng = np.random.default_rng(14)
    write_cifar_batch(cp, np.arange(40) % 10, rng.integers(0, 256, size=(40, 3072), dtype=np.uint8))
    save_csv(rng.standard_normal((6, 9)), str(tmp_path / "m.csv"))
    specs = [
        {"source": "idx", "images": str(ip), "labels": str(lp),
         "label_filter": int(labels[0]), "max_signals": 5},
        {"source": "cifar10", "batches": [str(cp)]},
        {"source": "csv", "path": str(tmp_path / "m.csv"), "signals_in": "rows"},
        {"source": "csv", "path": str(tmp_path / "m.csv"), "signals_in": "columns"},
        {"source": "synthetic", "m": 12, "n_signals": 40, "noise_sigma": 0.1},
    ]
    for d in specs:
        values = load_dataset(DatasetSpec.from_dict(d)).values
        assert values.flags.f_contiguous and values.shape[1] > 1, d


def test_rkdl_threads_warns_when_numpy_came_first():
    # a fresh interpreter per import order; the cap can only act when rkdl
    # loads before numpy does
    env = {**os.environ, "RKDL_THREADS": "1"}

    def stderr(code):
        return subprocess.run([sys.executable, "-W", "always", "-c", code], env=env,
                              capture_output=True, text=True, check=True).stderr

    late = stderr("import numpy, rkdl")
    assert "UserWarning" in late and "RKDL_THREADS" in late and "import rkdl before numpy" in late
    assert "RKDL_THREADS" not in stderr("import rkdl")


# ---------------------------------------------------------------- DatasetSpec

def test_dataset_spec_round_trip_and_dispatch(tmp_path):
    spec = DatasetSpec(source="synthetic", m=12, n_signals=40, n_components=6,
                       sparsity=2, seed=4)
    sm = load_dataset(spec)
    assert sm.values.shape == (12, 40)
    again = DatasetSpec.from_dict(spec.to_dict())
    np.testing.assert_array_equal(load_dataset(again).values, sm.values)


SPECS = {"idx": {"images": "i.idx", "labels": "l.idx", "label_filter": 5},
         "cifar10": {"batches": ["b1.bin", "b2.bin"], "grayscale": "luminance"},
         "csv": {"path": "y.csv", "signals_in": "rows", "max_signals": 30},
         "synthetic": {"m": 12, "n_signals": 40, "coeff_low": 1.0, "coeff_high": 3.0}}


@pytest.mark.parametrize("source", SPECS)
def test_dataset_spec_round_trips_with_the_loader_normalization(source):
    spec = DatasetSpec.from_dict({"source": source, **SPECS[source]})
    d = spec.to_dict()
    assert list(d) == ["source", *SOURCES[source][1]]
    assert DatasetSpec.from_dict(d) == spec
    assert spec.normalize == {"idx": "unit01", "cifar10": "unit01", "csv": "none"}.get(source)


@pytest.mark.parametrize("source,key,value", [("synthetic", "max_signals", 10),
                                              ("idx", "n_signals", 300),
                                              ("csv", "grayscale", "luminance")])
def test_dataset_spec_rejects_a_field_its_source_does_not_read(source, key, value):
    with pytest.raises(ValueError, match=rf"'{source}' does not read \['{key}'\]"):
        DatasetSpec.from_dict({"source": source, key: value})


def test_dataset_spec_rejects_unknown_source():
    with pytest.raises(ValueError, match="unknown dataset source 'mnist'"):
        DatasetSpec(source="mnist")


def test_load_dataset_names_the_missing_input():
    with pytest.raises(ValueError, match="idx dataset needs 'images'"):
        load_dataset(DatasetSpec(source="idx"))


def test_load_csv_max_signals_keeps_the_first_signals(tmp_path):
    M = np.arange(24.0).reshape(4, 6)
    save_csv(M, str(tmp_path / "m.csv"))
    spec = DatasetSpec(source="csv", path=str(tmp_path / "m.csv"), max_signals=4)
    np.testing.assert_array_equal(load_dataset(spec).values, M[:, :4])


def test_dataset_spec_rejects_label_filter_on_unlabeled():
    with pytest.raises(ValueError, match="label_filter"):
        DatasetSpec(source="csv", path="x.csv", label_filter=1)


def test_dataset_spec_unknown_fields():
    with pytest.raises(ValueError, match="unknown dataset fields"):
        DatasetSpec.from_dict({"source": "synthetic", "bogus": 1})
