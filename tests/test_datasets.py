import numpy as np
import pytest

from rkdl.datasets import (
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
