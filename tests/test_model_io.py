import json

import numpy as np
import pytest

from rkdl.bench import runtime_env
from rkdl.kernel_dl import KdlConfig, rkdl_train
from rkdl.kernels import KernelSpec
from rkdl.linear_dl import DLConfig, aksvd_train
from rkdl.datasets import synth
from rkdl.model_io import load_model, save_model


def trained_model():
    signals, _, _ = synth(10, 120, 8, 3, seed=3)
    Y = signals.values
    vectors, _ = aksvd_train(Y, DLConfig(n_atoms=8, sparsity=3, iters=4, seed=1))
    spec = KernelSpec("rbf", sigma=2.0, denom_factor=1.0)
    cfg = KdlConfig(n_atoms=4, sparsity=2, iters=3, seed=2)
    kdict, _, trace = rkdl_train(Y, vectors, spec, cfg)
    return kdict, trace


def test_model_round_trip(tmp_path):
    kdict, trace = trained_model()
    path = str(tmp_path / "model.json")
    save_model(path, kdict, "rkdl-d", config={"sparsity": 2}, trace=trace)
    bundle = load_model(path)
    np.testing.assert_array_equal(bundle.kdict.coefficients, kdict.coefficients)
    np.testing.assert_array_equal(bundle.kdict.vectors.atoms, kdict.vectors.atoms)
    assert bundle.kdict.kernel == kdict.kernel
    assert bundle.method == "rkdl-d"
    assert bundle.config == {"sparsity": 2}
    assert bundle.trace.errors == trace.errors
    assert bundle.trace.total_seconds == trace.total_seconds


def test_saved_bytes_are_the_json_text_and_arrays_round_trip(tmp_path):
    kdict, trace = trained_model()
    kdict.coefficients[0, 0] = np.finfo(float).max    # NaN and infinity are refused on load
    kdict.coefficients[1, 0] = -0.0
    kdict.coefficients[2, 0] = 1e-300
    path = tmp_path / "model.json"
    save_model(str(path), kdict, "rkdl-d", config={"sparsity": 2}, trace=trace)
    text = path.read_text()
    assert text == json.dumps(json.loads(text))   # compact, as the C encoder writes it
    bundle = load_model(str(path))
    np.testing.assert_array_equal(bundle.kdict.coefficients, kdict.coefficients)
    assert np.signbit(bundle.kdict.coefficients[1, 0])
    np.testing.assert_array_equal(bundle.kdict.vectors.atoms, kdict.vectors.atoms)


def test_model_records_the_runtime_env_and_files_without_it_load(tmp_path):
    kdict, trace = trained_model()
    path = tmp_path / "model.json"
    save_model(str(path), kdict, "rkdl-d", config={"sparsity": 2}, trace=trace)
    assert load_model(str(path)).env == runtime_env()
    doc = json.loads(path.read_text())
    del doc["env"]    # as written before the env was recorded
    path.write_text(json.dumps(doc))
    bundle = load_model(str(path))
    assert bundle.env is None and bundle.trace.errors == trace.errors
    np.testing.assert_array_equal(bundle.kdict.coefficients, kdict.coefficients)


def test_model_carries_elapsed_seconds_and_files_without_them_load(tmp_path):
    kdict, trace = trained_model()
    path = tmp_path / "model.json"
    save_model(str(path), kdict, "rkdl-d", config={"sparsity": 2}, trace=trace)
    assert len(trace.elapsed_seconds) == len(trace.errors)
    assert load_model(str(path)).trace.elapsed_seconds == trace.elapsed_seconds
    doc = json.loads(path.read_text())
    del doc["trace"]["elapsed_seconds"]    # as written before they were recorded
    path.write_text(json.dumps(doc))
    bundle = load_model(str(path))
    assert bundle.trace.elapsed_seconds == [] and bundle.trace.errors == trace.errors


def test_model_without_trace(tmp_path):
    kdict, _ = trained_model()
    path = str(tmp_path / "bare.json")
    save_model(path, kdict, "kdl", config={})
    assert load_model(path).trace is None


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ValueError, match="container"):
        load_model(str(path))


def test_load_model_rejects_future_version(tmp_path):
    kdict, _ = trained_model()
    path = str(tmp_path / "model.json")
    save_model(path, kdict, "kdl", config={})
    import json
    doc = json.load(open(path))
    doc["version"] = 99
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_model(path)
