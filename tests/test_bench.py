import json
import os
import re
import sys

import numpy as np
import pytest

from rkdl import kernel_dl
from rkdl.bench import ExperimentConfig, emit_outputs, pretrain, run_experiment
from rkdl.cli import main as cli_main
from rkdl.datasets import load_dataset, save_csv, synth
from rkdl.kernel_dl import METHODS
from rkdl.model_io import load_model


def base_config(**overrides):
    d = {
        "dataset": {"source": "synthetic", "m": 16, "n_signals": 300, "n_components": 12,
                    "sparsity": 3, "seed": 42},
        "methods": ["kdl", "rkdl-d", "orkdl-d", "morkdl-d"],
        "kernel": {"family": "rbf", "sigma": 2.0, "denom_factor": 1.0},
        "kernel_dl": {"n_atoms": 6, "sparsity": 2, "iters": 3, "grad_steps": 2,
                      "learning_rate": 1e-5},
        "linear_dl": {"n_atoms": 10, "sparsity": 3, "iters": 3},
        "rounds": 2,
        "base_seed": 100,
    }
    d.update(overrides)
    return d


def test_smoke_single_method_single_round():
    cfg = ExperimentConfig.from_dict(base_config(methods=["rkdl-d"], rounds=1))
    result = run_experiment(cfg)
    res = result.methods["rkdl-d"]
    assert res.failed is None
    assert res.errors.shape == (1, 4)  # iters + 1 entries
    assert np.all(np.isfinite(res.errors))
    assert len(res.seconds) == 1 and len(res.pretrain_seconds) == 1


def test_row_counting_contract(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    result = run_experiment(cfg)
    paths = emit_outputs(result, str(tmp_path))
    rows = open(paths["errors"]).read().strip().splitlines()
    # header + methods * rounds * (iters + 1)
    assert len(rows) - 1 == 4 * 2 * 4
    curves = open(paths["curves"]).read().strip().splitlines()
    assert curves[0] == "iteration,kdl,rkdl-d,orkdl-d,morkdl-d"
    assert len(curves) - 1 == 4


def test_summary_round_trip_and_mean_consistency(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(rounds=3))
    result = run_experiment(cfg)
    paths = emit_outputs(result, str(tmp_path))
    summary = json.load(open(paths["summary"]))
    # means in summary.json must equal the arithmetic mean of the CSV rows
    per_method_finals: dict = {}
    for line in open(paths["errors"]).read().strip().splitlines()[1:]:
        method, rnd, it, err = line.split(",")
        if int(it) == 3:
            per_method_finals.setdefault(method, []).append(float(err))
    for method, finals in per_method_finals.items():
        assert len(finals) == 3
        assert abs(summary["methods"][method]["final_error_mean"] - np.mean(finals)) < 1e-12
        assert summary["methods"][method]["warnings"] == {}


def test_summary_warnings_summed_over_rounds(tmp_path):
    # the linear-kernel Gram of 300 signals in 16 dimensions is singular, so
    # every kdl round ridges it once
    cfg = ExperimentConfig.from_dict(base_config(kernel={"family": "linear"}))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    assert summary["methods"]["kdl"]["warnings"] == {"kdd_ridge": 2}
    for method in ("rkdl-d", "orkdl-d", "morkdl-d"):
        expected: dict = {}
        for trace in result.methods[method].traces:
            for name, count in trace.warnings.items():
                expected[name] = expected.get(name, 0) + count
        assert summary["methods"][method]["warnings"] == expected


def test_summary_replaced_atoms_summed_over_rounds(tmp_path):
    # ten copies of each of 12 signals: the AK-SVD initial atoms repeat, and
    # the repeats go unused and are re-seeded
    signals, _, _ = synth(16, 12, 12, 3, seed=5)
    path = str(tmp_path / "repeated.csv")
    save_csv(np.tile(signals.values, (1, 10)), path)
    cfg = ExperimentConfig.from_dict(base_config(dataset={"source": "csv", "path": path},
                                                 methods=["kdl", "rkdl-d", "morkdl-d"]))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path / "out"))["summary"]))
    Y = load_dataset(cfg.dataset).values
    expected = {"unused": 0, "degenerate": 0}
    for r in range(cfg.rounds):
        for kind, count in pretrain(Y, cfg, cfg.base_seed + r).meta["replaced_atoms"].items():
            expected[kind] += count
    assert expected["unused"] > 0
    assert "replaced_atoms" not in summary["methods"]["kdl"]
    for method in ("rkdl-d", "morkdl-d"):
        assert summary["methods"][method]["replaced_atoms"] == expected


def test_summary_pretrain_phases_are_round_means(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(methods=["kdl", "rkdl-d", "orkdl-d"]))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    assert "pretrain_phase_seconds_mean" not in summary["methods"]["kdl"]
    for method in ("rkdl-d", "orkdl-d"):
        rounds = result.methods[method].pretrain_phase_seconds
        assert len(rounds) == cfg.rounds
        for phases, total in zip(rounds, result.methods[method].pretrain_seconds):
            assert sum(phases.values()) <= total
        means = summary["methods"][method]["pretrain_phase_seconds_mean"]
        assert set(means) == {"coding", "sweep"}
        for phase, mean in means.items():
            assert mean == float(np.mean([r[phase] for r in rounds])) > 0.0


def test_reruns_are_bit_identical(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    emit_outputs(run_experiment(cfg), str(tmp_path / "a"))
    emit_outputs(run_experiment(cfg), str(tmp_path / "b"))
    assert (tmp_path / "a" / "errors.csv").read_bytes() == (tmp_path / "b" / "errors.csv").read_bytes()


def test_reduced_methods_share_round_dictionary():
    # same round seed -> rkdl-d and orkdl-d share D_init, so with a zero
    # learning rate their whole traces coincide
    cfg = ExperimentConfig.from_dict({**base_config(methods=["rkdl-d", "orkdl-d"], rounds=1),
                                      "kernel_dl": {"n_atoms": 6, "sparsity": 2, "iters": 3,
                                                    "grad_steps": 2, "learning_rate": 0.0}})
    result = run_experiment(cfg)
    np.testing.assert_array_equal(result.methods["rkdl-d"].errors,
                                  result.methods["orkdl-d"].errors)


def test_empty_method_list_rejected():
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig.from_dict(base_config(methods=[]))
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig.from_dict(base_config(methods=["nkdl"]))


@pytest.mark.parametrize("block,key", [("config", "round"), ("kernel", "sigam"),
                                       ("kernel_dl", "lr"), ("linear_dl", "atoms")])
def test_misspelt_key_names_its_block_and_key(block, key):
    d = base_config()
    (d if block == "config" else d[block])[key] = 3
    with pytest.raises(ValueError, match=rf"unknown {block} fields: \['{key}'\]"):
        ExperimentConfig.from_dict(d)


def test_missing_kernel_dl_block_is_named():
    d = base_config()
    del d["kernel_dl"]
    with pytest.raises(ValueError, match=r"missing config fields: \['kernel_dl'\]"):
        ExperimentConfig.from_dict(d)


def test_fractional_rounds_rejected_by_name():
    with pytest.raises(ValueError, match="rounds must be an integer, got 2.5"):
        ExperimentConfig.from_dict(base_config(rounds=2.5))


def test_summary_config_loads_back_to_the_run_config(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(methods=["rkdl-d"], rounds=1))
    paths = emit_outputs(run_experiment(cfg), str(tmp_path))
    with open(paths["summary"]) as f:
        assert ExperimentConfig.from_dict(json.load(f)["config"]) == cfg


@pytest.mark.parametrize("block,key,value", [("kernel_dl", "iters", 2.5),
                                             ("dataset", "n_signals", 300.0),
                                             ("kernel_dl", "dl_sparsity", 2.0),
                                             ("linear_dl", "sparsity", True)])
def test_non_integer_count_rejected_by_block_and_field(block, key, value):
    d = base_config()
    d[block] = {**d[block], key: value}
    with pytest.raises(ValueError, match=rf"{block}: {key} must be an integer, got {value!r}"):
        ExperimentConfig.from_dict(d)


def test_csv_run_summary_config_keeps_max_signals(tmp_path):
    save_csv(synth(16, 80, 12, 3, seed=2)[0].values, str(tmp_path / "y.csv"))
    dataset = {"source": "csv", "path": str(tmp_path / "y.csv"), "max_signals": 50}
    cfg = ExperimentConfig.from_dict(base_config(dataset=dataset, methods=["rkdl-d"], rounds=1))
    paths = emit_outputs(run_experiment(cfg), str(tmp_path))
    with open(paths["summary"]) as f:
        again = ExperimentConfig.from_dict(json.load(f)["config"])
    assert again == cfg
    assert load_dataset(again.dataset).values.shape == (16, 50)


def test_readme_example_config_round_trips():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S).group(1)
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_failed_method_recorded_and_others_continue(tmp_path):
    # KDL trips over the Gram cap; the reduced methods still complete
    cfg = ExperimentConfig.from_dict(base_config(max_gram_signals=100, rounds=1))
    result = run_experiment(cfg)
    assert result.methods["kdl"].failed is not None
    assert "cap" in result.methods["kdl"].failed
    assert result.methods["rkdl-d"].failed is None
    assert result.any_failed
    paths = emit_outputs(result, str(tmp_path))
    summary = json.load(open(paths["summary"]))
    assert summary["methods"]["kdl"]["rounds_completed"] == 0
    curves_header = open(paths["curves"]).readline().strip()
    assert curves_header == "iteration,rkdl-d,orkdl-d,morkdl-d"


# ------------------------------------------------------------------------ CLI

def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def test_cli_bench_determinism(tmp_path, capsys):
    cfg_path = write_config(tmp_path, rounds=2)
    rc1 = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "r1"), "--quiet"])
    rc2 = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "r2"), "--quiet"])
    assert rc1 == 0 and rc2 == 0
    assert (tmp_path / "r1" / "errors.csv").read_bytes() == (tmp_path / "r2" / "errors.csv").read_bytes()


def test_cli_bench_flag_overrides(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    rc = cli_main(["bench", "--config", cfg_path, "--method", "rkdl-d", "--rounds", "1",
                   "--seed", "7", "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert list(summary["methods"]) == ["rkdl-d"]
    assert summary["config"]["rounds"] == 1
    assert summary["config"]["base_seed"] == 7


def test_cli_bench_dataset_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    inline = json.dumps({"source": "synthetic", "m": 8, "n_signals": 60, "n_components": 5,
                         "sparsity": 2, "seed": 3})
    rc = cli_main(["bench", "--config", cfg_path, "--method", "rkdl-d", "--rounds", "1",
                   "--dataset", inline, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    summary = json.load(open(tmp_path / "out" / "summary.json"))
    assert summary["config"]["dataset"]["m"] == 8


def test_cli_bench_nonzero_exit_on_failure(tmp_path, capsys):
    cfg_path = write_config(tmp_path, max_gram_signals=100, rounds=1)
    rc = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1


def test_cli_train_and_code_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    model_path = str(tmp_path / "model.json")
    rc = cli_main(["train", "--config", cfg_path, "--method", "rkdl-d", "--out", model_path])
    assert rc == 0
    bundle = load_model(model_path)
    assert bundle.method == "rkdl-d"
    assert bundle.kdict.coefficients.shape == (10, 6)
    assert len(bundle.trace.errors) == 4

    # code fresh signals against the saved model
    signals, _, _ = synth(16, 25, 12, 3, seed=77)
    input_path = str(tmp_path / "new.csv")
    save_csv(signals.values, input_path)
    out_path = str(tmp_path / "codes.csv")
    rc = cli_main(["code", "--model", model_path, "--input", input_path,
                   "--output", out_path])
    assert rc == 0
    codes = np.loadtxt(out_path, delimiter=",", ndmin=2)
    assert codes.shape == (25, 6)  # one row per signal
    assert np.all(np.sum(codes != 0, axis=1) <= 2)  # sparsity from model config


def test_thread_cap_env_plumbing():
    # RKDL_THREADS must reach the BLAS thread-count variables before numpy
    # loads; check in a fresh interpreter
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-c", "import rkdl, os; print(os.environ.get('OMP_NUM_THREADS'))"],
        env={**__import__('os').environ, "RKDL_THREADS": "1"},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_cli_code_dimension_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    model_path = str(tmp_path / "model.json")
    cli_main(["train", "--config", cfg_path, "--method", "rkdl-d", "--out", model_path])
    bad = str(tmp_path / "bad.csv")
    save_csv(np.ones((5, 3)), bad)
    with pytest.raises(SystemExit):
        cli_main(["code", "--model", model_path, "--input", bad,
                  "--output", str(tmp_path / "c.csv")])


# ------------------------------------------------------------- method table

def swap_trainers(monkeypatch, seen: list) -> None:
    """Replace every binding of the four trainers in the loaded rkdl modules
    by a recording wrapper, matched by identity, the way the benchmark's
    tracer instruments them."""
    wrappers = {}
    for method, spec in METHODS.items():
        def wrapper(*args, _fn=getattr(kernel_dl, spec.trainer), _method=method, **kwargs):
            seen.append(_method)
            return _fn(*args, **kwargs)
        wrappers[id(getattr(kernel_dl, spec.trainer))] = wrapper
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rkdl" or name.startswith("rkdl.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])


def test_trainers_reached_through_kernel_dl_bindings(tmp_path, monkeypatch, capsys):
    seen: list = []
    swap_trainers(monkeypatch, seen)
    run_experiment(ExperimentConfig.from_dict(base_config(rounds=1)))
    assert seen == list(METHODS)
    seen.clear()
    cfg_path = write_config(tmp_path, rounds=1)
    for method in METHODS:
        rc = cli_main(["train", "--config", cfg_path, "--method", method,
                       "--out", str(tmp_path / f"{method}.json")])
        assert rc == 0
    assert seen == list(METHODS)


def test_cli_train_matches_run_experiment_round(tmp_path, capsys):
    result = run_experiment(ExperimentConfig.from_dict(base_config(rounds=1)))
    cfg_path = write_config(tmp_path, rounds=1)
    for method in METHODS:
        model_path = str(tmp_path / f"{method}.json")
        assert cli_main(["train", "--config", cfg_path, "--method", method,
                         "--out", model_path]) == 0
        bundle = load_model(model_path)
        assert bundle.trace.errors[-1] == result.methods[method].errors[0, -1]
        # methods that keep D fixed record that they took no gradient steps
        expected_steps = 0 if method in ("kdl", "rkdl-d") else 2
        assert bundle.config["grad_steps"] == expected_steps
