import dataclasses
import json
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from rkdl import bench, cli, kernel_dl
from rkdl.bench import ExperimentConfig, emit_outputs, pretrain, run_experiment
from rkdl.cli import main as cli_main
from rkdl.datasets import DatasetSpec, load_csv, load_dataset, save_csv, synth
from rkdl.linear_dl import Dictionary, aksvd_train, init_dictionary
from rkdl.kernel_dl import METHODS
from rkdl.kernels import KernelSpec, gram, self_kernel_diag
from rkdl.model_io import load_model
from rkdl.sparse_coding import kernel_omp_batch


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


def test_method_seconds_are_the_trainer_traces_totals(tmp_path):
    result = run_experiment(ExperimentConfig.from_dict(base_config(methods=["kdl", "rkdl-d"])))
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    for method, res in result.methods.items():
        assert len(res.traces) == 2
        assert res.seconds == [t.total_seconds for t in res.traces]
        assert summary["methods"][method]["seconds_mean"] == float(np.mean(res.seconds))


def test_summary_elapsed_seconds_are_round_means(tmp_path):
    result = run_experiment(ExperimentConfig.from_dict(base_config(methods=["kdl", "rkdl-d"])))
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    for method, res in result.methods.items():
        means = np.mean([t.elapsed_seconds for t in res.traces], axis=0).tolist()
        assert summary["methods"][method]["elapsed_seconds_mean"] == means
        assert len(means) == 4
    pretrain = result.methods["rkdl-d"].pretrain_traces
    assert summary["methods"]["rkdl-d"]["pretrain"]["elapsed_seconds_mean"] == np.mean(
        [t.elapsed_seconds for t in pretrain], axis=0).tolist()


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
        # no fallback fires; greedy codes worse than the swept ones are counted
        rises = sum(t.warnings.get("code_rise", 0) for t in result.methods[method].traces)
        assert summary["methods"][method]["warnings"] == ({"code_rise": rises} if rises else {})


def test_summary_warnings_summed_over_rounds(tmp_path):
    # 300 noiseless signals in 16 dimensions, drawn from 12 components, give a
    # linear-kernel Gram of rank 12, so every kdl round drops the 288 signals
    # that depend on its 12 pivots
    cfg = ExperimentConfig.from_dict(base_config(kernel={"family": "linear"}))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    rises = sum(t.warnings.get("code_rise", 0) for t in result.methods["kdl"].traces)
    assert summary["methods"]["kdl"]["warnings"] == {"kdd_rank_drop": 2 * 288, "code_rise": rises}
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
    expected: Counter = Counter()
    for r in range(cfg.rounds):
        expected.update(pretrain(Y, cfg, cfg.base_seed + r).trace.warnings)
    assert expected["unused_atom"] > 0
    assert "pretrain" not in summary["methods"]["kdl"]
    for method in ("rkdl-d", "morkdl-d"):
        assert "replaced_atoms" not in summary["methods"][method]
        assert summary["methods"][method]["pretrain"]["warnings"] == dict(expected)


def test_summary_pretrain_phases_are_round_means(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config(methods=["kdl", "rkdl-d", "orkdl-d"]))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    assert "pretrain" not in summary["methods"]["kdl"]
    for method in ("rkdl-d", "orkdl-d"):
        assert "pretrain_phase_seconds_mean" not in summary["methods"][method]
        rounds = result.methods[method].pretrain_traces
        assert len(rounds) == cfg.rounds
        for trace, total in zip(rounds, result.methods[method].pretrain_seconds):
            assert sum(trace.phase_seconds.values()) <= total
        means = summary["methods"][method]["pretrain"]["phase_seconds_mean"]
        assert set(means) == {"coding", "sweep"}
        for phase, mean in means.items():
            assert mean == float(np.mean([t.phase_seconds[phase] for t in rounds])) > 0.0


def test_pretraining_ridges_reach_trace_and_summary(tmp_path, monkeypatch):
    # the initial dictionary's atom 9 is atom 0 moved by 1e-7, and sparsity =
    # atom count puts both twins in every support: OMP ridges the later pick
    cfg = ExperimentConfig.from_dict(base_config(
        methods=["kdl", "rkdl-d"], linear_dl={"n_atoms": 10, "sparsity": 10, "iters": 2}))
    Y = load_dataset(cfg.dataset).values
    atoms = init_dictionary(Y, 10, seed=0).atoms
    atoms[:, 9] = atoms[:, 0] + 1e-7 * np.random.default_rng(1).standard_normal(Y.shape[0])
    twins = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
    monkeypatch.setattr(bench, "aksvd_train",
                        lambda Y, dl_cfg: aksvd_train(Y, dl_cfg, D_init=twins))
    result = run_experiment(cfg)
    summary = json.load(open(emit_outputs(result, str(tmp_path))["summary"]))
    traces = result.methods["rkdl-d"].pretrain_traces
    assert len(traces) == cfg.rounds
    assert all(t.warnings["linear_ridge"] > 0 for t in traces)
    assert (summary["methods"]["rkdl-d"]["pretrain"]["warnings"]["linear_ridge"]
            == sum(t.warnings["linear_ridge"] for t in traces))
    assert "pretrain" not in summary["methods"]["kdl"]


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


def test_empty_method_list_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig.from_dict(base_config(methods=[]))
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig.from_dict(base_config(methods=["nkdl"]))
    # a result without methods has no tables to write
    empty = bench.RunResult(config=ExperimentConfig.from_dict(base_config()), methods={})
    with pytest.raises(ValueError, match="^experiment result contains no methods$"):
        emit_outputs(empty, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_repeated_method_rejected_by_name(tmp_path):
    with pytest.raises(ValueError, match="'kdl' is listed twice"):
        ExperimentConfig.from_dict(base_config(methods=["kdl", "rkdl-d", "kdl"]))
    cfg_path = write_config(tmp_path, rounds=1)
    with pytest.raises(SystemExit, match="'kdl' is listed twice"):
        cli_main(["bench", "--config", cfg_path, "--method", "kdl", "--method", "kdl",
                  "--out", str(tmp_path / "out"), "--quiet"])


@pytest.mark.parametrize("block,key", [("config", "round"), ("kernel", "sigam"),
                                       ("kernel_dl", "lr"), ("linear_dl", "atoms")])
def test_misspelt_key_names_its_block_and_key(block, key):
    d = base_config()
    (d if block == "config" else d[block])[key] = 3
    with pytest.raises(ValueError, match=rf"unknown {block} fields: \['{key}'\]"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("block", ["kernel_dl", "linear_dl"])
def test_trainer_seed_rejected_for_base_seed(block):
    # round r trains with seed base_seed + r, so a block's own seed is never read
    d = base_config()
    d[block] = {**d[block], "seed": 7}
    with pytest.raises(ValueError, match=rf"{block}: seed is not read.*base_seed.*--seed"):
        ExperimentConfig.from_dict(d)
    d[block]["seed"] = 0
    assert getattr(ExperimentConfig.from_dict(d), block).seed == 0


def test_missing_kernel_dl_block_is_named():
    d = base_config()
    del d["kernel_dl"]
    with pytest.raises(ValueError, match=r"missing config fields: \['kernel_dl'\]"):
        ExperimentConfig.from_dict(d)


def test_fractional_rounds_rejected_by_name():
    with pytest.raises(ValueError, match="rounds must be an integer, got 2.5"):
        ExperimentConfig.from_dict(base_config(rounds=2.5))
    with pytest.raises(ValueError, match="^rounds must be >= 1$"):
        ExperimentConfig.from_dict(base_config(rounds=0))


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


def test_readme_library_example_runs():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = re.search(r"## Library\s*```python\n(.*?)```", readme, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    final = ns["error_metric"](ns["Y"], ns["kdict"], ns["codes"])
    assert ns["trace"].errors[-1] == pytest.approx(final, rel=1e-12, abs=0.0)


def test_failed_method_recorded_and_others_continue(tmp_path, monkeypatch):
    # KDL trips over the Gram's byte limit; the reduced methods still complete
    monkeypatch.setattr(kernel_dl, "MAX_GRAM_BYTES", 8 * 100**2)
    cfg = ExperimentConfig.from_dict(base_config(rounds=1))
    result = run_experiment(cfg)
    assert result.methods["kdl"].failed is not None
    assert "MAX_GRAM_BYTES" in result.methods["kdl"].failed
    assert result.methods["rkdl-d"].failed is None
    assert result.any_failed
    paths = emit_outputs(result, str(tmp_path))
    summary = json.load(open(paths["summary"]))
    assert summary["methods"]["kdl"]["rounds_completed"] == 0
    curves_header = open(paths["curves"]).readline().strip()
    assert curves_header == "iteration,rkdl-d,orkdl-d,morkdl-d"


def test_non_finite_gradient_fails_that_method_only(monkeypatch):
    monkeypatch.setattr(kernel_dl, "dictionary_gradient",
                        lambda Y, D, *args, **kwargs: np.full(D.shape, np.inf))
    result = run_experiment(ExperimentConfig.from_dict(
        base_config(methods=["rkdl-d", "orkdl-d"], rounds=1)))
    assert result.methods["orkdl-d"].failed == (
        "round 0: FloatingPointError: non-finite kernel-vector gradient at iteration 0; "
        "try a smaller learning rate (currently 1e-05)")
    assert result.methods["rkdl-d"].failed is None
    assert len(result.methods["rkdl-d"].traces) == 1


def test_failed_pretraining_fails_the_pretrained_methods_only():
    # 40 AK-SVD atoms on 30 signals cannot be initialized; kdl needs no
    # pretraining and completes every round
    cfg = ExperimentConfig.from_dict(base_config(
        dataset={"source": "synthetic", "m": 16, "n_signals": 30, "n_components": 12,
                 "sparsity": 3, "seed": 42},
        linear_dl={"n_atoms": 40, "sparsity": 3, "iters": 3}))
    result = run_experiment(cfg)
    assert result.methods["kdl"].failed is None
    assert len(result.methods["kdl"].traces) == cfg.rounds
    for method in ("rkdl-d", "orkdl-d", "morkdl-d"):
        res = result.methods[method]
        assert res.failed.startswith("round 0: ValueError"), method
        assert res.traces == [] and res.pretrain_seconds == []


def test_pretraining_runs_only_for_a_live_pretrained_method(monkeypatch):
    # morkdl-d fails in round 0 (its linear code sparsity exceeds the 10
    # pretrained atoms); later rounds have no pretrained method left to serve
    calls = []
    real = bench.pretrain

    def spy(Y, cfg, seed):
        calls.append(seed)
        return real(Y, cfg, seed)

    monkeypatch.setattr(bench, "pretrain", spy)
    d = base_config(methods=["kdl", "morkdl-d"], rounds=3)
    d["kernel_dl"] = {**d["kernel_dl"], "dl_sparsity": 99}
    result = run_experiment(ExperimentConfig.from_dict(d))
    assert calls == [100]
    assert "dl_sparsity" in result.methods["morkdl-d"].failed
    assert len(result.methods["kdl"].traces) == 3


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


def test_cli_bench_nonzero_exit_on_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kernel_dl, "MAX_GRAM_BYTES", 8 * 100**2)
    cfg_path = write_config(tmp_path, rounds=1)
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


@pytest.mark.parametrize("timeout", [None, "17"])
def test_import_leaves_the_callers_openblas_thread_timeout(timeout):
    # scipy's BLAS loads under rkdl's own short timeout; afterwards the
    # environment holds the caller's value, or none, as before the import
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, rkdl, scipy.linalg; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(timeout)


def test_import_warns_when_scipy_came_first():
    def stderr(code):
        return subprocess.run([sys.executable, "-W", "always", "-c", code],
                              capture_output=True, text=True, check=True).stderr

    late = stderr("import scipy, rkdl")
    assert "UserWarning" in late and "import rkdl before scipy" in late
    assert "scipy" not in stderr("import rkdl")


def without_seconds(doc):
    """``doc`` without the keys that name seconds, at every depth."""
    if isinstance(doc, dict):
        return {k: without_seconds(v) for k, v in doc.items() if "seconds" not in k}
    return doc


def test_bench_reruns_at_one_blas_thread_write_the_same_outputs(tmp_path):
    # bit-identity holds at a fixed thread count and BLAS, so both runs take
    # RKDL_THREADS=1; nothing is asserted across thread counts, where the
    # BLAS may sum in another order
    cfg_path = write_config(tmp_path, rounds=1)
    env = {**os.environ, "RKDL_THREADS": "1"}
    for run in ("r1", "r2"):
        subprocess.run([sys.executable, "-m", "rkdl.cli", "bench", "--config", cfg_path,
                        "--out", str(tmp_path / run), "--quiet"],
                       env=env, capture_output=True, check=True)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert (r1 / "errors.csv").read_bytes() == (r2 / "errors.csv").read_bytes()
    s1, s2 = (json.loads((r / "summary.json").read_text()) for r in (r1, r2))
    assert without_seconds(s1) == without_seconds(s2)
    assert s1["env"]["blas_threads"] == 1 and s1["env"]["numpy"] == np.__version__
    assert all(s1["methods"][m]["rounds_completed"] == 1 for m in METHODS)


@pytest.mark.parametrize("command,config,flags,reason", [
    ("bench", {}, ["--method", "kdl", "--method", "kdl"], "method 'kdl' is listed twice"),
    ("bench", {"kernel": {"family": "rbf", "sigam": 2.0}}, [],
     r"unknown kernel fields: \['sigam'\]"),
    ("train", {"kernel": {"family": "rbf", "sigam": 2.0}}, ["--method", "kdl"],
     r"unknown kernel fields: \['sigam'\]"),
    ("bench", {"kernel_dl": {**base_config()["kernel_dl"], "seed": 7}}, [],
     "kernel_dl: seed is not read, round r trains with seed base_seed"),
    ("bench", {"linear_dl": {**base_config()["linear_dl"], "seed": 7}}, [],
     "linear_dl: seed is not read, round r trains with seed base_seed"),
    ("bench", {"dataset": {**base_config()["dataset"], "coeff_low": 1.0}}, [],
     "coeff_low and coeff_high must be set together"),
    ("train", {"dataset": {**base_config()["dataset"], "coeff_low": 1.0}}, ["--method", "kdl"],
     "coeff_low and coeff_high must be set together"),
    ("bench", {"kernel": {"family": "rbf", "sigma": "10"}}, [],
     "kernel: sigma must be a number, got '10'"),
    ("train", {"kernel_dl": {**base_config()["kernel_dl"], "learning_rate": "5e-4"}},
     ["--method", "kdl"], "kernel_dl: learning_rate must be a number, got '5e-4'"),
    ("bench", {"kernel_dl": {**base_config()["kernel_dl"], "penalty": True}}, [],
     "kernel_dl: penalty must be a number, got True"),
    ("bench", {"dataset": {**base_config()["dataset"], "noise_sigma": "0.1"}}, [],
     "dataset: noise_sigma must be a number, got '0.1'"),
    ("train", {"dataset": {**base_config()["dataset"], "coeff_low": "1", "coeff_high": 3.0}},
     ["--method", "kdl"], "dataset: coeff_low must be a number, got '1'"),
    ("bench", {"kernel": 5}, [], "kernel must be a JSON object, got 5"),
    ("train", {"linear_dl": [10, 3, 3]}, ["--method", "rkdl-d"],
     r"linear_dl must be a JSON object, got \[10, 3, 3\]"),
    ("bench", {"kernel_dl": {**base_config()["kernel_dl"], "normalize_vectors": False}}, [],
     r"unknown kernel_dl fields: \['normalize_vectors'\]"),
    ("bench", {"methods": 5}, [], "config: methods must be a list of strings, got 5"),
    ("bench", {"methods": "kdl"}, [], "config: methods must be a list of strings, got 'kdl'"),
    ("bench", {"methods": ["kdl", 2]}, [],
     r"config: methods must be a list of strings, got \['kdl', 2\]"),
    ("train", {"dataset": {"source": "cifar10", "batches": "a.bin"}}, ["--method", "kdl"],
     "dataset: batches must be a list of strings, got 'a.bin'"),
    ("bench", {"dataset": {"source": "csv", "path": "m.csv", "max_signals": -1}}, [],
     "dataset max_signals must be at least 1, got -1"),
    ("train", {"dataset": {"source": "csv", "path": "m.csv", "max_signals": 0}},
     ["--method", "kdl"], "dataset max_signals must be at least 1, got 0"),
    ("bench", {"dataset": {**base_config()["dataset"], "n_signals": 0}}, [],
     "dataset n_signals must be at least 1, got 0"),
    ("train", {"dataset": {**base_config()["dataset"], "m": -1}}, ["--method", "kdl"],
     "dataset m must be at least 1, got -1"),
    ("bench", {"kernel_dl": {**base_config()["kernel_dl"], "learning_rate": float("nan")}}, [],
     "learning_rate must be finite and at least 0, got nan"),
    ("train", {"kernel_dl": {**base_config()["kernel_dl"], "penalty": float("inf")}},
     ["--method", "morkdl-d"], "penalty must be finite and at least 0, got inf"),
    ("bench", {"kernel": {"family": "rbf", "sigma": float("inf")}}, [],
     "sigma must be finite, got inf"),
    ("bench", {"kernel": {"family": "rbf", "sigma": 2.0, "denom_factor": float("inf")}}, [],
     "denom_factor must be finite, got inf"),
    ("train", {"kernel": {"family": "polynomial", "alpha": float("nan"), "beta": 2}},
     ["--method", "kdl"], "alpha must be finite, got nan"),
    ("bench", {"base_seed": -1}, [], "base_seed must be at least 0, got -1"),
    ("train", {"base_seed": -1}, ["--method", "kdl"], "base_seed must be at least 0, got -1"),
    ("bench", {}, ["--seed", "-2"], "base_seed must be at least 0, got -2"),
    ("train", {}, ["--method", "kdl", "--seed", "-2"], "base_seed must be at least 0, got -2"),
    ("bench", {"dataset": {**base_config()["dataset"], "seed": -1}}, [],
     "dataset seed must be at least 0, got -1"),
    ("train", {"dataset": {**base_config()["dataset"], "seed": -1}}, ["--method", "kdl"],
     "dataset seed must be at least 0, got -1"),
])
def test_cli_config_error_is_one_line_and_nonzero_exit(tmp_path, command, config, flags, reason):
    cfg_path = write_config(tmp_path, **config)
    proc = subprocess.run(
        [sys.executable, "-m", "rkdl.cli", command, "--config", cfg_path, *flags,
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert re.search(rf"^invalid config .*config\.json: {reason}", lines[0]), lines[0]
    assert not (tmp_path / "out").exists()


def test_negative_seeds_are_rejected_by_field_name():
    # numpy's own error for a negative seed names no field
    with pytest.raises(ValueError, match=r"^dataset seed must be at least 0, got -1$"):
        DatasetSpec(source="synthetic", seed=-1)
    cfg = ExperimentConfig.from_dict(base_config())
    with pytest.raises(ValueError, match=r"^base_seed must be at least 0, got -3$"):
        dataclasses.replace(cfg, base_seed=-3)
    assert dataclasses.replace(cfg, base_seed=0).base_seed == 0


def test_cli_code_dimension_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    model_path = str(tmp_path / "model.json")
    cli_main(["train", "--config", cfg_path, "--method", "rkdl-d", "--out", model_path])
    bad = str(tmp_path / "bad.csv")
    save_csv(np.ones((5, 3)), bad)
    with pytest.raises(SystemExit):
        cli_main(["code", "--model", model_path, "--input", bad,
                  "--output", str(tmp_path / "c.csv")])


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A trained rkdl-d model file, and its JSON document."""
    tmp_path = tmp_path_factory.mktemp("model")
    path = str(tmp_path / "model.json")
    assert cli_main(["train", "--config", write_config(tmp_path), "--method", "rkdl-d",
                     "--out", path]) == 0
    with open(path) as f:
        return path, json.load(f)


def without_first_row(doc):
    return {**doc, "coefficients": doc["coefficients"][1:]}


def with_first_entry(doc, field, value):
    # json.dumps writes NaN and -Infinity, which json.load reads back
    rows = doc[field]
    return {**doc, field: [[value, *rows[0][1:]], *rows[1:]]}


@pytest.mark.parametrize("kind,text,reason", [
    ("model", lambda doc: '{"hello": "world"}', "not a rkdl-model container"),
    ("model", lambda doc: "[1, 2]", "not a rkdl-model container"),
    ("model", lambda doc: json.dumps({**doc, "version": 99}), "unsupported model version 99"),
    ("model", lambda doc: '{"format": "rkdl-model", ', "Expecting property name"),
    ("model", lambda doc: json.dumps({k: v for k, v in doc.items() if k != "vectors"}),
     r"missing model fields: \['vectors'\]"),
    ("model", lambda doc: json.dumps(without_first_row(doc)),
     r"coefficients of shape \(9, 6\) do not fit vectors of shape \(16, 10\)"),
    ("model", lambda doc: json.dumps({**doc, "coefficients": doc["coefficients"][0]}),
     r"coefficients of shape \(6,\) do not fit"),
    ("model", lambda doc: json.dumps({**doc, "trace": {**doc["trace"], "bogus": 1}}),
     r"unknown trace fields: \['bogus'\]"),
    ("model", lambda doc: json.dumps({**doc, "kernel": 5}), "kernel must be a JSON object, got 5"),
    ("model", lambda doc: json.dumps({**doc, "trace": 5}), "trace must be a JSON object, got 5"),
    ("model", lambda doc: json.dumps({**doc, "kernel": {**doc["kernel"], "sigma": "10"}}),
     "kernel: sigma must be a number, got '10'"),
    ("model", lambda doc: json.dumps({**doc, "config": None}),
     "config must be a JSON object, got None"),
    ("model", lambda doc: json.dumps({**doc, "config": [1]}),
     r"config must be a JSON object, got \[1\]"),
    ("model", lambda doc: json.dumps(with_first_entry(doc, "vectors", float("nan"))),
     "model vectors must be finite, the file holds NaN or infinity"),
    ("model", lambda doc: json.dumps(with_first_entry(doc, "coefficients", -float("inf"))),
     "model coefficients must be finite, the file holds NaN or infinity"),
    ("input", lambda doc: "1,2\n3\n", "not a rectangular numeric CSV"),
    ("input", lambda doc: "1,x\n3,4\n", "not a rectangular numeric CSV"),
    ("input", lambda doc: "1,nan\n3,4\n", "signal matrix contains non-finite entries"),
    ("input", lambda doc: "1,2\n3,4\n", "signals have dimension 2, the model's vectors 16"),
], ids=["foreign-json", "json-list", "version", "malformed-json", "missing-field",
        "coefficient-rows", "coefficients-1d", "trace-field", "kernel-not-object",
        "trace-not-object", "kernel-string-sigma", "config-null", "config-list", "nan-vector",
        "infinite-coefficient", "ragged-csv",
        "non-numeric-csv", "non-finite-csv", "signal-dimension"])
def test_cli_code_unreadable_file_is_one_line(tmp_path, model_file, kind, text, reason):
    model_path, doc = model_file
    bad = tmp_path / f"bad.{'json' if kind == 'model' else 'csv'}"
    bad.write_text(text(doc))
    good_input = tmp_path / "good.csv"
    save_csv(synth(16, 5, 12, 3, seed=77)[0].values, str(good_input))
    paths = {"model": str(bad), "input": str(good_input)} if kind == "model" else \
        {"model": model_path, "input": str(bad)}
    with pytest.raises(SystemExit) as exc:
        cli_main(["code", "--model", paths["model"], "--input", paths["input"],
                  "--output", str(tmp_path / "c.csv")])
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1, message
    assert re.match(rf"invalid {kind} {re.escape(str(bad))}: {reason}", message), message
    assert message.count(str(bad)) == 1
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("kind,command", [
    ("config", "bench"), ("config", "train"), ("model", "code"), ("input", "code"),
    ("dataset", "bench"), ("dataset", "train")])
@pytest.mark.parametrize("target,reason", [("missing.file", "No such file or directory"),
                                           ("a-directory", "Is a directory")],
                         ids=["missing", "directory"])
def test_cli_unopenable_file_is_one_line(tmp_path, model_file, kind, command, target, reason):
    # an OSError on the named file is reported like a file that does not validate;
    # a config's unopenable dataset file is a reason of that config
    bad = tmp_path / target
    if target == "a-directory":
        bad.mkdir()
    good_input = tmp_path / "good.csv"
    save_csv(synth(16, 5, 12, 3, seed=77)[0].values, str(good_input))
    config = str(bad)
    if kind == "dataset":
        config = write_config(tmp_path, dataset={"source": "csv", "path": str(bad)})
        kind, bad = "config", f"{config}: {bad}"
    args = {
        "bench": ["bench", "--config", config, "--out", str(tmp_path / "out"), "--quiet"],
        "train": ["train", "--config", config, "--method", "rkdl-d",
                  "--out", str(tmp_path / "m.json")],
        "code": ["code", "--model", str(bad) if kind == "model" else model_file[0],
                 "--input", str(bad) if kind == "input" else str(good_input),
                 "--output", str(tmp_path / "c.csv")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == f"invalid {kind} {bad}: {reason}"
    assert not any((tmp_path / name).exists() for name in ("out", "m.json", "c.csv"))


@pytest.mark.parametrize("sparsity", [1, 6])
def test_cli_code_writes_the_codes_of_the_four_call_sequence(tmp_path, model_file, sparsity):
    # the file holds, byte for byte, the codes of kernel OMP on the model's
    # Grams; the input has a zero signal and a duplicated one
    Y = synth(16, 12, 12, 3, seed=77)[0].values
    Y[:, 3] = 0.0
    Y[:, 8] = Y[:, 5]
    input_path, out_path, ref_path = (str(tmp_path / name) for name in ("in.csv", "c.csv", "r.csv"))
    save_csv(Y, input_path)
    kdict = load_model(model_file[0]).kdict
    D, spec = kdict.vectors.atoms, kdict.kernel
    Y = load_csv(input_path).values
    ref = kernel_omp_batch(gram(Y, D, spec), self_kernel_diag(Y, spec), gram(D, D, spec),
                           kdict.coefficients, sparsity)
    save_csv(ref.matrix.T, ref_path)
    assert cli_main(["code", "--model", model_file[0], "--input", input_path,
                     "--sparsity", str(sparsity), "--output", out_path]) == 0
    with open(out_path, "rb") as out, open(ref_path, "rb") as expected:
        assert out.read() == expected.read()


def test_cli_code_overflow_is_one_line_and_writes_nothing(tmp_path):
    # (x.y + 3)^3 of signals scaled by 1e110 overflows; encode's Gram check
    # names the kernel before kernel OMP, which rejects non-finite inputs too
    cfg_path = write_config(
        tmp_path, kernel={"family": "polynomial", "alpha": 1.0, "beta": 3},
        dataset={"source": "synthetic", "m": 16, "n_signals": 200, "n_components": 12,
                 "sparsity": 3, "seed": 1, "coeff_low": 1.0, "coeff_high": 3.0},
        kernel_dl={"n_atoms": 8, "sparsity": 3, "iters": 3})
    model_path = str(tmp_path / "model.json")
    assert cli_main(["train", "--config", cfg_path, "--method", "rkdl-d", "--out", model_path]) == 0
    input_path = str(tmp_path / "huge.csv")
    save_csv(1e110 * load_dataset(ExperimentConfig.from_json(cfg_path).dataset).values[:, :5],
             input_path)
    with np.errstate(over="ignore"), pytest.raises(SystemExit) as exc:
        cli_main(["code", "--model", model_path, "--input", input_path,
                  "--output", str(tmp_path / "c.csv")])
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1, message
    assert re.match(rf"invalid input {re.escape(input_path)}: kernel matrices for "
                    r".*beta=3.* not finite .*rescale the signals", message), message
    assert not (tmp_path / "c.csv").exists()


def test_cli_code_needs_a_sparsity_when_the_model_config_has_none(tmp_path, model_file):
    model_path = tmp_path / "model.json"
    doc = model_file[1]
    model_path.write_text(json.dumps({**doc, "config": {k: v for k, v in doc["config"].items()
                                                         if k != "sparsity"}}))
    input_path, out_path = str(tmp_path / "in.csv"), tmp_path / "c.csv"
    save_csv(synth(16, 5, 12, 3, seed=77)[0].values, input_path)
    args = ["code", "--model", str(model_path), "--input", input_path, "--output", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == "model config has no sparsity; pass --sparsity"
    assert not out_path.exists()
    assert cli_main([*args, "--sparsity", "2"]) == 0
    codes = np.loadtxt(out_path, delimiter=",", ndmin=2)
    assert codes.shape == (5, 6) and np.all(np.sum(codes != 0, axis=1) <= 2)


@pytest.mark.parametrize("stored", ["2", 2.7, True])
def test_cli_code_rejects_a_stored_sparsity_that_is_not_an_integer(tmp_path, model_file, stored):
    model_path = tmp_path / "model.json"
    doc = model_file[1]
    model_path.write_text(json.dumps({**doc, "config": {**doc["config"], "sparsity": stored}}))
    input_path, out_path = str(tmp_path / "in.csv"), tmp_path / "c.csv"
    save_csv(synth(16, 5, 12, 3, seed=77)[0].values, input_path)
    args = ["code", "--model", str(model_path), "--input", input_path, "--output", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == (f"model config sparsity {stored!r} is not an integer; "
                              "pass --sparsity")
    assert not out_path.exists()
    assert cli_main([*args, "--sparsity", "2"]) == 0


def test_top_level_config_must_be_an_object_and_defaults_methods_and_kernel(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[1]")
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert exc.value.code == f"invalid config {cfg_path}: config must be a JSON object, got [1]"
    # a config without methods or kernel runs every method on the default kernel
    d = base_config()
    del d["methods"], d["kernel"]
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.methods == list(METHODS) and cfg.kernel == KernelSpec()


def test_model_file_has_no_unit_norm_flag_and_one_with_it_codes_alike(tmp_path, model_file):
    # files written before the flag was dropped carry "vectors_normalized", and
    # those written while kdl ridged its Gram a "kdd_ridge" trace counter;
    # neither is read
    model_path, doc = model_file
    assert "vectors_normalized" not in doc
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps({**doc, "vectors_normalized": True}))
    ridged = tmp_path / "ridged.json"
    trace = {**doc["trace"], "warnings": {**doc["trace"]["warnings"], "kdd_ridge": 1}}
    ridged.write_text(json.dumps({**doc, "trace": trace}))
    assert load_model(str(ridged)).trace.warnings["kdd_ridge"] == 1
    input_path = str(tmp_path / "in.csv")
    save_csv(synth(16, 25, 12, 3, seed=77)[0].values, input_path)
    outputs = []
    for path in (model_path, str(flagged), str(ridged)):
        outputs.append(tmp_path / f"codes-{len(outputs)}.csv")
        assert cli_main(["code", "--model", path, "--input", input_path,
                         "--output", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


@pytest.mark.parametrize("sparsity", [0, 7])
def test_cli_code_sparsity_out_of_range_names_the_flag(tmp_path, capsys, monkeypatch, sparsity):
    # the rkdl-d model has 6 atoms; the range is checked before any Gram
    cfg_path = write_config(tmp_path)
    model_path = str(tmp_path / "model.json")
    cli_main(["train", "--config", cfg_path, "--method", "rkdl-d", "--out", model_path])
    signals, _, _ = synth(16, 5, 12, 3, seed=77)
    input_path = str(tmp_path / "new.csv")
    save_csv(signals.values, input_path)

    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram was formed before the sparsity check")

    monkeypatch.setattr(kernel_dl, "gram", no_gram)
    with pytest.raises(SystemExit, match=r"sparsity .* outside \[1, 6\].*--sparsity"):
        cli_main(["code", "--model", model_path, "--input", input_path,
                  "--sparsity", str(sparsity), "--output", str(tmp_path / "c.csv")])


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
