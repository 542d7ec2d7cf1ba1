"""The three rkdl benchmark workloads, their operations and correctness checks.

Every workload draws its signals from the acceptance "desk" generator,
``synth(m=784, n_components=60, sparsity=5, coeff 1-3, noise 0.05)``, with the
workload seed. The program receives only the generated signals.

* ``desk-2k``     -- N=2000, all four methods; one operation is one
  ``run_experiment`` round, shared AK-SVD pretrain included. The ``kdl`` N x N
  atom sweep dominates it.
* ``reduced-8k``  -- N=8000, the three reduced methods only. AK-SVD and the
  mixed-penalty products dominate; the kernel atom sweep is about 1%.
* ``code-stream`` -- a closed loop with one client coding batches of fresh
  signals with a saved ``rkdl-d`` model (the read path of ``kernels`` and
  ``sparse_coding``). Set-up trains, saves and reloads the model.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import time
import types

import numpy as np

import rkdl
from rkdl.bench import ExperimentConfig
from rkdl.datasets import DatasetSpec
from rkdl.kernel_dl import KdlConfig
from rkdl.kernels import KernelSpec
from rkdl.linear_dl import DLConfig

from tracer import Patch, Tracer, build_targets, capturing, rkdl_namespaces

HERE = os.path.dirname(os.path.abspath(__file__))

# The public entry points the benchmark calls. A traced run swaps these
# bindings too, so the benchmark's own calls are spans as it sees them.
api = types.SimpleNamespace(
    synth=rkdl.datasets.synth,
    run_experiment=rkdl.bench.run_experiment,
    aksvd_train=rkdl.linear_dl.aksvd_train,
    rkdl_train=rkdl.kernel_dl.rkdl_train,
    save_model=rkdl.model_io.save_model,
    load_model=rkdl.model_io.load_model,
    gram=rkdl.kernels.gram,
    self_kernel_diag=rkdl.kernels.self_kernel_diag,
    kernel_omp_batch=rkdl.sparse_coding.kernel_omp_batch,
)
# Checks call the originals, never the traced bindings.
_gram = rkdl.kernels.gram
_self_kernel_diag = rkdl.kernels.self_kernel_diag
_kernel_omp_batch = rkdl.sparse_coding.kernel_omp_batch
_load_dataset = rkdl.datasets.load_dataset

TRAINERS = {"kdl_train": "kdl", "rkdl_train": "rkdl-d", "orkdl_train": "orkdl-d",
            "morkdl_train": "morkdl-d"}
METHODS = tuple(TRAINERS.values())
PHASES = ("gram_refresh", "coding", "atom_sweep", "gradient", "error_eval")
WARNINGS = ("ridge", "kdd_ridge", "unused_kernel_atom", "degenerate_kernel_atom", "zero_vector")

FULL = {
    "data": {"m": 784, "n_components": 60, "sparsity": 5, "coeff_low": 1.0, "coeff_high": 3.0,
             "noise_sigma": 0.05},
    "kernel": {"family": "rbf", "sigma": 10.0, "denom_factor": 1.0},
    "kernel_dl": {"n_atoms": 20, "sparsity": 4, "iters": 10, "grad_steps": 3,
                  "learning_rate": 5e-4, "penalty": 1.0},
    "linear_dl": {"n_atoms": 50, "sparsity": 5, "iters": 10},
    "n_signals": {"desk-2k": 2000, "reduced-8k": 8000, "code-stream": 2000},
    "code_batch": 2000,
    "code_sparsity": 8,
}
# Tiny shapes for the schema smoke test; same code paths, seconds instead of minutes.
SMOKE = {
    "data": {"m": 16, "n_components": 8, "sparsity": 3, "coeff_low": 1.0, "coeff_high": 3.0,
             "noise_sigma": 0.05},
    "kernel": {"family": "rbf", "sigma": 4.0, "denom_factor": 1.0},
    "kernel_dl": {"n_atoms": 6, "sparsity": 3, "iters": 3, "grad_steps": 2,
                  "learning_rate": 5e-4, "penalty": 1.0},
    "linear_dl": {"n_atoms": 12, "sparsity": 3, "iters": 3},
    "n_signals": {"desk-2k": 120, "reduced-8k": 240, "code-stream": 120},
    "code_batch": 60,
    "code_sparsity": 4,
}
WORKLOAD_METHODS = {"desk-2k": METHODS, "reduced-8k": METHODS[1:]}
WORKLOADS = ("desk-2k", "reduced-8k", "code-stream")

# Set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S
# seconds; its median is reported.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
ATOM_NORM_TOL = 1e-8    # a^T K_DD a = 1
RESIDUAL_TOL = 1e-8     # feature-space residual may dip below 0 by round-off only


def load_reference(shapes_name: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)[shapes_name]


def _rel_dev(value: float, ref: dict) -> str | None:
    dev = abs(value - ref["value"]) / ref["value"]
    if not math.isfinite(value) or dev > ref["rel_tol"]:
        return f"{value!r} is {dev:.3%} from the reference {ref['value']!r} (tolerance {ref['rel_tol']:.1%})"
    return None


def _atom_failures(label, kdict) -> list[str]:
    D = kdict.vectors.atoms
    A = kdict.coefficients
    k_dd = _gram(D, D, kdict.kernel)
    norms = np.einsum("ij,ij->j", A, k_dd @ A)
    worst = float(np.max(np.abs(norms - 1.0)))
    return [] if worst <= ATOM_NORM_TOL else [f"{label}: kernel atom a^T K_DD a off 1 by {worst:.3e}"]


def _code_failures(label, matrix, sparsity) -> list[str]:
    nnz = np.count_nonzero(matrix, axis=0)
    if nnz.size and int(nnz.max()) > sparsity:
        return [f"{label}: a code column has {int(nnz.max())} nonzeros, sparsity is {sparsity}"]
    return []


class Instruments:
    """The bindings swapped in for one operation: trainer capture always,
    the full span set when traced."""

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.captured: dict = {}
        capture = self.captured.__setitem__
        self.plain = {getattr(rkdl.kernel_dl, f): capturing(getattr(rkdl.kernel_dl, f), m, capture)
                      for f, m in TRAINERS.items()}
        if trace:
            self.traced, self.proxies = build_targets(self.tracer, rkdl, TRAINERS, capture)

    def patch(self, traced: bool, extra: dict | None = None) -> Patch:
        repl = dict(self.traced if traced else self.plain)
        repl.update(extra or {})
        return Patch(rkdl_namespaces([api]), repl, self.proxies if traced else None)


class TrainWorkload:
    """One operation is one ``run_experiment`` round (rounds=1)."""

    min_ops = 2  # every run compares two same-seed rounds

    def __init__(self, name: str, shapes: dict, seed: int, reference: dict):
        self.seed = seed
        self.methods = WORKLOAD_METHODS[name]
        self.reference = reference[name]
        self.spec = DatasetSpec(source="synthetic", n_signals=shapes["n_signals"][name],
                                seed=seed, **shapes["data"])
        self.cfg = ExperimentConfig(
            dataset=self.spec, methods=list(self.methods),
            kernel=KernelSpec(**shapes["kernel"]), kernel_dl=KdlConfig(**shapes["kernel_dl"]),
            linear_dl=DLConfig(**shapes["linear_dl"]), rounds=1, base_seed=seed)
        self.sparsity = shapes["kernel_dl"]["sparsity"]
        self.signals = None
        self.first_errors = None

    def setup(self) -> dict:
        """Data generation only."""
        d = self.spec
        self.signals, _, _ = api.synth(d.m, d.n_signals, d.n_components, d.sparsity, d.seed,
                                       d.noise_sigma, d.coeff_low, d.coeff_high)
        return {}

    def check_setup(self) -> list[str]:
        ok = np.all(np.isfinite(self.signals.values))
        return [] if ok else ["generated signals are not finite"]

    def _load(self, spec):
        # The generated signals stand in for the loader; a different spec
        # still goes to the real one.
        return self.signals if spec == self.spec else _load_dataset(spec)

    def op(self, inst: Instruments, traced: bool) -> dict:
        inst.captured.clear()
        with inst.patch(traced, {_load_dataset: self._load}):
            t0 = time.perf_counter()
            result = api.run_experiment(self.cfg)
            seconds = time.perf_counter() - t0
        rec = {"seconds": seconds, "methods": {}, "failures": []}
        for m in self.methods:
            res = result.methods[m]
            if res.failed is not None:
                rec["failures"].append(f"{m}: trainer failed: {res.failed}")
                continue
            tr = res.traces[0]
            rec["methods"][m] = {
                "seconds": res.seconds[0],
                "pretrain_seconds": res.pretrain_seconds[0] if res.pretrain_seconds else None,
                "errors": [float(e) for e in tr.errors],
                "phases": dict(tr.phase_seconds),
                "warnings": dict(tr.warnings),
            }
        rec["complete"] = len(rec["methods"]) == len(self.methods)
        rec["failures"] += self._check(rec, inst.captured)
        inst.captured.clear()
        return rec

    def _check(self, rec: dict, captured: dict) -> list[str]:
        fails = []
        for m, r in rec["methods"].items():
            errs = r["errors"]
            if not all(math.isfinite(e) for e in errs):
                fails.append(f"{m}: non-finite error in the trace")
            msg = _rel_dev(errs[-1], self.reference[m])
            if msg:
                fails.append(f"{m}: final error {msg}")
            if m not in captured:
                fails.append(f"{m}: trainer output was not seen")
                continue
            kdict, code = captured[m][0], captured[m][1]
            fails += _code_failures(m, code.matrix, self.sparsity)
            fails += _atom_failures(m, kdict)
        errors = {m: r["errors"] for m, r in rec["methods"].items()}
        if self.first_errors is None:
            self.first_errors = errors
        elif errors != self.first_errors:
            fails.append("error traces differ from the first same-seed round")
        return fails

    def end_to_end(self, setup_s: list[float], recs: list[dict]) -> dict:
        error = [statistics.fmean(r["methods"][m]["errors"][-1] for m in self.methods)
                 for r in recs]
        return {"setup_s": setup_s, "op_p50_s": [r["seconds"] for r in recs], "error": error}

    def details(self, setups, setup_s, recs) -> list[tuple]:
        """The per-method table: (name, values, unit)."""
        rows = [("setup_s", setup_s, "s"), ("round_s", [r["seconds"] for r in recs], "s"),
                ("pretrain_s", [r["methods"][self.methods[-1]]["pretrain_seconds"] for r in recs],
                 "s")]
        for m in self.methods:
            rows.append((f"train_s.{m}", [r["methods"][m]["seconds"] for r in recs], "s"))
        for m in self.methods:
            rows.append((f"final_error.{m}", [r["methods"][m]["errors"][-1] for r in recs],
                         "err/elem"))
        if "kdl" in self.methods:
            ratio = [r["methods"]["kdl"]["seconds"]
                     / (r["methods"]["rkdl-d"]["seconds"] + r["methods"]["rkdl-d"]["pretrain_seconds"])
                     for r in recs]
            rows.append(("info.speedup_kdl_over_rkdl-d", ratio, "ratio"))
        if "morkdl-d" in self.methods:
            gap = [r["methods"]["morkdl-d"]["errors"][-1] / r["methods"]["rkdl-d"]["errors"][-1]
                   for r in recs]
            rows.append(("info.error_ratio_morkdl-d_over_rkdl-d", gap, "ratio"))
        return rows


class CodeStreamWorkload:
    """Closed loop, one client: the next batch is sent when the last returns."""

    min_ops = 2

    def __init__(self, name: str, shapes: dict, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference[name]
        d = shapes["data"]
        self.data = d
        self.n_train = shapes["n_signals"][name]
        self.batch = shapes["code_batch"]
        self.sparsity = shapes["code_sparsity"]
        self.kernel = KernelSpec(**shapes["kernel"])
        self.kd_cfg = KdlConfig(**shapes["kernel_dl"], seed=seed)
        self.dl_cfg = DLConfig(**shapes["linear_dl"], seed=seed)
        # Fresh signals from the training distribution (same planted atoms),
        # drawn with a different seed.
        self.batch_rng = np.random.default_rng([seed, 1])
        self.model_path = os.path.join(HERE, "out", f"model-{os.getpid()}.json")
        self.planted = None

    def setup(self) -> dict:
        """Data generation, AK-SVD pretrain, rkdl-d training, model save and load."""
        d = self.data
        signals, planted, _ = api.synth(d["m"], self.n_train, d["n_components"], d["sparsity"],
                                        self.seed, d["noise_sigma"], d["coeff_low"],
                                        d["coeff_high"])
        self.planted = planted.atoms
        t0 = time.perf_counter()
        vectors, _ = api.aksvd_train(signals.values, self.dl_cfg)
        t1 = time.perf_counter()
        kdict, code, trace = api.rkdl_train(signals.values, vectors, self.kernel, self.kd_cfg)
        t2 = time.perf_counter()
        os.makedirs(os.path.dirname(self.model_path), exist_ok=True)
        try:
            api.save_model(self.model_path, kdict, "rkdl-d",
                           config=dataclasses.asdict(self.kd_cfg), trace=trace)
            self.bundle = api.load_model(self.model_path)
        finally:
            if os.path.exists(self.model_path):
                os.remove(self.model_path)
        self.trained, self.train_code, self.train_trace = kdict, code, trace
        return {"pretrain_s": t1 - t0, "train_s": t2 - t1}

    def check_setup(self) -> list[str]:
        fails = []
        errs = [float(e) for e in self.train_trace.errors]
        if not all(math.isfinite(e) for e in errs):
            fails.append("rkdl-d: non-finite training error")
        msg = _rel_dev(errs[-1], self.reference["rkdl-d"])
        if msg:
            fails.append(f"rkdl-d: final training error {msg}")
        fails += _code_failures("rkdl-d training", self.train_code.matrix, self.kd_cfg.sparsity)
        loaded = self.bundle.kdict
        if not (np.array_equal(loaded.vectors.atoms, self.trained.vectors.atoms)
                and np.array_equal(loaded.coefficients, self.trained.coefficients)
                and loaded.kernel == self.trained.kernel):
            fails.append("loaded model differs from the saved one")
        fails += _atom_failures("loaded model", loaded)
        return fails

    def _next_batch(self) -> np.ndarray:
        rng, D = self.batch_rng, self.planted
        k, n, s = D.shape[1], self.batch, self.data["sparsity"]
        support = np.argsort(rng.random((k, n)), axis=0)[:s]
        coeff = rng.uniform(self.data["coeff_low"], self.data["coeff_high"], (s, n))
        coeff *= rng.choice([-1.0, 1.0], size=(s, n))
        X = np.zeros((k, n))
        X[support, np.arange(n)] = coeff
        return D @ X + self.data["noise_sigma"] * rng.standard_normal((D.shape[0], n))

    def op(self, inst: Instruments, traced: bool) -> dict:
        Y = self._next_batch()
        model = self.bundle.kdict
        D, A, kernel = model.vectors.atoms, model.coefficients, model.kernel
        with inst.patch(traced):
            t0 = time.perf_counter()
            k_yd = api.gram(Y, D, kernel)
            k_dd = api.gram(D, D, kernel)
            kyy = api.self_kernel_diag(Y, kernel)
            code = api.kernel_omp_batch(k_yd, kyy, k_dd, A, self.sparsity)
            seconds = time.perf_counter() - t0
        return {"seconds": seconds, **self._check(Y, code.matrix)}

    def _check(self, Y, Z) -> dict:
        """One-shot reference coding with the in-memory model, and the
        batch's representation error per element."""
        fails = _code_failures("batch", Z, self.sparsity)
        D, A, kernel = self.trained.vectors.atoms, self.trained.coefficients, self.trained.kernel
        k_yd, k_dd = _gram(Y, D, kernel), _gram(D, D, kernel)
        kyy = _self_kernel_diag(Y, kernel)
        ref = _kernel_omp_batch(k_yd, kyy, k_dd, A, self.sparsity).matrix
        if not np.array_equal(ref, Z):
            fails.append("batch codes differ from a one-shot kernel_omp_batch of the batch")
        res = kyy - 2.0 * np.einsum("la,al->l", k_yd @ A, Z) \
            + np.einsum("al,al->l", Z, (A.T @ k_dd @ A) @ Z)
        if not np.all(np.isfinite(res)) or float(res.min()) < -RESIDUAL_TOL:
            fails.append("batch residual is not finite or is negative")
        error = math.sqrt(max(0.0, float(res.sum())) / Y.size)
        msg = _rel_dev(error, self.reference["coding"])
        if msg:
            fails.append(f"batch coding error {msg}")
        return {"error": error, "failures": fails}

    def end_to_end(self, setup_s: list[float], recs: list[dict]) -> dict:
        return {"setup_s": setup_s, "op_p50_s": [r["seconds"] for r in recs],
                "error": [r["error"] for r in recs]}

    def details(self, setups, setup_s, recs) -> list[tuple]:
        batch_s = [r["seconds"] for r in recs]
        rows = [("setup_s", setup_s, "s"),
                ("pretrain_s", [s["pretrain_s"] for s in setups], "s"),
                ("train_s.rkdl-d", [s["train_s"] for s in setups], "s"),
                ("final_error.rkdl-d", [float(self.train_trace.errors[-1])], "err/elem"),
                ("code_signals_per_s", [self.batch * len(batch_s) / sum(batch_s)], "1/s"),
                ("code_batch_p50_ms", [1e3 * t for t in batch_s], "ms"),
                ("code_error", [r["error"] for r in recs], "err/elem")]
        if len(batch_s) >= 100:  # p90 needs at least ten samples beyond it
            p90 = statistics.quantiles(batch_s, n=10)[-1]
            rows.append(("code_batch_p90_ms", [1e3 * p90], "ms"))
        return rows


def make_workload(name: str, shapes_name: str, seed: int):
    shapes = SMOKE if shapes_name == "smoke" else FULL
    reference = load_reference(shapes_name)
    cls = CodeStreamWorkload if name == "code-stream" else TrainWorkload
    return cls(name, shapes, seed, reference)
