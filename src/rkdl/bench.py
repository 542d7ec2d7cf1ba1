"""Experiment harness: multi-round error curves and timing tables across the
four trainers, with machine-readable CSV/JSON outputs."""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import kernel_dl
from .datasets import DatasetSpec, load_dataset
from .kernel_dl import METHODS, KdlConfig, TrainTrace
from .kernels import KernelSpec, from_fields
from .linear_dl import Dictionary, DLConfig, aksvd_train


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    methods: list[str] = field(default_factory=lambda: list(METHODS), kw_only=True)
    kernel: KernelSpec = field(default_factory=KernelSpec, kw_only=True)
    kernel_dl: KdlConfig
    linear_dl: DLConfig
    rounds: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be at least 0, got {self.base_seed}")
        if not self.methods:
            raise ValueError("method list is empty")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is listed twice; each method trains once a round")
        for block in ("kernel_dl", "linear_dl"):
            if getattr(self, block).seed != 0:
                raise ValueError(f"{block}: seed is not read, round r trains with seed "
                                 "base_seed + r; set base_seed or pass --seed")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Each block read by ``from_fields``; ``methods`` defaults to all, ``kernel`` to RBF."""
        return from_fields(cls, d, "config",
                           dataset=DatasetSpec.from_dict, kernel=KernelSpec.from_dict,
                           kernel_dl=lambda b: from_fields(KdlConfig, b, "kernel_dl"),
                           linear_dl=lambda b: from_fields(DLConfig, b, "linear_dl"))

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        # the dataset block holds only the fields its source reads
        return {**dataclasses.asdict(self), "dataset": self.dataset.to_dict()}


@dataclass
class MethodResult:
    traces: list[TrainTrace] = field(default_factory=list)
    pretrain_traces: list[TrainTrace] = field(default_factory=list)  # on pre-trained vectors
    failed: str | None = None

    @property
    def errors(self) -> np.ndarray:
        """(rounds, iters + 1) error curves."""
        return np.asarray([t.errors for t in self.traces])

    @property
    def seconds(self) -> list[float]:
        return [t.total_seconds for t in self.traces]

    @property
    def pretrain_seconds(self) -> list[float]:
        return [t.total_seconds for t in self.pretrain_traces]


@dataclass
class RunResult:
    config: ExperimentConfig
    methods: dict[str, MethodResult]

    @property
    def any_failed(self) -> bool:
        return any(r.failed is not None for r in self.methods.values())


def pretrain(Y: np.ndarray, cfg: ExperimentConfig, seed: int) -> Dictionary:
    """The AK-SVD dictionary that the pre-trained methods use as kernel vectors."""
    return aksvd_train(Y, dataclasses.replace(cfg.linear_dl, seed=seed))[0]


def train_method(method: str, Y: np.ndarray, cfg: ExperimentConfig, seed: int,
                 vectors: Dictionary | None = None):
    """Train one method for one round, as ``METHODS`` describes it.

    The effective trainer settings take the round's seed, no gradient steps
    when the method does not update D, and, for the mixed update, the
    linear-DL sparsity for the linear code unless the config pins one. A
    method on pre-trained vectors pretrains here when ``vectors`` is None.
    The trainer is looked up on ``kernel_dl`` at call time.

    Returns (KernelDictionary, TrainTrace, effective KdlConfig).
    """
    spec = METHODS[method]
    kd = cfg.kernel_dl
    changes: dict = {"seed": seed}
    if spec.update is None:
        changes["grad_steps"] = 0
    if spec.update == "mixed" and kd.dl_sparsity is None:
        changes["dl_sparsity"] = cfg.linear_dl.sparsity
    kdcfg = dataclasses.replace(kd, **changes)
    trainer = getattr(kernel_dl, spec.trainer)
    if spec.vectors == "signals":
        kdict, _, trace = trainer(Y, cfg.kernel, kdcfg)
    else:
        if vectors is None:
            vectors = pretrain(Y, cfg, seed)
        kdict, _, trace = trainer(Y, vectors, cfg.kernel, kdcfg)
    return kdict, trace, kdcfg


def run_experiment(cfg: ExperimentConfig, progress=None) -> RunResult:
    """Run every configured method for ``cfg.rounds`` rounds.

    Round r uses seed base_seed + r everywhere; the methods on pre-trained
    vectors share the linear dictionary pre-trained once per round, so their
    error differences isolate the update rules; the first of them still live
    pretrains it. Rounds execute serially to keep the wall-clock measurements
    honest. A pretraining or trainer error aborts that method's remaining
    rounds but the other methods continue.
    """
    signals = load_dataset(cfg.dataset)
    signals.validate()
    Y = signals.values
    results = {m: MethodResult() for m in cfg.methods}

    for r in range(cfg.rounds):
        seed = cfg.base_seed + r
        vectors = None
        for method in cfg.methods:
            res = results[method]
            if res.failed is not None:
                continue
            if progress is not None:
                progress(method, r)
            on_vectors = METHODS[method].vectors == "pretrained"
            try:
                if on_vectors and vectors is None:
                    vectors = pretrain(Y, cfg, seed)
                _, trace, _ = train_method(method, Y, cfg, seed, vectors)
            except Exception as exc:  # noqa: BLE001 - recorded, other methods continue
                res.failed = f"round {r}: {type(exc).__name__}: {exc}"
                continue
            if on_vectors:
                res.pretrain_traces.append(vectors.trace)
            res.traces.append(trace)
    return RunResult(config=cfg, methods=results)


def runtime_env() -> dict:
    """What the last bits of a run depend on beyond its config: the BLAS thread
    count (``OPENBLAS_NUM_THREADS``, which ``RKDL_THREADS`` sets, else the
    usable cores, OpenBLAS's default) and the numpy, scipy and BLAS versions
    (numpy's BLAS runs the products, scipy's the Cholesky factors and solves
    and ``kdl``'s products with K)."""
    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):    # a release without the dict mode or the entry
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"blas_threads": int(threads) if threads.isdigit() else cores,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy)}


def _fmt(x: float) -> str:
    return repr(float(x))


def _summary(traces: list[TrainTrace]) -> dict:
    """Mean and spread of the traces' final errors, mean total and phase
    seconds, the mean elapsed seconds at each error entry, and the warning
    counters summed over the traces."""
    finals = [t.errors[-1] for t in traces]
    return {
        "final_error_mean": float(np.mean(finals)),
        "final_error_std": float(np.std(finals)),
        "seconds_mean": float(np.mean([t.total_seconds for t in traces])),
        "elapsed_seconds_mean": np.mean([t.elapsed_seconds for t in traces], axis=0).tolist(),
        "phase_seconds_mean": {k: float(np.mean([t.phase_seconds.get(k, 0.0) for t in traces]))
                               for k in traces[0].phase_seconds},
        "warnings": dict(sum((Counter(t.warnings) for t in traces), Counter())),
    }


def emit_outputs(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write errors.csv, curves.csv and summary.json under ``out_dir``.

    errors.csv has one row per (method, round, iteration); curves.csv holds
    the per-iteration mean error with one column per method; summary.json
    mirrors the final-error and timing tables and holds each method's warning
    counters summed over rounds (``_summary``), and the run's ``runtime_env``.
    A method on pre-trained vectors also has a ``"pretrain"`` entry, the same
    summary of its rounds' pretraining traces. Returns the file paths.
    """
    if not result.methods:
        raise ValueError("experiment result contains no methods")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "errors": os.path.join(out_dir, "errors.csv"),
        "curves": os.path.join(out_dir, "curves.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }

    with open(paths["errors"], "w") as f:
        f.write("method,round,iteration,error\n")
        for method in result.config.methods:
            res = result.methods[method]
            for rnd, trace in enumerate(res.traces):
                for it, err in enumerate(trace.errors):
                    f.write(f"{method},{rnd},{it},{_fmt(err)}\n")

    completed = [m for m in result.config.methods if result.methods[m].traces]
    with open(paths["curves"], "w") as f:
        f.write("iteration," + ",".join(completed) + "\n")
        if completed:
            # every trace has kernel_dl.iters + 1 errors
            means = np.array([result.methods[m].errors.mean(axis=0) for m in completed])
            for it, row in enumerate(means.T):
                f.write(f"{it}," + ",".join(map(_fmt, row)) + "\n")

    summary: dict = {"config": result.config.to_dict(), "env": runtime_env(), "methods": {}}
    for method in result.config.methods:
        res = result.methods[method]
        entry: dict = {"failed": res.failed, "rounds_completed": len(res.traces)}
        if res.traces:
            entry.update(_summary(res.traces))
        if res.pretrain_traces:
            entry["pretrain"] = _summary(res.pretrain_traces)
        summary["methods"][method] = entry
    with open(paths["summary"], "w") as f:
        json.dump(summary, f, indent=2)
    return paths
