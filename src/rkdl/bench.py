"""Experiment harness: multi-round error curves and timing tables across the
four trainers, with machine-readable CSV/JSON outputs."""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernel_dl
from .datasets import DatasetSpec, load_dataset
from .kernel_dl import METHODS, KdlConfig, TrainTrace
from .kernels import KernelSpec, from_fields
from .linear_dl import Dictionary, DLConfig, aksvd_train


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    methods: list[str]
    kernel: KernelSpec
    kernel_dl: KdlConfig
    linear_dl: DLConfig
    rounds: int = 10
    base_seed: int = 0
    max_gram_signals: int = 20000

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.methods:
            raise ValueError("method list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {tuple(METHODS)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Each block read by ``from_fields``; ``methods`` defaults to all, ``kernel`` to {}."""
        return from_fields(cls, {"methods": list(METHODS), "kernel": {}, **d}, "config",
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
    seconds: list[float] = field(default_factory=list)
    pretrain_seconds: list[float] = field(default_factory=list)
    replaced_atoms: list[dict] = field(default_factory=list)  # per round, from the pretrain
    pretrain_phase_seconds: list[dict] = field(default_factory=list)  # per round, likewise
    failed: str | None = None

    @property
    def errors(self) -> np.ndarray:
        """(rounds, iters + 1) error curves."""
        return np.asarray([t.errors for t in self.traces])


@dataclass
class RunResult:
    config: ExperimentConfig
    methods: dict[str, MethodResult]

    @property
    def any_failed(self) -> bool:
        return any(r.failed is not None for r in self.methods.values())


def pretrain(Y: np.ndarray, cfg: ExperimentConfig, seed: int) -> Dictionary:
    """The AK-SVD dictionary that the pre-trained methods use as kernel vectors."""
    vectors, _ = aksvd_train(Y, dataclasses.replace(cfg.linear_dl, seed=seed))
    return vectors


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
        out = trainer(Y, cfg.kernel, kdcfg, max_gram_signals=cfg.max_gram_signals)
    else:
        if vectors is None:
            vectors = pretrain(Y, cfg, seed)
        out = trainer(Y, vectors, cfg.kernel, kdcfg)
    # every trainer returns the dictionary first and the trace last
    return out[0], out[-1], kdcfg


def run_experiment(cfg: ExperimentConfig, progress=None) -> RunResult:
    """Run every configured method for ``cfg.rounds`` rounds.

    Round r uses seed base_seed + r everywhere; the methods on pre-trained
    vectors share the linear dictionary pre-trained once per round, so their
    error differences isolate the update rules. Rounds execute serially to
    keep the wall-clock measurements honest. A trainer error aborts that
    method's remaining rounds but the other methods continue.
    """
    signals = load_dataset(cfg.dataset)
    signals.validate()
    Y = signals.values
    results = {m: MethodResult() for m in cfg.methods}
    pretrained = {m for m in cfg.methods if METHODS[m].vectors == "pretrained"}

    for r in range(cfg.rounds):
        seed = cfg.base_seed + r
        vectors = None
        pretrain_seconds = 0.0
        if pretrained:
            t0 = time.perf_counter()
            vectors = pretrain(Y, cfg, seed)
            pretrain_seconds = time.perf_counter() - t0
        for method in cfg.methods:
            res = results[method]
            if res.failed is not None:
                continue
            if progress is not None:
                progress(method, r)
            t0 = time.perf_counter()
            try:
                _, trace, _ = train_method(method, Y, cfg, seed, vectors)
            except Exception as exc:  # noqa: BLE001 - recorded, other methods continue
                res.failed = f"round {r}: {type(exc).__name__}: {exc}"
                continue
            res.seconds.append(time.perf_counter() - t0)
            if method in pretrained:
                res.pretrain_seconds.append(pretrain_seconds)
                res.replaced_atoms.append(vectors.meta["replaced_atoms"])
                res.pretrain_phase_seconds.append(vectors.meta["phase_seconds"])
            res.traces.append(trace)
    return RunResult(config=cfg, methods=results)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write errors.csv, curves.csv and summary.json under ``out_dir``.

    errors.csv has one row per (method, round, iteration); curves.csv holds
    the per-iteration mean error with one column per method; summary.json
    mirrors the final-error and timing tables and holds each method's warning
    counters summed over rounds, and for the methods on pre-trained vectors the
    AK-SVD atoms re-seeded in pretraining (``replaced_atoms``), also summed
    over rounds, and the mean seconds of the pretraining's ``coding`` and
    ``sweep`` phases (``pretrain_phase_seconds_mean``). Returns the file
    paths.
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
            means = {m: result.methods[m].errors.mean(axis=0) for m in completed}
            n_iter = max(v.shape[0] for v in means.values())
            for it in range(n_iter):
                cells = [_fmt(means[m][it]) if it < means[m].shape[0] else "" for m in completed]
                f.write(f"{it}," + ",".join(cells) + "\n")

    summary: dict = {"config": result.config.to_dict(), "methods": {}}
    for method in result.config.methods:
        res = result.methods[method]
        entry: dict = {"failed": res.failed, "rounds_completed": len(res.traces)}
        if res.traces:
            finals = res.errors[:, -1]
            entry.update(
                final_error_mean=float(np.mean(finals)),
                final_error_std=float(np.std(finals)),
                seconds_mean=float(np.mean(res.seconds)),
                phase_seconds_mean={
                    k: float(np.mean([t.phase_seconds.get(k, 0.0) for t in res.traces]))
                    for k in res.traces[0].phase_seconds
                },
                warnings=dict(sum((Counter(t.warnings) for t in res.traces), Counter())),
            )
            if res.pretrain_seconds:
                entry["pretrain_seconds_mean"] = float(np.mean(res.pretrain_seconds))
                entry["pretrain_phase_seconds_mean"] = {
                    k: float(np.mean([p[k] for p in res.pretrain_phase_seconds]))
                    for k in res.pretrain_phase_seconds[0]}
                entry["replaced_atoms"] = {
                    kind: sum(r[kind] for r in res.replaced_atoms)
                    for kind in res.replaced_atoms[0]}
        summary["methods"][method] = entry
    with open(paths["summary"], "w") as f:
        json.dump(summary, f, indent=2)
    return paths
