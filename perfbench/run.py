#!/usr/bin/env python3
"""rkdl benchmark.

Run one workload in this process and print its metrics, the last line being
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:

    python3 perfbench/run.py --workload desk-2k --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, writing the
spans to ``perfbench/out/``. ``--workload all`` runs every workload in a fresh
process each; ``--smoke`` runs every workload on tiny shapes and checks the
output schema against ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _import_rkdl():
    """Cap BLAS threads at nproc through RKDL_THREADS, then import rkdl from
    this checkout's ``src`` (never an installed copy)."""
    os.environ.setdefault("RKDL_THREADS", str(_nproc()))
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "rkdl")):
        raise SystemExit(f"rkdl sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import rkdl
    if os.path.dirname(os.path.dirname(os.path.abspath(rkdl.__file__))) != src:
        raise SystemExit(f"imported rkdl from {rkdl.__file__}, not from {src}")
    return rkdl


# --- metric names ------------------------------------------------------------

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "error": "err/elem", "peak_rss_mb": "MB"}

SPAN_STATS = {
    "kernels.gram": ("calls", "total_s", "self_s", "gflop_computed", "mbytes_computed"),
    "kernels.self_kernel_diag": ("calls", "total_s", "self_s"),
    "kernels.dictionary_gradient": ("calls", "total_s", "self_s"),
    "sparse_coding.omp_batch": ("calls", "total_s", "self_s", "signals", "fill"),
    "sparse_coding.kernel_omp_batch": ("calls", "total_s", "self_s", "signals", "fill"),
    "kernel_dl.rkdl_atom_sweep": ("calls", "total_s", "self_s"),
    "kernel_dl.cho_factor": ("calls", "total_s", "self_s"),
    "kernel_dl.cho_solve": ("calls", "total_s", "self_s"),
    "linear_dl.aksvd_train": ("calls", "total_s", "self_s"),
    "bench.run_experiment": ("calls", "total_s", "self_s"),
}
SETUP_SPANS = ("datasets.synth", "linear_dl.aksvd_train", "kernel_dl.train",
               "model_io.save_model", "model_io.load_model")
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "gflop_computed": "GFLOP",
              "mbytes_computed": "MB", "signals": "count", "fill": "ratio"}


def per_layer_units(methods, phases, warnings) -> dict:
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    for m in methods:
        for stat in ("calls", "total_s", "self_s"):
            units[f"kernel_dl.train.{stat}.{m}"] = STAT_UNITS[stat]
    for m in methods:
        for p in phases:
            units[f"kernel_dl.phase.{p}_s.{m}"] = "s"
    for w in warnings:
        units[f"kernel_dl.warnings.{w}"] = "count"
    for span in SETUP_SPANS:
        units[f"setup.{span}.self_s"] = "s"
    units["setup.traced_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    for m in methods:
        units[f"trace.train_overhead_frac.{m}"] = "ratio"
    return units


# --- environment record ------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref)).strip()
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def env_record() -> dict:
    import numpy as np
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{idx}/level").strip()
        kind = _read(f"{base}/{idx}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{idx}/size").strip()
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode; recorded as unknown
        blas_version = "unknown"
    return {
        "nproc": _nproc(),
        "RKDL_THREADS": os.environ.get("RKDL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "cpu": cpu,
        "cache": caches,
        "ram": mem,
        "git_sha": _git_sha(),
    }


# --- one workload --------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, shapes: str = "full") -> dict:
    import workloads as wl
    w = wl.make_workload(name, shapes, seed)
    inst = wl.Instruments(trace)
    attempted = failed = 0
    failures: list[str] = []

    def record(what, fails):
        nonlocal attempted, failed
        attempted += 1
        if fails:
            failed += 1
            failures.extend(f"{what}: {msg}" for msg in fails)

    setups, setup_s, setup_fails = [], [], []
    reps = 1 if trace else wl.SETUP_REPS
    while len(setups) < reps or (not trace and sum(setup_s) < wl.SETUP_MIN_S):
        if trace:
            inst.tracer.op = "setup"
        with inst.patch(True) if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            setups.append(w.setup())
            setup_s.append(time.perf_counter() - t0)
        setup_fails += w.check_setup()
    record("set-up", setup_fails)

    # Operations run until the next one would end past ``seconds``.
    recs, traced_recs, plain_recs, op_wall = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or (time.perf_counter() - start + _median(op_wall) <= seconds):
        t_op = time.perf_counter()
        traced = trace and i % 2 == 1
        if trace:
            inst.tracer.op = i
        try:
            rec = w.op(inst, traced)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            rec = {"failures": [f"{type(exc).__name__}: {exc}"], "complete": False}
        record(f"op {i}", rec["failures"])
        if rec.get("complete", True):
            recs.append(rec)
            (traced_recs if traced else plain_recs).append((i, rec))
        op_wall.append(time.perf_counter() - t_op)
        i += 1
    if not recs:
        raise SystemExit(f"{name}: no operation completed; first failures: {failures[:5]}")

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    rows = w.details(setups, setup_s, recs if not trace else [r for _, r in plain_recs])
    for label, values, unit in rows:
        print(f"{name} {label:<40} {_median(values):>14.6g} {unit:<9} (median of {len(values)})")

    if not trace:
        series = w.end_to_end(setup_s, recs)
        metrics = {k: {"value": _median(v), "unit": END_TO_END[k]} for k, v in series.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "unit": "MB"}
    else:
        if not traced_recs or not plain_recs:
            raise SystemExit(f"{name}: the traced run needs one traced and one untraced operation")
        metrics = _per_layer(wl, inst.tracer, traced_recs, plain_recs, setup_s[0])
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{name}-seed{seed}-{shapes}.jsonl")
        inst.tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _per_layer(wl, tracer, traced_recs, plain_recs, setup_wall_s) -> dict:
    units = per_layer_units(wl.METHODS, wl.PHASES, wl.WARNINGS)
    values = dict.fromkeys(units, 0.0)
    n = len(traced_recs)
    agg = tracer.aggregate([i for i, _ in traced_recs])
    for span, stats in SPAN_STATS.items():
        a = agg.get(span, {})
        for stat in stats:
            if stat == "fill":
                slots = a.get("slots", 0.0)
                values[f"{span}.fill"] = a.get("nonzeros", 0.0) / slots if slots else 0.0
            else:
                values[f"{span}.{stat}"] = a.get(stat, 0.0) / n
    for m in wl.METHODS:
        a = agg.get(f"kernel_dl.train.{m}", {})
        for stat in ("calls", "total_s", "self_s"):
            values[f"kernel_dl.train.{stat}.{m}"] = a.get(stat, 0.0) / n
        untraced = [r["methods"][m]["seconds"] for _, r in plain_recs if m in r.get("methods", {})]
        if untraced and a:
            values[f"trace.train_overhead_frac.{m}"] = (a["total_s"] / n) / statistics.fmean(untraced) - 1.0
    for _, r in traced_recs:
        for m, mr in r.get("methods", {}).items():
            for p in wl.PHASES:
                values[f"kernel_dl.phase.{p}_s.{m}"] += mr["phases"].get(p, 0.0) / n
            for k, v in mr["warnings"].items():
                if k in wl.WARNINGS:
                    values[f"kernel_dl.warnings.{k}"] += v / n
                else:
                    print(f"note: warning counter {k!r} = {v} has no per-layer metric")
    setup = tracer.aggregate(["setup"])
    for span in SETUP_SPANS:
        values[f"setup.{span}.self_s"] = sum(a["self_s"] for k, a in setup.items()
                                             if k == span or k.startswith(span + "."))
    values["setup.traced_s"] = setup_wall_s
    values["trace.overhead_frac"] = (_median([r["seconds"] for _, r in traced_recs])
                                     / _median([r["seconds"] for _, r in plain_recs]) - 1.0)
    return {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}


# --- entry points ----------------------------------------------------------------

def _run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    import workloads as wl
    results, code = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            code = 1
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<12} {metric:<44} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def _smoke() -> int:
    """Tiny shapes, every workload, both modes; check names, units and the
    metric sets against BENCHMARK.json."""
    import workloads as wl
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, seed=0, seconds=0.5, trace=bool(trace), shapes="smoke")
            where = f"{name} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} operations failed")
            got = res["metrics"]
            if set(got) != set(want[trace]):
                problems.append(f"{where}: metric names differ: {sorted(set(got) ^ set(want[trace]))}")
            for k, mv in got.items():
                if not NAME_RE.fullmatch(k):
                    problems.append(f"{where}: bad metric name {k!r}")
                if not mv.get("unit") or mv["unit"] != want[trace].get(k):
                    problems.append(f"{where}: {k} has unit {mv.get('unit')!r}")
                if not isinstance(mv.get("value"), float):
                    problems.append(f"{where}: {k} value {mv.get('value')!r} is not a number")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="desk-2k, reduced-8k, code-stream or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, every workload, schema check")
    args = parser.parse_args(argv)
    _import_rkdl()
    if args.smoke:
        return _smoke()
    if args.workload == "all":
        return _run_all(args)
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS} or all")
    print("env " + json.dumps(env_record()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
