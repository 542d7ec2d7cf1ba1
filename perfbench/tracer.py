"""Outside-in instrumentation of the rkdl modules.

Nothing under ``src/`` is edited. A wrapper replaces a function in the
namespace of every module that calls it (the binding that module looks up at
call time), so a span covers exactly one call as its caller sees it. Spans
stay in memory as ``[name, start, end, parent, op, counts]`` and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg


def rkdl_namespaces(extra=()) -> list:
    """Every loaded ``rkdl`` module plus the benchmark's own call namespaces."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rkdl" or name.startswith("rkdl."))]
    return mods + list(extra)


class Patch:
    """Replace attributes by identity and put the originals back on exit.

    ``replacements`` maps an original object to the object that stands in for
    it; every attribute of every namespace bound to that original is swapped.
    ``module_proxies`` maps a module object (``scipy.linalg``) to a function
    that builds a per-namespace stand-in, so the wrapping applies only to the
    modules that reach the functions through that attribute.
    """

    def __init__(self, namespaces, replacements: dict, module_proxies: dict | None = None):
        self.namespaces = namespaces
        self.replacements = replacements
        self.module_proxies = module_proxies or {}
        self.undo: list = []

    def __enter__(self):
        by_id = {id(k): v for k, v in self.replacements.items()}
        proxies = {id(k): v for k, v in self.module_proxies.items()}
        for ns in self.namespaces:
            ns_name = getattr(ns, "__name__", "bench")
            for attr, value in list(vars(ns).items()):
                new = by_id.get(id(value))
                if new is None and id(value) in proxies:
                    new = proxies[id(value)](ns_name)
                if new is not None:
                    self.undo.append((ns, attr, value))
                    setattr(ns, attr, new)
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self.undo):
            setattr(ns, attr, value)
        self.undo.clear()
        return False


class _ModuleProxy:
    """Stand-in for a module: selected attributes overridden, the rest delegated."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def scipy_linalg_proxy(self, linalg, functions=("cho_factor", "cho_solve")):
        """Build a per-module ``scipy`` / ``scipy.linalg`` stand-in whose
        Cholesky calls are spans named after the calling module."""
        def for_scipy(ns_name):
            return _ModuleProxy(sys.modules["scipy"], {"linalg": for_linalg(ns_name)})

        def for_linalg(ns_name):
            mod = ns_name.split(".")[-1]
            return _ModuleProxy(linalg, {f: self.wrap(f"{mod}.{f}", getattr(linalg, f))
                                         for f in functions})
        return for_scipy, for_linalg

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "counts": counts}) + "\n")

    def aggregate(self, ops) -> dict:
        """Per span name: calls, total and self seconds and summed counts over
        the spans whose operation id is in ``ops``.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        ops = set(ops)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        agg: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
            if op not in ops:
                continue
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child_s[i]
            for k, v in (counts or {}).items():
                a[k] += v
        return agg


def _code_counts(args, result):
    matrix = getattr(result, "matrix", None)
    sparsity = getattr(result, "sparsity", None)
    if matrix is None or sparsity is None:
        return None
    n = matrix.shape[1]
    return {"signals": n, "nonzeros": int(np.count_nonzero(matrix)), "slots": n * int(sparsity)}


def _gram_counts(args, result):
    """Computed, not measured: 2*m*a*b flops and the bytes of both inputs and
    the output, from the argument shapes."""
    X, Y = args[0], args[1]
    m, a = X.shape
    b = Y.shape[1]
    return {"gflop_computed": 2.0 * m * a * b / 1e9,
            "mbytes_computed": 8.0 * (m * a + m * b + a * b) / 1e6}


def build_targets(tracer: Tracer, rkdl, trainer_names: dict, capture):
    """The wrapped entry points: (replacements, module_proxies).

    ``trainer_names`` maps a trainer function name to its method label;
    ``capture(method, result)`` sees every trainer result.
    """
    kernels, sc = rkdl.kernels, rkdl.sparse_coding
    named = {
        kernels.gram: ("kernels.gram", _gram_counts),
        kernels.self_kernel_diag: ("kernels.self_kernel_diag", None),
        kernels.dictionary_gradient: ("kernels.dictionary_gradient", None),
        sc.omp_batch: ("sparse_coding.omp_batch", _code_counts),
        sc.kernel_omp_batch: ("sparse_coding.kernel_omp_batch", _code_counts),
        rkdl.kernel_dl.rkdl_atom_sweep: ("kernel_dl.rkdl_atom_sweep", None),
        rkdl.linear_dl.aksvd_train: ("linear_dl.aksvd_train", None),
        rkdl.model_io.save_model: ("model_io.save_model", None),
        rkdl.model_io.load_model: ("model_io.load_model", None),
        rkdl.datasets.synth: ("datasets.synth", None),
        rkdl.bench.run_experiment: ("bench.run_experiment", None),
    }
    replacements = {fn: tracer.wrap(name, fn, count) for fn, (name, count) in named.items()}
    for fn_name, method in trainer_names.items():
        fn = getattr(rkdl.kernel_dl, fn_name)
        replacements[fn] = tracer.wrap(f"kernel_dl.train.{method}", capturing(fn, method, capture))
    for_scipy, for_linalg = tracer.scipy_linalg_proxy(scipy.linalg)
    return replacements, {sys.modules["scipy"]: for_scipy, scipy.linalg: for_linalg}


def capturing(fn, method: str, capture):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        capture(method, result)
        return result
    return wrapper
