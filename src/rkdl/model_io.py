"""Serialization of trained kernel dictionaries to a self-describing JSON container."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernel_dl import KernelDictionary, TrainTrace
from .kernels import KernelSpec
from .linear_dl import Dictionary

MODEL_FORMAT = "rkdl-model"
MODEL_VERSION = 1


@dataclass
class ModelBundle:
    kdict: KernelDictionary
    method: str
    config: dict
    trace: TrainTrace | None = None


def save_model(path: str, kdict: KernelDictionary, method: str, config: dict,
               trace: TrainTrace | None = None) -> None:
    """Write {kernel, vectors, coefficients, config, trace} as one JSON file."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": method,
        "kernel": kdict.kernel.to_dict(),
        "vectors": kdict.vectors.atoms.tolist(),
        "vectors_normalized": bool(kdict.vectors.normalized),
        "coefficients": kdict.coefficients.tolist(),
        "config": config,
        "trace": None if trace is None else {
            "errors": [float(e) for e in trace.errors],
            "phase_seconds": dict(trace.phase_seconds),
            "warnings": dict(trace.warnings),
            "total_seconds": trace.total_seconds,
        },
    }
    # dumps runs the C encoder; dump streams through the pure-Python one
    with open(path, "w") as f:
        f.write(json.dumps(doc))


def load_model(path: str) -> ModelBundle:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} container")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    kdict = KernelDictionary(
        coefficients=np.asarray(doc["coefficients"], dtype=float),
        vectors=Dictionary(atoms=np.asarray(doc["vectors"], dtype=float),
                           normalized=doc.get("vectors_normalized", False)),
        kernel=KernelSpec.from_dict(doc["kernel"]),
    )
    trace = None
    if doc.get("trace") is not None:
        t = doc["trace"]
        trace = TrainTrace(errors=list(t["errors"]), phase_seconds=dict(t["phase_seconds"]),
                           warnings=dict(t["warnings"]), total_seconds=t["total_seconds"])
    return ModelBundle(kdict=kdict, method=doc.get("method", ""), config=doc.get("config", {}),
                       trace=trace)
