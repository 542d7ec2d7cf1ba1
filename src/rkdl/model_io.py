"""Serialization of trained kernel dictionaries to a self-describing JSON container."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .bench import runtime_env
from .kernel_dl import KernelDictionary, TrainTrace
from .kernels import KernelSpec, all_finite, from_fields
from .linear_dl import Dictionary

MODEL_FORMAT = "rkdl-model"
MODEL_VERSION = 1


@dataclass
class ModelBundle:
    kdict: KernelDictionary
    method: str
    config: dict
    trace: TrainTrace | None = None
    env: dict | None = None    # ``bench.runtime_env`` at save; None in older files


def save_model(path: str, kdict: KernelDictionary, method: str, config: dict,
               trace: TrainTrace | None = None) -> None:
    """Write {kernel, vectors, coefficients, config, trace, env} as one JSON file,
    ``env`` being ``bench.runtime_env()``."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": method,
        "kernel": kdict.kernel.to_dict(),
        "vectors": kdict.vectors.atoms.tolist(),
        "coefficients": kdict.coefficients.tolist(),
        "config": config,
        "trace": None if trace is None else dataclasses.asdict(trace),
        "env": runtime_env(),
    }
    # dumps runs the C encoder; dump streams through the pure-Python one
    with open(path, "w") as f:
        f.write(json.dumps(doc))


def load_model(path: str) -> ModelBundle:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} container")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    missing = [k for k in ("kernel", "vectors", "coefficients") if k not in doc]
    if missing:
        raise ValueError(f"{path}: missing model fields: {missing}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object, got {config!r}")
    coefficients = np.asarray(doc["coefficients"], dtype=float)
    vectors = np.asarray(doc["vectors"], dtype=float)
    if coefficients.ndim != 2 or vectors.ndim != 2 or coefficients.shape[0] != vectors.shape[1]:
        raise ValueError(f"{path}: coefficients of shape {coefficients.shape} do not fit vectors "
                         f"of shape {vectors.shape}; both must be 2-D, with one coefficient row "
                         "per vector")
    for name, values in (("vectors", vectors), ("coefficients", coefficients)):
        if not all_finite(values):
            raise ValueError(f"{path}: model {name} must be finite, the file holds NaN or infinity")
    kdict = KernelDictionary(coefficients=coefficients, vectors=Dictionary(atoms=vectors),
                             kernel=KernelSpec.from_dict(doc["kernel"]))
    return ModelBundle(kdict=kdict, method=doc.get("method", ""), config=config,
                       trace=None if doc.get("trace") is None
                       else from_fields(TrainTrace, doc["trace"], "trace"), env=doc.get("env"))
