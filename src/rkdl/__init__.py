"""Reduced kernel dictionary learning toolkit."""

import os as _os
import sys as _sys
import warnings as _warnings

# Honor the thread cap before the numeric stack loads; BLAS pools read these
# at import time. RKDL_THREADS overrides values already set, including those
# a parent process wrote when it imported rkdl.
_threads = _os.environ.get("RKDL_THREADS")
if _threads:
    if "numpy" in _sys.modules:
        _warnings.warn(
            f"RKDL_THREADS={_threads} cannot cap BLAS threads: numpy was imported before "
            "rkdl and its BLAS pool is already sized; import rkdl before numpy",
            UserWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = _threads

# scipy bundles a second OpenBLAS, whose idle workers spin after each threaded
# call and take cores from numpy's products. That library reads
# OPENBLAS_THREAD_TIMEOUT when it loads, so scipy.linalg loads under the
# shortest one (workers sleep at once) and the caller's environment is then
# restored; numpy, loaded first, keeps its own pool as it was.
import numpy as _np  # noqa: E402,F401

if "scipy" in _sys.modules:
    _warnings.warn(
        "scipy was imported before rkdl, so its OpenBLAS may have loaded without rkdl's "
        "short thread timeout and its idle workers spin, slowing numpy's products; "
        "import rkdl before scipy", UserWarning, stacklevel=2)
_timeout = _os.environ.get("OPENBLAS_THREAD_TIMEOUT")
_os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
try:
    import scipy.linalg as _scipy_linalg  # noqa: E402,F401
finally:
    if _timeout is None:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]
    else:
        _os.environ["OPENBLAS_THREAD_TIMEOUT"] = _timeout

from .kernels import KernelSpec, dictionary_gradient, gram, self_kernel_diag  # noqa: E402
from .sparse_coding import SparseCode, kernel_omp_batch, omp_batch  # noqa: E402
from .linear_dl import Dictionary, DLConfig, aksvd_train, init_dictionary  # noqa: E402
from .kernel_dl import (  # noqa: E402
    KdlConfig,
    KernelDictionary,
    TrainTrace,
    encode,
    error_metric,
    kdl_train,
    morkdl_train,
    orkdl_train,
    rkdl_atom_sweep,
    rkdl_train,
)
from .datasets import (  # noqa: E402
    DatasetSpec,
    SignalMatrix,
    load_cifar10,
    load_csv,
    load_dataset,
    load_idx,
    save_csv,
    synth,
)
from .bench import ExperimentConfig, RunResult, emit_outputs, run_experiment  # noqa: E402
from .model_io import ModelBundle, load_model, save_model  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "KernelSpec", "gram", "dictionary_gradient", "self_kernel_diag",
    "SparseCode", "omp_batch", "kernel_omp_batch",
    "Dictionary", "DLConfig", "aksvd_train", "init_dictionary",
    "KdlConfig", "KernelDictionary", "TrainTrace", "encode", "error_metric", "rkdl_atom_sweep",
    "kdl_train", "rkdl_train", "orkdl_train", "morkdl_train",
    "DatasetSpec", "SignalMatrix", "load_idx", "load_cifar10", "load_csv", "load_dataset",
    "save_csv", "synth",
    "ExperimentConfig", "RunResult", "run_experiment", "emit_outputs",
    "ModelBundle", "save_model", "load_model",
]
