"""Command-line entry points: ``rkdl bench``, ``rkdl train``, ``rkdl code``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench as bench_mod
from . import model_io
from .datasets import load_csv, load_dataset, save_csv
from .kernel_dl import METHODS
from .kernels import gram, self_kernel_diag
from .sparse_coding import kernel_omp_batch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkdl",
                                     description="Reduced kernel dictionary learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a multi-round benchmark experiment")
    p_bench.add_argument("--config", required=True, help="experiment config (JSON)")
    p_bench.add_argument("--method", action="append", default=None,
                         choices=list(METHODS),
                         help="override the config's method list (repeatable)")
    p_bench.add_argument("--dataset", default=None,
                         help="override the config's dataset block (JSON file or inline JSON)")
    p_bench.add_argument("--rounds", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None, help="base seed override")
    p_bench.add_argument("--out", default="rkdl-out", help="output directory")
    p_bench.add_argument("--quiet", action="store_true")

    p_train = sub.add_parser("train", help="train a single method and save the model")
    p_train.add_argument("--config", required=True, help="experiment config (JSON)")
    p_train.add_argument("--method", required=True, choices=list(METHODS))
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", required=True, help="model file to write (JSON)")

    p_code = sub.add_parser("code", help="sparse-code new signals with a saved model")
    p_code.add_argument("--model", required=True, help="model file from 'rkdl train'")
    p_code.add_argument("--input", required=True, help="signals CSV")
    p_code.add_argument("--signals-in", choices=["columns", "rows"], default="columns")
    p_code.add_argument("--sparsity", type=int, default=None,
                        help="override the sparsity stored in the model config")
    p_code.add_argument("--output", required=True, help="codes CSV (one row per signal)")
    return parser


def _parse_dataset_override(text: str):
    from .datasets import DatasetSpec
    if text.lstrip().startswith("{"):
        return DatasetSpec.from_dict(json.loads(text))
    with open(text) as f:
        return DatasetSpec.from_dict(json.load(f))


def _cmd_bench(args) -> int:
    cfg = bench_mod.ExperimentConfig.from_json(args.config)
    changes = {}
    if args.method:
        changes["methods"] = args.method
    if args.dataset:
        changes["dataset"] = _parse_dataset_override(args.dataset)
    if args.rounds is not None:
        changes["rounds"] = args.rounds
    if args.seed is not None:
        changes["base_seed"] = args.seed
    if changes:
        cfg = dataclasses.replace(cfg, **changes)

    progress = None
    if not args.quiet:
        def progress(method, rnd):
            print(f"[{method}] round {rnd + 1}/{cfg.rounds}", flush=True)

    result = bench_mod.run_experiment(cfg, progress=progress)
    paths = bench_mod.emit_outputs(result, args.out)
    for method in cfg.methods:
        res = result.methods[method]
        if res.failed is not None:
            print(f"{method}: FAILED ({res.failed})")
        else:
            finals = res.errors[:, -1]
            print(f"{method}: final error {finals.mean():.6e} (std {finals.std():.2e}), "
                  f"{sum(res.seconds) / len(res.seconds):.2f} s/round")
    print(f"wrote {paths['errors']}, {paths['curves']}, {paths['summary']}")
    return 1 if result.any_failed else 0


def _cmd_train(args) -> int:
    cfg = bench_mod.ExperimentConfig.from_json(args.config)
    seed = cfg.base_seed if args.seed is None else args.seed
    signals = load_dataset(cfg.dataset)
    signals.validate()
    Y = signals.values
    kdict, trace, kdcfg = bench_mod.train_method(args.method, Y, cfg, seed)
    model_io.save_model(args.out, kdict, args.method,
                        config=dataclasses.asdict(kdcfg), trace=trace)
    print(f"{args.method}: final error {trace.errors[-1]:.6e} after {len(trace.errors) - 1} "
          f"iterations; model written to {args.out}")
    return 0


def _cmd_code(args) -> int:
    bundle = model_io.load_model(args.model)
    signals = load_csv(args.input, signals_in=args.signals_in)
    signals.validate()
    Y = signals.values
    sparsity = args.sparsity if args.sparsity is not None else bundle.config.get("sparsity")
    if sparsity is None:
        raise SystemExit("model config has no sparsity; pass --sparsity")

    vectors = bundle.kdict.vectors.atoms
    if Y.shape[0] != vectors.shape[0]:
        raise SystemExit(f"input signals have dimension {Y.shape[0]}, "
                         f"model expects {vectors.shape[0]}")
    k_yd = gram(Y, vectors, bundle.kdict.kernel)
    k_dd = gram(vectors, vectors, bundle.kdict.kernel)
    kyy = self_kernel_diag(Y, bundle.kdict.kernel)
    code = kernel_omp_batch(k_yd, kyy, k_dd, bundle.kdict.coefficients, int(sparsity))
    save_csv(code.matrix.T, args.output)
    print(f"coded {Y.shape[1]} signals with {bundle.method or 'model'}; "
          f"codes written to {args.output}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "train":
        return _cmd_train(args)
    return _cmd_code(args)


if __name__ == "__main__":
    sys.exit(main())
