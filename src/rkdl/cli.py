"""Command-line entry points: ``rkdl bench``, ``rkdl train``, ``rkdl code``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager

from . import bench as bench_mod
from . import model_io
from .datasets import load_csv, load_dataset, save_csv
from .kernel_dl import METHODS, encode


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


@contextmanager
def _config_errors(path: str, kind: str = "config"):
    """A config, model or input file (``kind``) that cannot be read, does not
    validate or cannot be coded exits with one line, ``invalid <kind> <path>:
    <reason>``, instead of a traceback. A config's reason names the block and
    field, and a file it names that cannot be read, such as its dataset."""
    try:
        yield
    except (OSError, ValueError, FloatingPointError) as exc:
        reason = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else str(exc)
        raise SystemExit(f"invalid {kind} {path}: {reason.removeprefix(f'{path}: ')}") from None


def _cmd_bench(args) -> int:
    with _config_errors(args.config):
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

    with _config_errors(args.config):    # the dataset loads before any method runs
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
    with _config_errors(args.config):
        cfg = bench_mod.ExperimentConfig.from_json(args.config)
        if args.seed is not None:    # checked as the config's base_seed, as in bench
            cfg = dataclasses.replace(cfg, base_seed=args.seed)
        signals = load_dataset(cfg.dataset)
        signals.validate()
    kdict, trace, kdcfg = bench_mod.train_method(args.method, signals.values, cfg, cfg.base_seed)
    model_io.save_model(args.out, kdict, args.method,
                        config=dataclasses.asdict(kdcfg), trace=trace)
    print(f"{args.method}: final error {trace.errors[-1]:.6e} after {len(trace.errors) - 1} "
          f"iterations; model written to {args.out}")
    return 0


def _cmd_code(args) -> int:
    with _config_errors(args.model, "model"):
        bundle = model_io.load_model(args.model)
    sparsity = args.sparsity if args.sparsity is not None else bundle.config.get("sparsity")
    if sparsity is None:
        raise SystemExit("model config has no sparsity; pass --sparsity")
    if isinstance(sparsity, bool) or not isinstance(sparsity, int):
        raise SystemExit(f"model config sparsity {sparsity!r} is not an integer; pass --sparsity")
    if not 1 <= sparsity <= bundle.kdict.n_atoms:
        raise SystemExit(f"sparsity {sparsity} is outside [1, {bundle.kdict.n_atoms}], the "
                         "model's atom count; pass --sparsity in that range")
    with _config_errors(args.input, "input"):
        signals = load_csv(args.input, signals_in=args.signals_in)
        signals.validate()
        code = encode(bundle.kdict, signals.values, sparsity)
    save_csv(code.matrix.T, args.output)
    print(f"coded {code.matrix.shape[1]} signals with {bundle.method or 'model'}; "
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
