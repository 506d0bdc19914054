"""Command-line surface for the batch pipeline.

Subcommands: synth-dataset, features, vocab, encode, train, predict,
evaluate.  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .pipeline import (
    DataError,
    read_config,
    read_manifest,
    run_encode,
    run_evaluate,
    run_features,
    run_predict,
    run_train,
    run_vocab,
)
from .synth import generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_sequences(text):
    if text is None:
        return None
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --sequences value {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="placevision", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True, help="artifact directory")
        if config:
            p.add_argument("--config", required=True, help="pipeline config file")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--sequences", default=None, help="comma list of sequence ids to use")

    p = sub.add_parser("synth-dataset", help="generate the bundled synthetic room dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=9)
    p.add_argument("--per-class", type=int, default=60)
    p.add_argument("--size", type=int, default=96)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("features", help="extract per-image feature artifacts")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("vocab", help="build the visual vocabulary")
    common(p)

    p = sub.add_parser("encode", help="encode stored descriptors into word histograms")
    common(p)

    p = sub.add_parser("train", help="train the configured classifier")
    common(p)

    p = sub.add_parser("predict", help="predict labels for manifest rows")
    p.add_argument("--model", default=None, help="model file (default: <out>/model.bin)")
    common(p)

    p = sub.add_parser("evaluate", help="score predictions against manifest truth")
    p.add_argument("--predictions", default=None, help="default: <out>/predictions.csv")
    p.add_argument("--report", default=None, help="report directory (default: <out>/report)")
    common(p, config=False)

    return parser


def _load(args):
    # usage checks before any I/O; --jobs belongs to features, --config
    # and --seed to the stages that read a configuration
    sequences = _parse_sequences(args.sequences)
    if getattr(args, "jobs", 1) < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {seed}")
    manifest = read_manifest(args.manifest).select(sequences)
    config = None
    if getattr(args, "config", None):
        config = read_config(args.config)
        if seed is not None:
            config = replace(config, seed=seed)  # the GA seed follows
    return manifest, config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def log(msg):
        print(msg, file=sys.stderr)

    try:
        if args.command == "synth-dataset":
            manifest = generate_dataset(
                args.out, args.classes, args.per_class, args.size, args.seed
            )
            log(f"dataset written: {manifest}")
            return EXIT_OK

        manifest, config = _load(args)
        if args.command == "features":
            run_features(manifest, config, args.out, jobs=args.jobs, log=log)
        elif args.command == "vocab":
            run_vocab(manifest, config, args.out, log=log)
        elif args.command == "encode":
            run_encode(manifest, config, args.out, log=log)
        elif args.command == "train":
            run_train(manifest, config, args.out, log=log)
        elif args.command == "predict":
            run_predict(manifest, config, args.out, model_path=args.model, log=log)
        elif args.command == "evaluate":
            predictions = args.predictions or str(Path(args.out) / "predictions.csv")
            report_dir = args.report or str(Path(args.out) / "report")
            run_evaluate(predictions, manifest, report_dir, log=log)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
