"""Command-line entry point tying the pipeline stages together.

Exit codes: 0 success, 2 configuration error, 3 missing stage prerequisite,
4 every detector failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline, synth
from .config import _check_ranges, load_config
from .errors import AllDetectorsFailed, ConfigError, StageError, VulnfuseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ALL_FAILED = 4


_OVERRIDE_FLAGS = {
    "k": (["--k"], {"type": int, "help": "BM25 top-K override"}),
    "k1": (["--k1"], {"type": float, "help": "BM25 k1 override"}),
    "b": (["--b"], {"type": float, "help": "BM25 length-normalization b override"}),
    "vote_threshold": (["--vote-threshold"],
                       {"type": int, "help": "BM25 vote threshold override"}),
    "alpha": (["--alpha"], {"type": float, "help": "adapter sparsity level override"}),
    "rank": (["--rank"], {"type": int, "help": "adapter rank override"}),
    "epochs": (["--epochs"], {"type": int, "help": "training epoch override"}),
    "threshold": (["--threshold"], {"type": float, "help": "decision threshold override"}),
    "endpoint": (["--endpoint"], {"help": "remote endpoint override"}),
}


def _add_stage_args(parser, overrides=()):
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--out", default="work", help="artifact directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    for name in overrides:
        flags, kwargs = _OVERRIDE_FLAGS[name]
        parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnfuse",
        description="Smart-contract vulnerability detection with fused parallel detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--n", type=int, default=200, help="number of contracts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="corpus", help="output directory")
    p.add_argument("--test-fraction", type=float, default=0.3)

    _add_stage_args(sub.add_parser("ingest", help="validate the configured dataset files"))
    _add_stage_args(sub.add_parser("build-index",
                                   help="build and persist the BM25 index and vector store"),
                    overrides=("k1", "b"))
    _add_stage_args(sub.add_parser("train-slora", help="train the adapter classifier"),
                    overrides=("alpha", "rank", "epochs"))
    _add_stage_args(sub.add_parser("train-meta", help="train the verification meta-learner"),
                    overrides=("epochs", "threshold"))
    _add_stage_args(sub.add_parser("detect",
                                   help="run all detectors plus verification on the test set"),
                    overrides=("k", "vote_threshold", "endpoint"))
    _add_stage_args(sub.add_parser("evaluate", help="score detections against ground truth"))
    report_parser = sub.add_parser("report", help="render Markdown vulnerability reports")
    _add_stage_args(report_parser, overrides=("endpoint",))
    report_parser.add_argument("--contract", help="restrict to one contract id")
    return parser


# config field each override sets; a dict picks the field by command, None
# standing for every other command
_OVERRIDE_FIELDS = {
    "seed": "seed",
    "k": "bm25.top_k",
    "k1": "bm25.k1",
    "b": "bm25.b",
    "vote_threshold": "bm25.vote_threshold",
    "alpha": "slora.alpha",
    "rank": "slora.rank",
    "epochs": {"train-meta": "meta.epochs", None: "slora.epochs"},
    "threshold": "meta.threshold",
    "endpoint": {"report": "external.report_endpoint", None: "external.endpoint"},
}


def _config_with_overrides(args) -> "pipeline.PipelineConfig":
    config = load_config(args.config)
    for name, target in _OVERRIDE_FIELDS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if isinstance(target, dict):
            target = target.get(args.command, target[None])
        section, _, attr = target.rpartition(".")
        setattr(getattr(config, section) if section else config, attr, value)
    _check_ranges(config)
    return config


def _print_summary(summary) -> None:
    rows = [(name, m) for name, m in sorted(summary.per_detector.items())]
    if summary.verified is not None:
        rows.append(("verified", summary.verified))
    print(f"{'detector':<12} {'accuracy':>9} {'precision':>10} {'recall':>8} "
          f"{'f1':>7} {'mean_s':>9}")
    for name, m in rows:
        seconds = summary.mean_seconds.get(name)
        sec_text = f"{seconds:9.4f}" if seconds is not None else f"{'-':>9}"
        print(f"{name:<12} {m.accuracy:9.4f} {m.precision:10.4f} {m.recall:8.4f} "
              f"{m.f1:7.4f} {sec_text}")


def run(args) -> int:
    if args.command == "synth":
        paths = synth.write_corpus(args.out, args.n, args.seed, args.test_fraction)
        print(json.dumps(paths, indent=2))
        return EXIT_OK

    config = _config_with_overrides(args)
    if args.command == "ingest":
        print(json.dumps(pipeline.stage_ingest(config), indent=2))
    elif args.command == "build-index":
        print(json.dumps(pipeline.stage_build_index(config, args.out), indent=2))
    elif args.command == "train-slora":
        print(json.dumps(pipeline.stage_train_slora(config, args.out), indent=2))
    elif args.command == "train-meta":
        print(json.dumps(pipeline.stage_train_meta(config, args.out), indent=2))
    elif args.command == "detect":
        print(json.dumps(pipeline.stage_detect(config, args.out), indent=2))
    elif args.command == "evaluate":
        _print_summary(pipeline.stage_evaluate(config, args.out))
    elif args.command == "report":
        written = pipeline.stage_report(config, args.out, contract_id=args.contract)
        print(json.dumps({"reports": written}, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AllDetectorsFailed as exc:
        print(f"all detectors failed: {exc}", file=sys.stderr)
        return EXIT_ALL_FAILED
    except (StageError, VulnfuseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
