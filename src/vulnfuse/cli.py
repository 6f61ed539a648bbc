"""Command-line entry point tying the pipeline stages together.

Exit codes: 0 success, 2 configuration error, 3 missing stage prerequisite,
4 every detector failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import pipeline, synth
from .config import PipelineConfig, load_config
from .errors import AllDetectorsFailed, ConfigError, InvalidParameter, StageError, VulnfuseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ALL_FAILED = 4


# each stage command's override flags: flag -> (config field it sets, type, help)
_OVERRIDES = {
    "ingest": {},
    "build-index": {
        "--k1": ("bm25.k1", float, "BM25 k1 override"),
        "--b": ("bm25.b", float, "BM25 length-normalization b override"),
    },
    "train-slora": {
        "--alpha": ("slora.alpha", float, "adapter sparsity level override"),
        "--rank": ("slora.rank", int, "adapter rank override"),
        "--epochs": ("slora.epochs", int, "training epoch override"),
    },
    "train-meta": {
        "--epochs": ("meta.epochs", int, "training epoch override"),
        "--threshold": ("meta.threshold", float, "decision threshold override"),
    },
    "detect": {
        "--k": ("bm25.top_k", int, "BM25 top-K override"),
        "--vote-threshold": ("bm25.vote_threshold", int, "BM25 vote threshold override"),
        "--endpoint": ("external.endpoint", str, "remote endpoint override"),
    },
    "evaluate": {},
    "report": {"--endpoint": ("external.report_endpoint", str, "remote endpoint override")},
}


def _add_stage_args(parser, command):
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--out", default="work", help="artifact directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    for flag, (_, kind, text) in _OVERRIDES[command].items():
        parser.add_argument(flag, type=kind, help=text)


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

    for command, text in (
            ("ingest", "validate the configured dataset files"),
            ("build-index", "build and persist the BM25 index and vector store"),
            ("train-slora", "train the adapter classifier"),
            ("train-meta", "train the verification meta-learner"),
            ("detect", "run all detectors plus verification on the test set"),
            ("evaluate", "score detections against ground truth"),
            ("report", "render Markdown vulnerability reports")):
        _add_stage_args(sub.add_parser(command, help=text), command)
    sub.choices["report"].add_argument("--contract", help="restrict to one contract id")
    return parser


def _config_with_overrides(args) -> PipelineConfig:
    """The config file with the command's flags applied; each changed section is
    rebuilt, so a flag's value is range-checked like the file's."""
    config = load_config(args.config)
    changes, sections = {}, {}
    if args.seed is not None:
        changes["seed"] = args.seed
    for flag, (target, _, _) in _OVERRIDES[args.command].items():
        value = getattr(args, flag[2:].replace("-", "_"))   # argparse's dest for the flag
        if value is not None:
            section, _, name = target.partition(".")
            sections.setdefault(section, {})[name] = value
    try:
        changes.update((name, replace(getattr(config, name), **values))
                       for name, values in sections.items())
        return replace(config, **changes)
    except InvalidParameter as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


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
