#!/usr/bin/env python3
"""Stage-and-layer benchmark for vulnfuse.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

The run sets up its inputs several times (reporting the median set-up time),
then repeats the workload's timed stage calls until `--seconds` have passed,
each repetition in a fresh working directory, and checks that every
repetition produced byte-identical outputs. It prints every metric by name
with its unit and sample count, and as its last line one JSON object with
the metrics BENCHMARK.json lists: the end-to-end ones with `--trace 0`, the
per-layer ones with `--trace 1`. A traced run alternates untraced and traced
repetitions; layer figures come only from the traced ones.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: OpenBLAS workers spin-wait and
# compete with the detector thread pool on a small machine, which made job_s
# vary by 15% between runs of the same input.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from endpoint import answers_503  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_REPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "train_s": "s",
    "detect_contracts_per_s": "contracts/s",
    "fused_f1": "ratio",
    "failed_share": "ratio",
    "peak_rss_mb": "MB",
}

EXTRA_LAYER_UNITS = {
    "remote.requests": "count",
    "remote.errors_served": "count",
    "remote.retry_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.stage_coverage": "ratio",
}
LAYER_UNITS = {**{name: unit for name, unit, _, _ in tracing.LAYER_METRICS},
               **EXTRA_LAYER_UNITS}
TOP_SELF = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def filesystem_of(path: Path) -> str:
    """Type and mount point of the filesystem holding `path`."""
    try:
        mounts = [line.split() for line in
                  Path("/proc/self/mounts").read_text(encoding="utf-8").splitlines()]
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best = ("", "unknown")
    for fields in mounts:
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best[0]):
            best = (point, fields[2])
    return f"{best[1]} (mounted at {best[0] or '?'})"


class Bench:
    """One run of one workload: set-ups, repetitions and their outputs."""

    def __init__(self, workload, seed: int, base: Path, vf):
        self.w = workload
        self.seed = seed
        self.base = base
        self.vf = vf
        self.checks: list[tuple[str, bool, str]] = []
        self.cleanup_s = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    # -- set-up -----------------------------------------------------------

    def set_up(self, index: int) -> dict:
        root = self.base / f"setup{index}"
        workdir = root / "work"
        started = time.perf_counter()
        endpoint = workloads.Endpoint() if self.w.remote else None
        try:
            config_path, pairs = workloads.write_inputs(self.w, self.seed, root, self.vf.synth,
                                                        endpoint)
            config = self.vf.load_config(config_path)
            train_s = None
            if self.w.trains_in_setup:
                train_started = time.perf_counter()
                for stage in workloads.TRAIN_STAGES:
                    workloads.call_stage(self.vf.pipeline, stage, config, workdir)
                train_s = time.perf_counter() - train_started
        except BaseException:
            if endpoint is not None:
                endpoint.stop()
            raise
        seconds = time.perf_counter() - started
        if pairs:
            preprocess = self.vf.corpus.preprocess
            same = sum(preprocess(c) == preprocess(p) for p, c in pairs)
            self.check(f"setup{index}: comments leave preprocess output unchanged",
                       same == len(pairs), f"{same}/{len(pairs)} contracts")
        return {"seconds": seconds, "train_s": train_s, "config": config,
                "workdir": workdir, "endpoint": endpoint}

    # -- repetitions ------------------------------------------------------

    def repetition(self, index: int, setup: dict, traced: bool) -> dict:
        rep_dir = self.base / f"rep{index}"
        if self.w.trains_in_setup:
            shutil.copytree(setup["workdir"], rep_dir)
        else:
            rep_dir.mkdir(parents=True)
        endpoint = setup["endpoint"]
        if endpoint is not None:
            endpoint.stats()  # reset the counters
        tracer = tracing.Tracer() if traced else None
        times = {}
        gc.collect()  # no garbage from earlier repetitions inside the clock
        if tracer is not None:
            with tracer.patched():
                self._stages(setup["config"], rep_dir, times)
        else:
            self._stages(setup["config"], rep_dir, times)
        out = {"times": times, "tracer": tracer,
               "remote": endpoint.stats() if endpoint is not None else None}
        out.update(self._outputs(rep_dir))
        started = time.perf_counter()
        shutil.rmtree(rep_dir)
        self.cleanup_s += time.perf_counter() - started
        return out

    def _stages(self, config, workdir, times) -> None:
        for stage in self.w.timed:
            started = time.perf_counter()
            workloads.call_stage(self.vf.pipeline, stage, config, workdir)
            times[stage] = time.perf_counter() - started

    def _outputs(self, workdir: Path) -> dict:
        results = workdir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
        cells = [v for rec in records for v in rec["detectors"].values()]
        summary = json.loads((workdir / "summary.json").read_text(encoding="utf-8"))
        out = {
            "results_sha256": workloads.sha256_file(results),
            "fused_f1": summary["verified"]["f1"],
            "results": len(records),
            "cells": len(cells),
            "null_cells": sum(v is None for v in cells),
            "external_failed": sorted(rec["id"] for rec in records
                                      if rec["detectors"].get("external", 0) is None),
            "reports": len(list((workdir / "reports").glob("*.md")))
            if (workdir / "reports").is_dir() else None,
        }
        if not self.w.trains_in_setup:
            out["artifacts"] = {name: workloads.sha256_file(workdir / name)
                                for name in workloads.TRAIN_ARTIFACTS}
        return out


def median(values):
    return statistics.median(values) if values else None


def job_time(w, rep) -> float:
    return sum(rep["times"][s] for s in w.job)


def run(args, vf):
    """Set up, repeat until the time is up, clean up; returns the raw outcomes."""
    w = workloads.WORKLOADS[args.workload]
    base = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    bench = Bench(w, args.seed, base, vf)
    lines = [f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             f"working directories: fresh per repetition under {base.relative_to(ROOT)} "
             f"on {filesystem_of(base)}"]
    setups = []
    try:
        for i in range(SETUPS):
            setups.append(bench.set_up(i))
            if i < SETUPS - 1 and setups[-1]["endpoint"] is not None:
                setups[-1]["endpoint"].stop()
        setup = setups[-1]
        config, corpus = setup["config"], vf.corpus
        test = corpus.ingest(config.test_path, corpus.load_taxonomy(config.taxonomy_path), "test")
        test_sources = {c.id: c.source for c in test}
        untraced, traced = [], []
        started = time.perf_counter()
        while True:
            untraced.append(bench.repetition(len(untraced) + len(traced), setup, traced=False))
            if args.trace:
                traced.append(bench.repetition(len(untraced) + len(traced), setup, traced=True))
            done = time.perf_counter() - started >= args.seconds
            if done and len(untraced) >= (2 if args.trace else MIN_REPS):
                break
    finally:
        for s in setups:
            if s["endpoint"] is not None:
                s["endpoint"].stop()
        shutil.rmtree(base, ignore_errors=True)
    measured = time.perf_counter() - started
    lines.append(f"measured {len(untraced) + len(traced)} repetitions in {measured:.1f} s; "
                 f"clean-up outside the timed region took {bench.cleanup_s:.2f} s")
    return bench, setups, untraced, traced, test_sources, lines


# ---------------------------------------------------------------------------
# metrics and checks
# ---------------------------------------------------------------------------

def end_to_end(w, setups, reps, test_contracts) -> dict:
    job = [job_time(w, r) for r in reps]
    if w.trains_in_setup:
        train = [s["train_s"] for s in setups]
    else:
        train = [sum(r["times"][s] for s in workloads.TRAIN_STAGES) for r in reps]
    detect = [test_contracts / r["times"]["detect"] for r in reps]
    return {
        "setup_s": (median([s["seconds"] for s in setups]), len(setups)),
        "job_s": (median(job), len(job)),
        "train_s": (median(train), len(train)),
        "detect_contracts_per_s": (median(detect), len(detect)),
        "fused_f1": (reps[0]["fused_f1"], len(reps)),
        "failed_share": (reps[0]["null_cells"] / reps[0]["cells"], reps[0]["cells"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(traced, untraced, w, corpus_size, bench) -> tuple[dict, dict, list]:
    """Median layer figures over traced repetitions, absent metrics, profile lines."""
    per_rep, absent = [], {}
    by_stage = defaultdict(lambda: defaultdict(float))
    for r in traced:
        analysis = tracing.Analysis(r["tracer"].spans, corpus_size)
        values, missing = tracing.layer_values(analysis, r["tracer"].absent)
        absent.update(missing)
        for stage, selfs in analysis.self_by_stage().items():
            for name, value in selfs.items():
                by_stage[stage][name] += value / len(traced)
        stages = sum(analysis.total(f"pipeline.{s}") for s in w.job)
        values["trace.stage_coverage"] = stages / job_time(w, r)
        remote = r["remote"] or {"requests": 0, "errors_served": 0, "distinct_sources": 0}
        values["remote.requests"] = remote["requests"]
        values["remote.errors_served"] = remote["errors_served"]
        distinct = remote["distinct_sources"]
        values["remote.retry_ratio"] = (remote["requests"] - distinct) / distinct if distinct else 0.0
        per_rep.append(values)
    out = {}
    for name in per_rep[0]:
        vals = [v[name] for v in per_rep]
        if LAYER_UNITS[name] == "count":
            bench.check(f"count {name} repeats across traced repetitions",
                        len(set(vals)) == 1, str(sorted(set(vals))))
            out[name] = (vals[0], len(vals))
        else:
            out[name] = (median(vals), len(vals))
    out["trace.overhead_ratio"] = (median([job_time(w, r) for r in traced])
                                   / median([job_time(w, r) for r in untraced]), len(traced))
    coverage = out["trace.stage_coverage"][0]
    bench.check("stage spans account for job_s", 0.98 <= coverage <= 1.0, f"{coverage:.4f}")
    profile = []
    for stage in (f"pipeline.{s}" for s in w.timed):
        top = sorted(by_stage[stage].items(), key=lambda kv: -kv[1])[:TOP_SELF]
        profile.append(f"  largest self times in {stage}: "
                       + ", ".join(f"{name} {value:.3f} s" for name, value in top))
    return out, absent, profile


def output_checks(bench, w, reps, test_sources):
    first = reps[0]
    bench.check("results.jsonl identical across repetitions",
                len({r["results_sha256"] for r in reps}) == 1, first["results_sha256"])
    bench.check("fused_f1 identical across repetitions",
                len({r["fused_f1"] for r in reps}) == 1, repr(first["fused_f1"]))
    bench.check("one result per test contract", first["results"] == len(test_sources),
                f"{first['results']} results, {len(test_sources)} test contracts")
    if "artifacts" in first:
        for name, digest in first["artifacts"].items():
            bench.check(f"{name} identical across repetitions",
                        len({r["artifacts"][name] for r in reps}) == 1, digest)
    if "report" in w.job:
        bench.check("one report per test contract",
                    all(r["reports"] == len(test_sources) for r in reps), str(first["reports"]))
    if w.remote:
        expected = sorted(cid for cid, src in test_sources.items() if answers_503(src))
        failed = first["external_failed"]
        bench.check("external results fail exactly where the endpoint answers 503",
                    failed == expected, f"{len(failed)} failed")


def emit(lines, e2e, layer, absent, bench, report_names, trace: bool, attempted: int):
    for name, (value, n) in e2e.items():
        lines.append(f"  {name:<28} {value:>14.6g} {E2E_UNITS[name]:<12} n={n}")
    if layer:
        lines.append("per-layer (median over traced repetitions):")
        for name, (value, n) in layer.items():
            lines.append(f"  {name:<28} {value:>14.6g} {LAYER_UNITS[name]:<12} n={n}")
    for name, reason in sorted(absent.items()):
        lines.append(f"  {name:<28} absent: {reason}")
    for name, ok, detail in bench.checks:
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("\n".join(lines))
    source, table = (layer, LAYER_UNITS) if trace else (e2e, E2E_UNITS)
    metrics = {name: {"value": source[name][0], "unit": table[name]}
               for name in report_names if name in source}
    print(json.dumps({"correct": all(ok for _, ok, _ in bench.checks),
                      "attempted": attempted, "failed": 0, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "vulnfuse" / "pipeline.py").is_file():
        print(f"perfbench: no vulnfuse sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from vulnfuse import corpus, pipeline, synth
    from vulnfuse.config import load_config

    vf = SimpleNamespace(corpus=corpus, pipeline=pipeline, synth=synth, load_config=load_config)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    w = workloads.WORKLOADS[args.workload]
    bench, setups, untraced, traced, test_sources, lines = run(args, vf)
    output_checks(bench, w, untraced + traced, test_sources)
    e2e = end_to_end(w, setups, untraced, len(test_sources))
    layer, absent = {}, {}
    if args.trace:
        layer, absent, profile = per_layer(traced, untraced, w, w.contracts, bench)
        lines += profile
        spans_path = ROOT / ".bench_work" / f"spans-{w.name}.jsonl"
        tracing.write_spans(spans_path, [r["tracer"].spans for r in traced])
        lines.append(f"spans of {len(traced)} traced repetitions written to "
                     f"{spans_path.relative_to(ROOT)}")
    lines.append(f"inputs: {w.contracts} contracts, {len(test_sources)} in the test split; "
                 f"stage medians: " + ", ".join(
                     f"{s} {median([r['times'][s] for r in untraced]):.3f} s" for s in w.timed))
    lines.append("job_s per untraced repetition: "
                 + ", ".join(f"{job_time(w, r):.3f}" for r in untraced))
    lines.append(f"results.jsonl sha256 {untraced[0]['results_sha256']}")
    for name, digest in untraced[0].get("artifacts", {}).items():
        lines.append(f"{name} sha256 {digest}")
    lines.append("end-to-end (median over untraced repetitions; set-up over set-ups):")
    attempted = sum(len(r["times"]) for r in untraced + traced) \
        + sum(len(workloads.TRAIN_STAGES) for s in setups if s["train_s"] is not None)
    emit(lines, e2e, layer, absent, bench, report_names, bool(args.trace), attempted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
