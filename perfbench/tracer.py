"""Span tracing of vulnfuse layers from outside the package.

A traced repetition swaps the public functions and methods listed in PROBES
for wrappers that record spans, and puts the originals back afterwards; no
file of the package changes. A span records its name, start, end, parent,
thread and contract id. Spans opened in `parallel_detect`'s pool threads
take their parent from the contract id, because the caller's span stack does
not follow work into the pool.

A probe whose target no longer exists is reported as absent with the
reason, together with every metric that depends on it; the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    thread: int
    contract: Optional[str]
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One wrapped target: `vulnfuse.<module>.<target>` recorded as `span`.

    `contract` names the argument whose `.id` tags the span; `register` makes
    the open span the parent of pool-thread spans for that contract; `note`
    adds attributes from the bound arguments and `after` from the result.
    """

    module: str
    target: str
    span: str
    contract: Optional[str] = None
    register: bool = False
    note: Optional[Callable] = None
    after: Optional[Callable] = None


def _postings(args) -> dict:
    # postings touched by one score_all call: one per (unique term, document)
    index, terms = args["self"], set(args["query_tokens"])
    return {"postings": sum(index.doc_freq.get(t, 0) for t in terms)}


def _store_size(args) -> dict:
    return {"store_size": len(args["store"])}


def _adapter_mults(args) -> dict:
    slora = sys.modules["vulnfuse.slora"]
    return {"mults": slora.flop_count(args["layer"], args["x"].shape[0])}


def _detector_name(args) -> dict:
    return {"detector": args["detector"].name}


def _detection_status(result) -> dict:
    return {"failed": int(not result.ok)}


PROBES = (
    Probe("corpus", "preprocess", "corpus.preprocess"),
    Probe("corpus", "Dataset.get", "corpus.lookup"),
    Probe("bm25", "tokenize", "bm25.tokenize"),
    Probe("bm25", "build_bm25", "bm25.build"),
    Probe("bm25", "Bm25Index.save", "bm25.save"),
    Probe("bm25", "Bm25Index.load", "bm25.load"),
    Probe("bm25", "Bm25Index.score_all", "bm25.score", note=_postings),
    Probe("bm25", "bm25_retrieve", "bm25.rank"),
    Probe("bm25", "bm25_vote", "bm25.vote"),
    Probe("dense", "build_store", "dense.build"),
    Probe("dense", "VectorStore.save", "dense.save"),
    Probe("dense", "VectorStore.load", "dense.load"),
    Probe("dense", "segment", "dense.segment"),
    Probe("dense", "HashingEmbedder.embed", "dense.embed"),
    Probe("dense", "dense_retrieve", "dense.scan_rank", note=_store_size),
    Probe("dense", "dense_vote", "dense.vote"),
    Probe("slora", "HashedFeatureExtractor.extract", "slora.extract"),
    Probe("slora", "sparsify", "slora.mask"),
    Probe("slora", "sparse_forward", "slora.sparse_matmul"),
    Probe("slora", "batch_loss_and_grads", "slora.step", note=_adapter_mults),
    Probe("slora", "classifier_probs", "slora.forward", note=_adapter_mults),
    Probe("meta", "train_meta", "meta.train"),
    Probe("meta", "verify", "meta.verify"),
    Probe("meta", "meta_forward", "meta.forward"),
    Probe("detectors", "parallel_detect", "detectors.parallel_detect",
          contract="contract", register=True),
    Probe("detectors", "detect", "detectors.detect", contract="contract",
          note=_detector_name, after=_detection_status),
    Probe("report", "render_report", "report.render"),
) + tuple(
    Probe("pipeline", f"stage_{stage}", f"pipeline.{stage}")
    for stage in ("ingest", "build_index", "train_slora", "train_meta",
                  "detect", "evaluate", "report")
)


class Tracer:
    """Collects spans; `patched()` installs the probes for one traced region."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}   # span name -> reason
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._by_contract: dict[str, int] = {}

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, contract: Optional[str] = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            contract = contract or parent.contract
            parent_id = parent.id
        else:
            parent_id = self._by_contract.get(contract)
        span = Span(next(self._ids), name, time.perf_counter(), parent_id,
                    threading.get_ident(), contract)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- patching ---------------------------------------------------------

    def _wrap(self, func, probe: Probe):
        tracer = self
        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            bound = None
            if probe.contract or probe.note:
                bound = signature.bind(*args, **kwargs).arguments
            contract = bound[probe.contract].id if probe.contract else None
            span = tracer.open(probe.span, contract)
            if probe.note:
                span.attrs.update(probe.note(bound))
            if probe.register:
                tracer._by_contract[contract] = span.id
            try:
                result = func(*args, **kwargs)
                if probe.after:
                    span.attrs.update(probe.after(result))
                return result
            finally:
                if probe.register:
                    tracer._by_contract.pop(contract, None)
                tracer.close(span)

        wrapper.__wrapped__ = func
        return wrapper

    def _resolve(self, probe: Probe):
        """(owner, attribute, raw value) of a probe target, or None if gone."""
        try:
            owner = importlib.import_module(f"vulnfuse.{probe.module}")
        except ImportError as exc:
            self.absent[probe.span] = f"vulnfuse.{probe.module} does not import: {exc}"
            return None
        *path, attr = probe.target.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.absent[probe.span] = f"vulnfuse.{probe.module}.{probe.target} no longer exists"
            return None
        return owner, attr, raw

    def patched(self):
        return _Patched(self)


class _Patched:
    """Context manager swapping every probe target for its wrapper."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "vulnfuse" or name.startswith("vulnfuse.")]
        for probe in self.tracer.probes:
            found = self.tracer._resolve(probe)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.tracer._wrap(raw.__func__, probe))
                self._swap(owner, attr, raw, wrapped)
            elif inspect.isclass(owner):
                self._swap(owner, attr, raw, self.tracer._wrap(raw, probe))
            else:
                # a module function: rebind every module that imported it by name
                wrapped = self.tracer._wrap(raw, probe)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._swap(module, name, raw, wrapped)
        return self.tracer

    def _swap(self, owner, attr, original, replacement):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Duration minus the part covered by child spans on the same thread.

    Children that ran on another thread (pool workers) overlap the parent in
    wall time but not in the parent's own work, so they are not subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        same_thread = [(c.start, c.end) for c in children[s.id] if c.thread == s.thread]
        out[s.id] = s.duration - _covered(same_thread, s.start, s.end)
    return out


TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    fitting = [p for p in TAIL_LADDER if round(n * (100.0 - p) / 100.0, 9) >= 10.0]
    return fitting[-1] if fitting else None


class Analysis:
    """Per-layer figures of one traced repetition."""

    def __init__(self, spans, corpus_size: int):
        self.spans = spans
        self.corpus_size = corpus_size
        self.by_id = {s.id: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)
        self.selfs = self_times(spans)

    def count(self, name) -> int:
        return len(self.by_name[name])

    def self_sum(self, name) -> float:
        return sum(self.selfs[s.id] for s in self.by_name[name])

    def total(self, name) -> float:
        return sum(s.duration for s in self.by_name[name])

    def attr_sum(self, key, *names) -> int:
        return sum(s.attrs.get(key, 0) for n in names for s in self.by_name[n])

    def under(self, span: Span, ancestor: str) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == ancestor:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def stage_of(self, span: Span) -> Optional[str]:
        """Name of the pipeline stage span enclosing `span`, if any."""
        while span is not None and not span.name.startswith("pipeline."):
            span = self.by_id.get(span.parent)
        return span.name if span is not None else None

    def self_by_stage(self) -> dict[str, dict[str, float]]:
        """Self time per span name, grouped by the enclosing stage.

        Spans with children on other threads are left out: their self time
        is mostly waiting for those children.
        """
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if all(c.thread == s.thread for c in self.children[s.id]):
                out[self.stage_of(s)][s.name] += self.selfs[s.id]
        return out

    def fragments(self) -> int:
        return sum(1 for s in self.by_name["dense.scan_rank"]
                   for c in self.children[s.id] if c.name == "dense.embed")

    def similarities(self) -> int:
        return sum(s.attrs["store_size"]
                   * sum(1 for c in self.children[s.id] if c.name == "dense.embed")
                   for s in self.by_name["dense.scan_rank"])

    def dispatch(self) -> float:
        """Σ over parallel_detect calls of wall time minus the longest detector."""
        total = 0.0
        for s in self.by_name["detectors.parallel_detect"]:
            kids = [c.duration for c in self.children[s.id] if c.name == "detectors.detect"]
            total += s.duration - max(kids, default=0.0)
        return total

    def overlap(self) -> float:
        wall = self.total("detectors.parallel_detect")
        return self.total("detectors.detect") / wall if wall else 0.0

    def external(self) -> float:
        return sum(s.duration for s in self.by_name["detectors.detect"]
                   if s.attrs.get("detector") == "external")

    def holdout_detect(self) -> float:
        return sum(s.duration for s in self.by_name["detectors.parallel_detect"]
                   if self.under(s, "pipeline.train_meta"))

    def contract_latencies_ms(self) -> list[float]:
        """Detect plus verify per test contract, paired in call order."""
        out = []
        for stage in self.by_name["pipeline.detect"]:
            kids = sorted(self.children[stage.id], key=lambda c: c.start)
            pending = None
            for c in kids:
                if c.name == "detectors.parallel_detect":
                    pending = c
                elif c.name == "meta.verify" and pending is not None:
                    out.append((c.end - pending.start) * 1e3)
                    pending = None
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _contract_ms(a: Analysis, tail: bool) -> float:
    lat = a.contract_latencies_ms()
    p = tail_percentile(len(lat)) if tail else 50.0
    return float(np.percentile(lat, p)) if lat and p is not None else 0.0


# name, unit, span names it needs, value from one traced repetition
LAYER_METRICS = (
    ("corpus.preprocess_s", "s", ("corpus.preprocess",), lambda a: a.self_sum("corpus.preprocess")),
    ("corpus.preprocess_calls", "count", ("corpus.preprocess",), lambda a: a.count("corpus.preprocess")),
    ("corpus.reingest_ratio", "ratio", ("corpus.preprocess",),
     lambda a: _ratio(a.count("corpus.preprocess"), a.corpus_size)),
    ("corpus.lookup_s", "s", ("corpus.lookup",), lambda a: a.self_sum("corpus.lookup")),
    ("bm25.build_s", "s", ("bm25.build",), lambda a: a.self_sum("bm25.build")),
    ("bm25.save_s", "s", ("bm25.save",), lambda a: a.self_sum("bm25.save")),
    ("bm25.load_s", "s", ("bm25.load",), lambda a: a.self_sum("bm25.load")),
    ("bm25.tokenize_s", "s", ("bm25.tokenize",), lambda a: a.self_sum("bm25.tokenize")),
    ("bm25.score_s", "s", ("bm25.score",), lambda a: a.self_sum("bm25.score")),
    ("bm25.rank_s", "s", ("bm25.rank",), lambda a: a.self_sum("bm25.rank")),
    ("bm25.vote_s", "s", ("bm25.vote",), lambda a: a.self_sum("bm25.vote")),
    ("bm25.queries", "count", ("bm25.rank",), lambda a: a.count("bm25.rank")),
    ("bm25.postings_touched", "count", ("bm25.score",), lambda a: a.attr_sum("postings", "bm25.score")),
    ("dense.build_s", "s", ("dense.build",), lambda a: a.self_sum("dense.build")),
    ("dense.save_s", "s", ("dense.save",), lambda a: a.self_sum("dense.save")),
    ("dense.load_s", "s", ("dense.load",), lambda a: a.self_sum("dense.load")),
    ("dense.segment_s", "s", ("dense.segment",), lambda a: a.self_sum("dense.segment")),
    ("dense.embed_s", "s", ("dense.embed",), lambda a: a.self_sum("dense.embed")),
    ("dense.scan_rank_s", "s", ("dense.scan_rank",), lambda a: a.self_sum("dense.scan_rank")),
    ("dense.vote_s", "s", ("dense.vote",), lambda a: a.self_sum("dense.vote")),
    ("dense.fragments", "count", ("dense.scan_rank", "dense.embed"), Analysis.fragments),
    ("dense.similarities", "count", ("dense.scan_rank", "dense.embed"), Analysis.similarities),
    ("slora.extract_s", "s", ("slora.extract",), lambda a: a.self_sum("slora.extract")),
    ("slora.mask_s", "s", ("slora.mask",), lambda a: a.self_sum("slora.mask")),
    ("slora.sparse_matmul_s", "s", ("slora.sparse_matmul",), lambda a: a.self_sum("slora.sparse_matmul")),
    ("slora.step_s", "s", ("slora.step",), lambda a: a.self_sum("slora.step")),
    ("slora.forward_s", "s", ("slora.forward",), lambda a: a.self_sum("slora.forward")),
    ("slora.batches", "count", ("slora.step",), lambda a: a.count("slora.step")),
    ("slora.mask_calls", "count", ("slora.mask",), lambda a: a.count("slora.mask")),
    ("slora.masks_per_forward", "ratio", ("slora.mask", "slora.step", "slora.forward"),
     lambda a: _ratio(a.count("slora.mask"), a.count("slora.step") + a.count("slora.forward"))),
    ("slora.adapter_mults", "count", ("slora.step", "slora.forward"),
     lambda a: a.attr_sum("mults", "slora.step", "slora.forward")),
    ("meta.train_s", "s", ("meta.train",), lambda a: a.self_sum("meta.train")),
    ("meta.verify_s", "s", ("meta.verify",), lambda a: a.self_sum("meta.verify")),
    ("meta.forward_s", "s", ("meta.forward",), lambda a: a.self_sum("meta.forward")),
    ("meta.forward_calls", "count", ("meta.forward",), lambda a: a.count("meta.forward")),
    ("detectors.dispatch_s", "s", ("detectors.parallel_detect", "detectors.detect"), Analysis.dispatch),
    ("detectors.overlap_ratio", "ratio", ("detectors.parallel_detect", "detectors.detect"), Analysis.overlap),
    ("detectors.external_s", "s", ("detectors.detect",), Analysis.external),
    ("detectors.calls", "count", ("detectors.detect",), lambda a: a.count("detectors.detect")),
    ("detectors.failed", "count", ("detectors.detect",), lambda a: a.attr_sum("failed", "detectors.detect")),
    ("detectors.contract_p50_ms", "ms", ("pipeline.detect", "detectors.parallel_detect", "meta.verify"),
     lambda a: _contract_ms(a, tail=False)),
    ("detectors.contract_tail_ms", "ms", ("pipeline.detect", "detectors.parallel_detect", "meta.verify"),
     lambda a: _contract_ms(a, tail=True)),
    ("detectors.contract_tail_pct", "percentile", ("pipeline.detect", "detectors.parallel_detect", "meta.verify"),
     lambda a: tail_percentile(len(a.contract_latencies_ms())) or 0.0),
    ("detectors.contract_samples", "count", ("pipeline.detect", "detectors.parallel_detect", "meta.verify"),
     lambda a: len(a.contract_latencies_ms())),
) + tuple(
    (f"pipeline.{stage}_s", "s", (f"pipeline.{stage}",), lambda a, n=f"pipeline.{stage}": a.total(n))
    for stage in ("ingest", "build_index", "train_slora", "train_meta", "detect", "evaluate", "report")
) + (
    ("pipeline.holdout_detect_s", "s", ("pipeline.train_meta", "detectors.parallel_detect"),
     Analysis.holdout_detect),
    ("report.render_s", "s", ("report.render",), lambda a: a.self_sum("report.render")),
    ("report.reports", "count", ("report.render",), lambda a: a.count("report.render")),
)


def layer_values(a: Analysis, absent: dict) -> tuple[dict, dict]:
    """(values, absent reasons) of LAYER_METRICS for one traced repetition."""
    values, missing = {}, {}
    for name, _unit, needs, fn in LAYER_METRICS:
        gone = [absent[n] for n in needs if n in absent]
        if gone:
            missing[name] = gone[0]
        else:
            values[name] = fn(a)
    return values, missing


def write_spans(path, reps) -> None:
    """One JSON line per span; `reps` holds the span list of each traced repetition."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep, spans in enumerate(reps):
            for s in spans:
                fh.write(json.dumps({"rep": rep, "id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "thread": s.thread,
                                     "contract": s.contract, **s.attrs}) + "\n")
