"""The benchmark's span probes still find every target in the package.

perfbench/tracer.py wraps named functions and methods of vulnfuse; a target
renamed or removed makes its layer metrics absent instead of failing a run.
These checks fail instead, so a refactor cannot blind the benchmark unseen.
"""

import sys
from pathlib import Path

import numpy as np

from vulnfuse import bm25, detectors, meta
from vulnfuse.corpus import Contract, LabelVector

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer as tracing  # noqa: E402


def test_every_probe_target_resolves():
    tracer = tracing.Tracer()
    with tracer.patched():
        pass
    assert tracer.absent == {}


def test_walked_detections_and_verify_are_traced():
    waiting = detectors.MockDetector([0.4, 0.6], name="remote", delay=0.001, fail=True)
    local = detectors.MockDetector([0.2, 0.9], name="local")
    contracts = [Contract(id=f"c{i}", source="x;") for i in range(3)]
    tracer = tracing.Tracer()
    with tracer.patched():
        record = detectors.batch_detect([waiting, local], contracts, 2)
        meta.verify(meta.init_meta(psi=2, seed=0), record)
    spans = [s for s in tracer.spans if s.name == "detectors.detect"]
    # only the waiting detector walks its contracts through `detect`
    assert [s.contract for s in spans] == ["c0", "c1", "c2"]
    assert all(s.attrs == {"detector": "remote", "failed": 1} for s in spans)
    assert [s.name for s in tracer.spans].count("meta.forward") == 1
    assert [s.name for s in tracer.spans].count("meta.verify") == 1
    assert np.isnan(record.probs[0]).all()


def test_loaded_index_traces_the_same_postings(tmp_path):
    docs = [["a", "b", "a"], ["b", "c"], ["a", "call"]]
    index = bm25.Bm25Index(docs, ["x", "y", "z"], [LabelVector(bits=(0,))] * 3)
    index.save(tmp_path / "index.json")
    loaded = bm25.Bm25Index.load(tmp_path / "index.json")
    tracer = tracing.Tracer()
    with tracer.patched():
        for searched in (index, loaded):
            searched.score_all(["a", "b", "a", "unseen"])
    spans = [s.attrs for s in tracer.spans if s.name == "bm25.score"]
    # "a" is in two documents and "b" in two; repeats and unseen terms add none
    assert spans == [{"postings": 4}, {"postings": 4}]
