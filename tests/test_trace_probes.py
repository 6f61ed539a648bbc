"""The benchmark's span probes still find every target in the package.

perfbench/tracer.py wraps named functions and methods of vulnfuse; a target
renamed or removed makes its layer metrics absent instead of failing a run.
These checks fail instead, so a refactor cannot blind the benchmark unseen.
"""

import sys
from pathlib import Path

import numpy as np

from vulnfuse import bm25, dense, detectors, meta
from vulnfuse.corpus import Contract

from conftest import make_dataset
from test_dense import text_of_length

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
    index = bm25.Bm25Index(docs, ["x", "y", "z"], [(0,)] * 3)
    index.save(tmp_path / "index.json")
    loaded = bm25.Bm25Index.load(tmp_path / "index.json")
    tracer = tracing.Tracer()
    with tracer.patched():
        for searched in (index, loaded):
            searched.score_all(["a", "b", "a", "unseen"])
    spans = [s.attrs for s in tracer.spans if s.name == "bm25.score"]
    # "a" is in two documents and "b" in two; repeats and unseen terms add none
    assert spans == [{"postings": 4}, {"postings": 4}]


def test_batch_detect_traces_retrieval_per_contract(taxonomy5):
    """The spans that bm25.postings_touched, dense.fragments and dense.similarities
    count: one retrieval per contract, one embed per query fragment inside it."""
    train = make_dataset([(text_of_length(2000, seed=i), [i % 2, 0, 1, 0, 0])
                          for i in range(5)], taxonomy5)
    index, store = bm25.build_bm25(train), dense.build_store(train)
    queries = [Contract(id=f"q{i}", source=text_of_length(length, seed=40 + i))
               for i, length in enumerate((1500, 2700, 3600))]
    fragments = [len(dense.segment(q.source)) for q in queries]
    assert fragments == [1, 2, 3]
    tracer = tracing.Tracer()
    with tracer.patched():
        detectors.batch_detect([detectors.Bm25Detector(index, 5, top_k=3, vote_threshold=2),
                                detectors.DenseDetector(store, 5)], queries, 5)
    spans = {name: [s for s in tracer.spans if s.name == name] for name in
             ("bm25.rank", "bm25.score", "bm25.vote", "dense.vote", "dense.scan_rank")}
    assert {name: len(found) for name, found in spans.items()} == dict.fromkeys(spans, 3)
    ids = {s.id: s for s in tracer.spans}
    assert all(ids[s.parent].name == "bm25.rank" and s.attrs["postings"] > 0
               for s in spans["bm25.score"])
    scans = sorted(spans["dense.scan_rank"], key=lambda s: s.start)
    assert [s.attrs for s in scans] == [{"store_size": len(store)}] * 3
    embeds = [sum(s.name == "dense.embed" and s.parent == scan.id for s in tracer.spans)
              for scan in scans]
    assert embeds == fragments
    analysis = tracing.Analysis(tracer.spans, corpus_size=len(queries))
    assert analysis.fragments() == 6
    assert analysis.similarities() == 6 * len(store)
