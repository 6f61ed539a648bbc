"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import endpoint  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from vulnfuse import corpus, detectors, synth  # noqa: E402


def span(id, name, start, end, parent=None, thread=1, contract=None):
    return tracing.Span(id, name, start, parent, thread, contract, end=end)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_only_same_thread_children():
    spans = [
        span(1, "pipeline.detect", 0.0, 10.0, thread=1),
        span(2, "detectors.parallel_detect", 1.0, 9.0, parent=1, thread=1),
        # pool threads: overlapping each other and the parent's whole interval
        span(3, "detectors.detect", 1.5, 8.0, parent=2, thread=2),
        span(4, "detectors.detect", 1.5, 8.5, parent=2, thread=3),
        span(5, "bm25.rank", 2.0, 7.0, parent=3, thread=2),
        span(6, "bm25.score", 3.0, 4.0, parent=5, thread=2),
        span(7, "meta.verify", 9.0, 9.5, parent=1, thread=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs[2] == pytest.approx(8.0)       # pool children are not subtracted
    assert selfs[3] == pytest.approx(6.5 - 5.0)
    assert selfs[4] == pytest.approx(7.0)
    assert selfs[5] == pytest.approx(4.0)
    assert selfs[6] == pytest.approx(1.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", -1.0, 3.0, parent=1),   # starts before the parent
        span(3, "c", 2.0, 5.0, parent=1),    # overlaps b
        span(4, "d", 9.0, 12.0, parent=1),   # ends after the parent
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_dispatch_and_overlap_from_pool_spans():
    spans = [
        span(1, "pipeline.detect", 0.0, 10.0),
        span(2, "detectors.parallel_detect", 0.0, 4.0, parent=1),
        span(3, "detectors.detect", 0.5, 3.5, parent=2, thread=2),
        span(4, "detectors.detect", 0.5, 2.5, parent=2, thread=3),
        span(5, "meta.verify", 4.0, 5.0, parent=1),
    ]
    a = tracing.Analysis(spans, corpus_size=1)
    assert a.dispatch() == pytest.approx(4.0 - 3.0)
    assert a.overlap() == pytest.approx(5.0 / 4.0)
    assert a.contract_latencies_ms() == [pytest.approx(5000.0)]
    profile = a.self_by_stage()["pipeline.detect"]
    assert "detectors.parallel_detect" not in profile   # waiting, not work
    assert profile["meta.verify"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


# ---------------------------------------------------------------------------
# comment injector
# ---------------------------------------------------------------------------

def test_comments_round_trip_through_preprocess():
    rng = random.Random(3)
    records = synth.generate_corpus(60, seed=11)
    added = 0
    for record in records:
        plain = record["source"]
        commented = workloads.add_comments(plain, rng)
        added += commented.count("//") + commented.count("/*")
        assert corpus.preprocess(commented) == corpus.preprocess(plain)
    assert added > 5 * len(records)


def test_comment_split_rewrites_file_deterministically(tmp_path):
    paths = synth.write_corpus(tmp_path / "a", 30, seed=5, test_fraction=0.5)
    again = synth.write_corpus(tmp_path / "b", 30, seed=5, test_fraction=0.5)
    pairs = workloads.comment_split(paths["test"], seed=5)
    workloads.comment_split(again["test"], seed=5)
    assert Path(paths["test"]).read_bytes() == Path(again["test"]).read_bytes()
    assert all(plain != commented for plain, commented in pairs)
    rows = [json.loads(line) for line in Path(paths["test"]).read_text().splitlines()]
    assert [r["source"] for r in rows] == [c for _, c in pairs]


# ---------------------------------------------------------------------------
# remote endpoint
# ---------------------------------------------------------------------------

def test_503_selection_is_deterministic_and_near_five_percent():
    sources = [r["source"] for r in synth.generate_corpus(2000, seed=1)]
    picked = [endpoint.answers_503(s) for s in sources]
    assert picked == [endpoint.answers_503(s) for s in sources]
    assert 0.03 < sum(picked) / len(picked) < 0.07


def test_endpoint_serves_probabilities_or_503():
    server = endpoint.make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/"
    taxonomy = list(synth.DEFAULT_TAXONOMY)
    sources = [r["source"] for r in synth.generate_corpus(200, seed=2)]
    refused = next(s for s in sources if endpoint.answers_503(s))
    served = next(s for s in sources if not endpoint.answers_503(s))

    def post(source):
        body = json.dumps({"source": source, "taxonomy": taxonomy}).encode()
        request = urllib.request.Request(url, data=body, method="POST",
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as reply:
            return json.loads(reply.read())

    try:
        assert post(served)["probabilities"] == endpoint.probabilities(served, taxonomy)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(refused)
        assert err.value.code == 503
        with urllib.request.urlopen(url + "stats", timeout=10) as reply:
            stats = json.loads(reply.read())
        assert stats == {"requests": 2, "errors_served": 1, "distinct_sources": 2}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def test_pool_thread_spans_take_their_parent_from_the_contract():
    tracer = tracing.Tracer()
    contract = corpus.Contract(id="c1", source="x")
    dets = [detectors.MockDetector([0.2, 0.9], name=f"m{i}", delay=0.01) for i in range(3)]
    original = detectors.parallel_detect
    with tracer.patched():
        assert detectors.parallel_detect is not original
        detectors.parallel_detect(dets, contract)
    assert detectors.parallel_detect is original
    (pd,) = [s for s in tracer.spans if s.name == "detectors.parallel_detect"]
    kids = [s for s in tracer.spans if s.name == "detectors.detect"]
    assert len(kids) == 3
    assert all(k.parent == pd.id and k.contract == "c1" and k.thread != pd.thread for k in kids)
    assert sorted(k.attrs["detector"] for k in kids) == ["m0", "m1", "m2"]


def test_missing_target_is_reported_absent_without_crashing():
    probes = tracing.PROBES + (tracing.Probe("meta", "no_such_function", "meta.gone"),
                               tracing.Probe("no_such_module", "f", "elsewhere.gone"))
    tracer = tracing.Tracer(probes)
    with tracer.patched():
        pass
    assert set(tracer.absent) == {"meta.gone", "elsewhere.gone"}
    values, missing = tracing.layer_values(tracing.Analysis([], 1),
                                           {"meta.forward": "gone in a refactor"})
    assert missing == {"meta.forward_s": "gone in a refactor",
                       "meta.forward_calls": "gone in a refactor"}
    assert "meta.verify_s" in values
