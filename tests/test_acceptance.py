"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing test is the corresponding FAIL.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vulnfuse import pipeline
from vulnfuse.bm25 import bm25_retrieve, build_bm25, tokenize
from vulnfuse.config import load_config
from vulnfuse.corpus import Contract, ingest, load_taxonomy
from vulnfuse.dense import (
    HashingEmbedder,
    SegmentationParams,
    build_store,
    dense_retrieve,
    dynamic_threshold,
    expected_fragment_count,
    segment,
)
from vulnfuse.meta import adapt_to_task
from vulnfuse.report import SECTION_HEADERS
from vulnfuse.slora import (
    ReadoutHead,
    SloraParams,
    active_entry_count,
    batch_loss_and_grads,
    classifier_probs,
    flop_count,
    increment_forward_counted,
    init_adapter,
    init_head,
    sparsify,
    train,
)
from vulnfuse.synth import write_corpus

from test_bm25 import oracle_idf, oracle_score, random_corpus
from test_dense import text_of_length
from test_slora import fd_gradient, relative_error, spaced_sparse_matrix
from conftest import make_dataset


def _pipeline_config_payload(paths, seed=7):
    return {
        "seed": seed,
        "taxonomy": paths["taxonomy"],
        "datasets": {"train": paths["train"], "test": paths["test"]},
        "slora": {"feature_dim": 128, "rank": 8, "alpha": 0.9,
                  "learning_rate": 1.0, "batch_size": 8, "epochs": 200},
        "meta": {"learning_rate": 0.2, "epochs": 600, "batch_size": 16},
    }


def run_full_pipeline(root: Path, seed=7):
    paths = write_corpus(root / "corpus", 200, seed)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(_pipeline_config_payload(paths, seed)))
    config = load_config(cfg_path)
    workdir = root / "work"
    started = time.perf_counter()
    summary = pipeline.run_all(config, workdir)
    elapsed = time.perf_counter() - started
    return {
        "paths": paths,
        "config": config,
        "workdir": workdir,
        "summary": summary,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    return run_full_pipeline(tmp_path_factory.mktemp("e2e"))


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_overall = 0.0
    for trial in range(10):
        dim = int(rng.integers(4, 17))
        rank = int(rng.integers(1, 5))
        num_labels = int(rng.integers(1, 4))
        layer = init_adapter(dim, rank, float(rng.uniform(0.2, 0.95)), seed=trial)
        layer.u[:] = rng.normal(0, 0.3, layer.u.shape)
        layer.v[:] = rng.normal(0, 0.3, layer.v.shape)
        layer.s[:] = spaced_sparse_matrix(rng, dim)
        head = ReadoutHead(w=rng.normal(0, 0.3, (dim, num_labels)),
                           b=rng.normal(0, 0.1, num_labels))
        x = rng.normal(0, 1, (5, dim))
        y = rng.integers(0, 2, (5, num_labels)).astype(np.float64)
        mask, _ = sparsify(layer.s, layer.alpha)

        def loss():
            value, _ = batch_loss_and_grads(x, y, layer, head, mask)
            return value

        _, grads = batch_loss_and_grads(x, y, layer, head, mask)
        for name, array in (("u", layer.u), ("v", layer.v), ("s", layer.s),
                            ("head_w", head.w), ("head_b", head.b)):
            numeric = fd_gradient(loss, array, step=1e-5)
            if name == "s":
                numeric = numeric * mask
            err = relative_error(grads[name], numeric)
            active = np.maximum(np.abs(grads[name]), np.abs(numeric)) > 1e-10
            worst = float(err[active].max()) if np.any(active) else 0.0
            assert worst <= 1e-4, f"trial {trial} tensor {name}: {worst}"
            worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS criterion 1: gradient oracle, worst rel err {worst_overall:.2e} "
          f"in {elapsed:.1f}s")


def test_criterion_02_frozen_base():
    rng = np.random.default_rng(102)
    layer = init_adapter(16, 8, 0.9, seed=0)
    head = init_head(16, 3, seed=0)
    x = rng.normal(0, 1, (64, 16))
    y = rng.integers(0, 2, (64, 3)).astype(np.float64)
    before = hashlib.sha256(np.ascontiguousarray(layer.w_q).tobytes()).hexdigest()
    train(layer, head, x, y, SloraParams(), 0)  # Table defaults: lr 5e-5, B 8, 5 epochs
    after = hashlib.sha256(np.ascontiguousarray(layer.w_q).tobytes()).hexdigest()
    assert after == before
    print(f"PASS criterion 2: base weights hash unchanged after 5-epoch train ({before[:12]})")


def test_criterion_03_sparsity_exactness():
    rng = np.random.default_rng(103)
    alphas = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
    for trial in range(20):
        dim = int(rng.integers(2, 33))
        alpha = alphas[trial % len(alphas)]
        mask, k = sparsify(rng.normal(0, 1, (dim, dim)), alpha)
        expected = active_entry_count(alpha, dim * dim)
        assert int(mask.sum()) == k == expected, (dim, alpha)
    print("PASS criterion 3: mask popcount = floor((1-alpha)*d^2) on 20 random cases")


def test_criterion_04_complexity_accounting():
    rng = np.random.default_rng(104)
    for _ in range(10):
        dim = int(rng.integers(4, 40))
        rank = int(rng.integers(1, 9))
        alpha = float(rng.choice([0.0, 0.25, 0.5, 0.9, 0.99, 1.0]))
        n = int(rng.integers(1, 8))
        layer = init_adapter(dim, rank, alpha, seed=int(rng.integers(1000)))
        _, counted = increment_forward_counted(rng.normal(0, 1, (n, dim)), layer)
        k = active_entry_count(alpha, dim * dim)
        assert counted == n * (2 * dim * rank + k)
    layer = init_adapter(64, 8, 0.99, seed=1)
    n = 16
    _, counted = increment_forward_counted(np.ones((n, 64)), layer)
    dense_cost = n * 64 * 64
    assert counted == flop_count(layer, n) == n * 1064
    assert counted < 0.30 * dense_cost
    print(f"PASS criterion 4: incremental multiplies {counted} = n(2dr+k), "
          f"{counted / dense_cost:.1%} of dense")


def test_criterion_05_learning_sanity():
    started = time.perf_counter()
    traces = []
    f1 = None
    for _ in range(2):  # repeated to confirm seed-determinism
        rng = np.random.default_rng(42)
        dim, num_labels, n = 32, 2, 500
        w_true = rng.normal(0, 1, (dim, num_labels))
        x = rng.normal(0, 1, (n, dim))
        y = (x @ w_true > 0).astype(np.float64)
        layer = init_adapter(dim, 4, 0.9, seed=1)
        head = init_head(dim, num_labels, seed=1)
        result = train(layer, head, x, y,
                       SloraParams(learning_rate=0.1, batch_size=32, epochs=200), 1)
        traces.append(result.loss_trace)
        pred = (classifier_probs(x, layer, head) >= 0.5).astype(np.float64)
        tp = float(np.sum(pred * y))
        fp = float(np.sum(pred * (1 - y)))
        fn = float(np.sum((1 - pred) * y))
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.95
    assert traces[0] == traces[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"PASS criterion 5: separable-task micro-F1 {f1:.3f} within 200 epochs, "
          f"deterministic, {elapsed:.1f}s")


def test_criterion_06_bm25_oracle(taxonomy5):
    import random as pyrandom
    started = time.perf_counter()
    rng = pyrandom.Random(106)
    docs = random_corpus(rng, 100)
    ds = make_dataset([(d, [0] * 5) for d in docs], taxonomy5)
    index = build_bm25(ds, keywords=())
    token_docs = [tokenize(d, keywords=()) for d in docs]
    idf = {term: oracle_idf(term, token_docs) for term in set().union(*token_docs)}
    worst = 0.0
    for qi in range(100):
        query = token_docs[qi]
        scores = index.score_all(query)
        oracle = np.array([
            oracle_score(query, token_docs[di], token_docs, index.k1, index.b, idf)
            for di in range(100)
        ])
        worst = max(worst, float(np.abs(scores - oracle).max()))
        assert worst <= 1e-9
        got_rank = sorted(range(100), key=lambda i: (-scores[i], index.ids[i]))
        want_rank = sorted(range(100), key=lambda i: (-oracle[i], index.ids[i]))
        assert got_rank == want_rank
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 6: BM25 matches brute force, worst |diff| {worst:.1e}, "
          f"rankings identical, {elapsed:.1f}s")


def test_criterion_07_segmentation_counts(taxonomy5):
    params = SegmentationParams()
    store = build_store(
        make_dataset([(text_of_length(2000, seed=i), [0] * 5) for i in range(3)], taxonomy5),
        params,
    )
    checked = 0
    for length in range(1500, 18001, 37):
        source = text_of_length(length, seed=length)
        fragments = segment(source, params)
        want = expected_fragment_count(length, params)
        assert len(fragments) == want, f"L={length}"
        rows, scores = dense_retrieve(Contract(id="query", source=source), store, params)
        assert len(rows) == len(scores) == params.chi * want, f"L={length}"
        checked += 1
    print(f"PASS criterion 7: fragment and retrieval counts match ceil formula "
          f"for {checked} lengths")


def test_criterion_08_dynamic_threshold():
    from fractions import Fraction
    for n in range(0, 101):
        got = dynamic_threshold(n)
        assert got == max(n * 0.4, 1.0)
        exact = max(Fraction(2, 5) * n, Fraction(1))
        assert abs(got - float(exact)) < 1e-9
    print("PASS criterion 8: tau* = max(0.4 N*, 1) exact for N* in [0, 100]")


def test_criterion_09_self_exclusion(tmp_path_factory, taxonomy5):
    root = tmp_path_factory.mktemp("selfexcl")
    paths = write_corpus(root, 200, 9, test_fraction=0.0)
    taxonomy = load_taxonomy(paths["taxonomy"])
    dataset = ingest(paths["train"], taxonomy)
    assert len(dataset) == 200
    index = build_bm25(dataset)
    store = build_store(dataset)
    params = SegmentationParams()
    for contract in dataset:
        rows, _ = bm25_retrieve(contract, index, k=200)
        assert all(index.ids[i] != contract.id for i in rows)
        dense_rows, _ = dense_retrieve(contract, store, params)
        assert all(store.parent_ids[i] != contract.id for i in dense_rows)
    print("PASS criterion 9: zero self-hits across 200 contracts in both pathways")


def test_criterion_10_meta_adaptation():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        size = int(rng.integers(1, 6))
        a = rng.normal(0, 2, size)
        w = rng.normal(0, 2, size)
        lam = float(rng.uniform(0, 10))

        def quadratic(v):
            diff = v - a
            return 0.5 * float(diff @ diff), diff

        got = adapt_to_task(w, quadratic, lam=lam)
        want = (a + lam * w) / (1.0 + lam)
        worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-6
    w = np.array([0.7, -1.1, 0.2])
    a = np.array([5.0, 5.0, 5.0])

    def quadratic(v):
        diff = v - a
        return 0.5 * float(diff @ diff), diff

    anchored = adapt_to_task(w, quadratic, lam=1e9)
    drift = float(np.linalg.norm(anchored - w))
    assert drift <= 1e-6
    print(f"PASS criterion 10: proximal solver matches closed form "
          f"(worst {worst:.1e}), lambda=1e9 drift {drift:.1e}")


def test_criterion_11_end_to_end_benchmark(e2e):
    summary = e2e["summary"]
    assert e2e["elapsed"] < 300.0
    per = {name: m.f1 for name, m in summary.per_detector.items()}
    assert set(per) == {"dense", "bm25", "slora"}
    best = max(per.values())
    assert summary.verified.f1 >= best, f"verified {summary.verified.f1} < best {best}"
    detail = " ".join(f"{name}={f1:.3f}" for name, f1 in sorted(per.items()))
    print(f"PASS criterion 11: verified micro-F1 {summary.verified.f1:.3f} >= "
          f"max({detail}) in {e2e['elapsed']:.0f}s")


def test_criterion_12_latency_ordering(e2e):
    timings = e2e["summary"].mean_seconds
    assert timings["bm25"] < timings["dense"]
    ratio = timings["dense"] / timings["bm25"]
    print(f"PASS criterion 12: mean per-query bm25 {timings['bm25']*1e3:.2f}ms < "
          f"dense {timings['dense']*1e3:.2f}ms (ratio {ratio:.1f}x)")


def test_criterion_13_report_contract(e2e):
    written = pipeline.stage_report(e2e["config"], e2e["workdir"])
    taxonomy = load_taxonomy(e2e["paths"]["taxonomy"])
    records = [json.loads(line) for line in
               (Path(e2e["workdir"]) / "results.jsonl").read_text().splitlines()]
    flagged = 0
    for rec in records:
        detected = [taxonomy[i] for i, bit in enumerate(rec["verified_labels"]) if bit]
        if not detected:
            continue
        flagged += 1
        text = (Path(e2e["workdir"]) / "reports" / f"{rec['id']}.md").read_text()
        for label in detected:
            positions = [text.find(f"### {label}: {header}") for header in SECTION_HEADERS]
            assert all(p >= 0 for p in positions), (rec["id"], label)
            assert positions == sorted(positions), (rec["id"], label)
    assert flagged > 0, "benchmark produced no flagged contracts to report on"
    assert len(written) == len(records)
    print(f"PASS criterion 13: all five section headers in order for "
          f"{flagged} flagged contracts")


def test_criterion_14_determinism(tmp_path_factory):
    runs = []
    for name in ("det-a", "det-b"):
        root = tmp_path_factory.mktemp(name)
        outcome = run_full_pipeline(root, seed=7)
        results = (Path(outcome["workdir"]) / "results.jsonl").read_bytes()
        summary = (Path(outcome["workdir"]) / "summary.json").read_bytes()
        runs.append((results, summary))
    assert runs[0][0] == runs[1][0], "detect outputs differ between runs"
    assert runs[0][1] == runs[1][1], "metric summaries differ between runs"
    print("PASS criterion 14: detect outputs and metric summary byte-identical "
          "across two runs")
