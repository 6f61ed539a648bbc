import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulnfuse.bm25 import (
    Bm25Index,
    bm25_retrieve,
    bm25_vote,
    build_bm25,
    threshold_vote,
    tokenize,
)
from vulnfuse.corpus import Contract
from vulnfuse.errors import EmptyCorpus, InvalidParameter

from conftest import make_dataset
from test_kernels import same_bits

TERMS = st.text("ab.çé", min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# independent brute-force reference, kept deliberately naive
# ---------------------------------------------------------------------------

def oracle_idf(term, token_docs):
    n_docs = len(token_docs)
    containing = sum(1 for doc in token_docs if term in doc)
    return math.log((n_docs - containing + 0.5) / (containing + 0.5) + 1.0)

def oracle_score(query_tokens, doc_tokens, token_docs, k1, b, idf=None):
    """Brute-force BM25; `idf` maps terms to precomputed `oracle_idf` values."""
    avg = sum(len(d) for d in token_docs) / len(token_docs)
    total = 0.0
    for term in query_tokens:
        freq = doc_tokens.count(term)
        if freq == 0:
            continue
        norm = k1 * (1.0 - b + b * len(doc_tokens) / avg)
        term_idf = idf[term] if idf is not None else oracle_idf(term, token_docs)
        total += term_idf * (k1 + 1.0) * freq / (norm + freq)
    return total


def random_corpus(rng, n_docs, vocab_size=40, min_len=3, max_len=60):
    vocab = [f"tok{i}" for i in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        length = rng.randint(min_len, max_len)
        docs.append(" ".join(rng.choice(vocab) for _ in range(length)))
    return docs


class TestTokenize:
    def test_splits_and_lowercases(self):
        assert tokenize("function Withdraw()") == ["function", "withdraw"]

    def test_empty(self):
        assert tokenize("") == []

    def test_consecutive_duplicates_collapse(self):
        assert tokenize("call call call") == ["call"]

    def test_dotted_keyword_appended(self):
        tokens = tokenize("require(tx.origin == owner);")
        assert "tx.origin" in tokens
        assert tokens[:4] == ["require", "tx", "origin", "owner"]

    def test_keyword_boundary_not_substring(self):
        # "delegatecall" must not also count as a "call" match
        tokens = tokenize("delegatecall(x)", keywords=("call",))
        assert "call" not in tokens

    def test_no_keywords(self):
        assert tokenize("send transfer", keywords=()) == ["send", "transfer"]

    def test_deterministic(self):
        src = "function f() { a.call(); b.send(1); tx.origin; }"
        assert tokenize(src) == tokenize(src)


class TestBuild:
    def test_single_doc_stats(self, taxonomy5):
        source = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
        ds = make_dataset([(source, [0] * 5)], taxonomy5)
        index = build_bm25(ds)
        assert index.N == 1
        assert index.avg_len == 10.0

    def test_mean_length(self, taxonomy5):
        ds = make_dataset([
            ("alpha bravo charlie delta", [0] * 5),
            ("echo foxtrot golf hotel india juliet", [0] * 5),
        ], taxonomy5)
        index = build_bm25(ds)
        assert index.avg_len == 5.0

    def test_doc_freq_counts_documents(self, taxonomy5):
        ds = make_dataset([
            ("alpha bravo", [0] * 5),
            ("alpha charlie", [0] * 5),
        ], taxonomy5)
        index = build_bm25(ds)
        assert index.doc_freq["alpha"] == 2
        assert index.doc_freq["bravo"] == 1

    def test_empty_dataset(self, taxonomy5):
        with pytest.raises(EmptyCorpus):
            build_bm25(make_dataset([], taxonomy5))

    def test_invariants(self, taxonomy5):
        rng = random.Random(11)
        docs = random_corpus(rng, 30)
        ds = make_dataset([(d, [0] * 5) for d in docs], taxonomy5)
        index = build_bm25(ds)
        assert index.avg_len == sum(len(tokenize(d)) for d in docs) / index.N
        assert all(0 < n <= index.N for n in index.doc_freq.values())
        assert len(index.ids) == len(index.labels) == index.N
        assert same_bits(index.labels, np.zeros((index.N, 5), dtype=np.int64))


class TestIdf:
    @pytest.mark.parametrize("n_docs,containing,expected", [
        (1, 1, math.log(0.5 / 1.5 + 1.0)),      # ~0.28768
        (1000, 0, math.log(1000.5 / 0.5 + 1.0)),  # ~7.6019
        (2, 1, math.log(2.0)),                   # ~0.69315
    ])
    def test_formula(self, taxonomy5, n_docs, containing, expected):
        sources = []
        for i in range(n_docs):
            sources.append(("special xyz" if i < containing else f"filler{i} xyz", [0] * 5))
        index = build_bm25(make_dataset(sources, taxonomy5))
        assert index.idf("special") == pytest.approx(expected, abs=1e-12)

    def test_values(self):
        assert math.log(0.5 / 1.5 + 1.0) == pytest.approx(0.28768, abs=1e-5)
        assert math.log(1000.5 / 0.5 + 1.0) == pytest.approx(7.6019, abs=1e-4)


class TestScore:
    def test_absent_term_contributes_zero(self, taxonomy5):
        ds = make_dataset([("alpha bravo", [0] * 5)], taxonomy5)
        index = build_bm25(ds)
        assert index.score_all(["missing"])[0] == 0.0

    def test_repeated_term_contribution(self, taxonomy5):
        # single doc, so l_D = l_avg and the normalizer reduces to k1
        ds = make_dataset([("alpha beta alpha gamma", [0] * 5)], taxonomy5)
        index = build_bm25(ds)
        expected = index.idf("alpha") * (index.k1 + 1.0) * 2.0 / (index.k1 + 2.0)
        assert index.score_all(["alpha"])[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(index.idf("alpha") * 10.0 / 7.0, abs=1e-12)

    def test_matches_oracle_on_random_corpus(self, taxonomy5):
        rng = random.Random(5)
        docs = random_corpus(rng, 60)
        ds = make_dataset([(d, [0] * 5) for d in docs], taxonomy5)
        index = build_bm25(ds, keywords=())
        token_docs = [tokenize(d, keywords=()) for d in docs]
        for qi in range(0, 60, 7):
            query = token_docs[qi]
            scores = index.score_all(query)
            for di in range(60):
                want = oracle_score(query, token_docs[di], token_docs, index.k1, index.b)
                assert scores[di] == pytest.approx(want, abs=1e-9)

    def test_monotone_in_term_frequency(self):
        # contribution (k1+1)f/(norm+f) is nondecreasing in f for fixed norm
        k1 = 1.5
        norm = k1 * (1.0 - 0.9 + 0.9 * 1.2)
        contributions = [(k1 + 1.0) * f / (norm + f) for f in range(0, 20)]
        assert all(b >= a for a, b in zip(contributions, contributions[1:]))


class TestRetrieve:
    def _index(self, taxonomy5):
        ds = make_dataset([
            ("alpha bravo charlie unique0", [1, 0, 0, 0, 0]),
            ("alpha bravo charlie unique1", [1, 0, 0, 0, 0]),
            ("delta echo foxtrot unique2", [0, 1, 0, 0, 0]),
            ("golf hotel india unique3", [0, 0, 1, 0, 0]),
        ], taxonomy5)
        return ds, build_bm25(ds)

    def test_identical_doc_ranks_first(self, taxonomy5):
        ds, index = self._index(taxonomy5)
        query = Contract(id="query", source="delta echo foxtrot unique2")
        rows, _ = bm25_retrieve(query, index, k=3)
        assert index.ids[rows[0]] == "c002"
        assert index.labels[rows[0]].tolist() == [0, 1, 0, 0, 0]

    def test_self_excluded(self, taxonomy5):
        ds, index = self._index(taxonomy5)
        rows, scores = bm25_retrieve(ds.contracts[0], index, k=10)
        assert all(index.ids[i] != "c000" for i in rows)
        assert len(rows) == len(scores) == 3

    def test_tie_broken_by_ascending_id(self, taxonomy5):
        ds = make_dataset([("alpha bravo", [0] * 5)] * 5, taxonomy5)
        index = build_bm25(ds)
        query = Contract(id="query", source="alpha bravo")
        rows, _ = bm25_retrieve(query, index, k=5)
        ids = [index.ids[i] for i in rows]
        assert ids == sorted(ids)

    def test_invalid_k(self, taxonomy5):
        _, index = self._index(taxonomy5)
        with pytest.raises(InvalidParameter):
            bm25_retrieve(Contract(id="q", source="alpha"), index, k=0)

    def test_at_most_k(self, taxonomy5):
        _, index = self._index(taxonomy5)
        rows, scores = bm25_retrieve(Contract(id="q", source="alpha"), index, k=2)
        assert len(rows) == len(scores) == 2

    def test_scores_descending(self, taxonomy5):
        _, index = self._index(taxonomy5)
        _, scores = bm25_retrieve(Contract(id="q", source="alpha bravo delta"), index, k=4)
        assert scores.tolist() == sorted(scores.tolist(), reverse=True)


def oracle_threshold_vote(hit_labels, threshold, num_labels):
    """The per-hit, per-label counting loop that voting replaced, kept as a reference."""
    counts = [0] * num_labels
    for labels in hit_labels:
        for j, bit in enumerate(labels):
            counts[j] += bit
    return [1 if c >= threshold else 0 for c in counts]


# (hits, L) 0/1 label rows, zero hits included
HIT_LABELS = st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 1), min_size=width, max_size=width), max_size=12).map(
    lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width)))


class TestVote:
    def _hits(self, label_sets):
        return np.array(label_sets, dtype=np.int64)

    def test_threshold_met(self):
        hits = self._hits([[1, 0]] * 5 + [[0, 0]] * 2)
        assert bm25_vote(hits, threshold=4).tolist() == [1, 0]

    def test_threshold_not_met(self):
        hits = self._hits([[1, 0]] * 3 + [[0, 0]] * 4)
        assert bm25_vote(hits, threshold=4).tolist() == [0, 0]

    def test_empty_hits(self):
        assert bm25_vote(np.zeros((0, 3), dtype=np.int64), threshold=4).tolist() == [0, 0, 0]

    def test_order_invariant(self):
        label_sets = [[1, 0], [0, 1], [1, 1], [1, 0], [1, 1], [0, 0], [1, 0]]
        hits = self._hits(label_sets)
        rng = np.random.default_rng(2)
        baseline = bm25_vote(hits, threshold=3).tolist()
        for _ in range(5):
            assert bm25_vote(rng.permutation(hits), threshold=3).tolist() == baseline

    @settings(max_examples=300, deadline=None, database=None)
    @given(hit_labels=HIT_LABELS, threshold=st.integers(-2, 14))
    def test_matches_per_hit_loop(self, hit_labels, threshold):
        got = threshold_vote(hit_labels, threshold)
        assert got.dtype == np.int64
        assert got.tolist() == oracle_threshold_vote(hit_labels.tolist(), threshold,
                                                     hit_labels.shape[1])


class TestPersistence:
    def test_save_load_bit_exact(self, tmp_path, taxonomy5):
        rng = random.Random(9)
        docs = random_corpus(rng, 20)
        ds = make_dataset([(d, [i % 2, 0, 1, 0, 0]) for i, d in enumerate(docs)], taxonomy5)
        index = build_bm25(ds)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = Bm25Index.load(path)
        assert loaded.ids == index.ids
        assert loaded.avg_len == index.avg_len
        assert loaded.doc_freq == index.doc_freq
        query = tokenize(docs[3])
        assert np.array_equal(loaded.score_all(query), index.score_all(query))

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        docs=st.lists(st.lists(TERMS, max_size=8), min_size=1, max_size=8).filter(any),
        labels=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=8,
                        max_size=8),
        query=st.lists(TERMS | st.just("unseen"), max_size=8),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
        keywords=st.lists(TERMS, max_size=3),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, docs, labels, query, k1, b,
                                     keywords):
        ids = [f"d{i}" for i in range(len(docs))]
        index = Bm25Index(docs, ids, labels[:len(docs)], k1=k1, b=b, keywords=keywords)
        path = tmp_path_factory.mktemp("bm25") / "index.json"
        index.save(path)
        loaded = Bm25Index.load(path)
        for name in ("_post_indptr", "_post_docs", "_post_counts", "_idf", "_norms", "labels"):
            assert same_bits(getattr(loaded, name), getattr(index, name)), name
        assert same_bits(loaded.score_all(query), index.score_all(query))
        assert loaded.vocab == index.vocab and loaded.doc_freq == index.doc_freq
        assert loaded.ids == index.ids
        assert index.labels.tolist() == [list(bits) for bits in labels[:len(docs)]]
        assert (loaded.k1, loaded.b, loaded.keywords, loaded.avg_len) \
            == (index.k1, index.b, index.keywords, index.avg_len)

    @pytest.mark.parametrize("field,value,message", [
        ("indptr", [1, 3, 4], "start at 0"),
        ("indptr", [0, 3, 2], "not decrease"),
        ("indptr", [0, 3], "one step per term"),
        ("indptr", [0, 3, 5], "end at the postings count"),
        ("counts", [1, 1, 1], "one count per posting"),
        ("docs", [0, 2, 1, 0], r"outside \[0, 2\)"),
        ("docs", [0, -1, 1, 0], r"outside \[0, 2\)"),
        ("terms", ["b", "a"], "sorted"),
        ("terms", ["a", "a"], "unique"),
        ("labels", [[0]], "2 ids but 1 label vectors"),
        ("labels", [[0], [2]], "integers 0 or 1"),
        ("labels", [[0], [-1]], "integers 0 or 1"),
        ("labels", [[0], [0.5]], "integers 0 or 1"),
        ("labels", [[False], [True]], "integers 0 or 1"),
        ("labels", [0, 1], "integers 0 or 1"),
    ])
    def test_load_rejects_inconsistent_postings(self, tmp_path, field, value, message):
        index = Bm25Index([["a", "b", "a"], ["a", "b"]], ["x", "y"], [(0,)] * 2)
        path = tmp_path / "index.json"
        index.save(path)
        payload = json.loads(path.read_text())
        assert (payload["terms"], payload["indptr"]) == (["a", "b"], [0, 2, 4])
        path.write_text(json.dumps({**payload, field: value}))
        with pytest.raises(ValueError, match=message):
            Bm25Index.load(path)


def oracle_retrieve(query, index, k):
    """(id, score) of every other document sorted by (-score, id), cut to k."""
    scores = index.score_all(tokenize(query.source, index.keywords))
    ranked = sorted((i for i in range(index.N) if index.ids[i] != query.id),
                    key=lambda i: (-scores[i], index.ids[i]))
    return [(index.ids[i], float(scores[i])) for i in ranked[:k]]


class TestRetrieveProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        distinct=st.lists(st.lists(st.sampled_from(["a", "b", "c", "call"]), max_size=6),
                          min_size=1, max_size=6).filter(any),
        copies=st.lists(st.integers(1, 3), min_size=6, max_size=6),
        ids=st.lists(st.text("xyz01", min_size=1, max_size=3), min_size=18, max_size=18,
                     unique=True),
        query=st.lists(st.sampled_from(["a", "b", "c", "call", "unseen"]), max_size=6),
        own=st.integers(0, 18),
        k=st.integers(0, 19),
    )
    @example(distinct=[["a"]], copies=[3] * 6, ids=[f"i{j:02d}" for j in range(18)],
             query=["a"], own=1, k=1)
    def test_matches_brute_force_sort(self, distinct, copies, ids, query, own, k):
        # repeated documents tie exactly, also at the k-th place
        docs = [doc for doc, n in zip(distinct, copies) for _ in range(n)]
        ids = ids[:len(docs)]
        labels = [(i % 2,) for i in range(len(docs))]
        index = Bm25Index(docs, ids, labels)
        # the query is one of the indexed documents, or a new id
        own %= len(docs) + 1
        contract = Contract(id=ids[own] if own < len(docs) else "query", source=" ".join(query))
        k = 1 + k % (len(docs) + 2)
        rows, scores = bm25_retrieve(contract, index, k)
        assert list(zip([index.ids[i] for i in rows], scores.tolist())) \
            == oracle_retrieve(contract, index, k)
