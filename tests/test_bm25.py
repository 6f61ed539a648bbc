import math
import random

import numpy as np
import pytest

from vulnfuse.bm25 import (
    Bm25Index,
    bm25_retrieve,
    bm25_vote,
    build_bm25,
    tokenize,
)
from vulnfuse.corpus import Contract, LabelVector
from vulnfuse.errors import EmptyCorpus, InvalidParameter

from conftest import make_dataset


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
        assert index.avg_len == float(index.doc_lengths.sum()) / index.N
        assert all(0 < n <= index.N for n in index.doc_freq.values())
        assert len(index.ids) == len(index.doc_tokens) == index.N


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
        hits = bm25_retrieve(query, index, k=3)
        assert hits[0].contract_id == "c002"

    def test_self_excluded(self, taxonomy5):
        ds, index = self._index(taxonomy5)
        hits = bm25_retrieve(ds.contracts[0], index, k=10)
        assert all(h.contract_id != "c000" for h in hits)
        assert len(hits) == 3

    def test_tie_broken_by_ascending_id(self, taxonomy5):
        ds = make_dataset([("alpha bravo", [0] * 5)] * 5, taxonomy5)
        index = build_bm25(ds)
        query = Contract(id="query", source="alpha bravo")
        hits = bm25_retrieve(query, index, k=5)
        assert [h.contract_id for h in hits] == sorted(h.contract_id for h in hits)

    def test_invalid_k(self, taxonomy5):
        _, index = self._index(taxonomy5)
        with pytest.raises(InvalidParameter):
            bm25_retrieve(Contract(id="q", source="alpha"), index, k=0)

    def test_at_most_k(self, taxonomy5):
        _, index = self._index(taxonomy5)
        hits = bm25_retrieve(Contract(id="q", source="alpha"), index, k=2)
        assert len(hits) == 2

    def test_scores_descending(self, taxonomy5):
        _, index = self._index(taxonomy5)
        hits = bm25_retrieve(Contract(id="q", source="alpha bravo delta"), index, k=4)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestVote:
    def _hits(self, label_sets):
        return [
            type("Hit", (), {"labels": LabelVector(bits=tuple(bits)), "contract_id": str(i),
                             "score": 1.0})()
            for i, bits in enumerate(label_sets)
        ]

    def test_threshold_met(self):
        hits = self._hits([[1, 0]] * 5 + [[0, 0]] * 2)
        assert bm25_vote(hits, threshold=4).bits == (1, 0)

    def test_threshold_not_met(self):
        hits = self._hits([[1, 0]] * 3 + [[0, 0]] * 4)
        assert bm25_vote(hits, threshold=4).bits == (0, 0)

    def test_empty_hits(self):
        assert bm25_vote([], threshold=4, num_labels=3).bits == (0, 0, 0)

    def test_order_invariant(self):
        label_sets = [[1, 0], [0, 1], [1, 1], [1, 0], [1, 1], [0, 0], [1, 0]]
        hits = self._hits(label_sets)
        rng = random.Random(2)
        baseline = bm25_vote(hits, threshold=3).bits
        for _ in range(5):
            shuffled = hits[:]
            rng.shuffle(shuffled)
            assert bm25_vote(shuffled, threshold=3).bits == baseline


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
        assert loaded.doc_tokens == index.doc_tokens
        assert loaded.avg_len == index.avg_len
        assert loaded.doc_freq == index.doc_freq
        query = tokenize(docs[3])
        assert np.array_equal(loaded.score_all(query), index.score_all(query))
