import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulnfuse.corpus import Contract, Dataset, decode_strings, encode_strings, signed_buckets
from vulnfuse.dense import (
    HashingEmbedder,
    SegmentationParams,
    VectorStore,
    build_store,
    dense_retrieve,
    dense_vote,
    dynamic_threshold,
    expected_fragment_count,
    segment,
)
from vulnfuse.errors import (
    EmptyFragment,
    EmptyStore,
    InvalidParameter,
    NoFragments,
)

from conftest import make_dataset
from test_bm25 import HIT_LABELS, oracle_threshold_vote
from test_kernels import same_bits


def text_of_length(n, seed=0):
    """ASCII filler with word structure so embedding has token n-grams."""
    rng = random.Random(seed)
    words = []
    total = 0
    while total <= n:  # the joined words are one separator shorter than `total`
        word = "w%d" % rng.randrange(1000)
        words.append(word)
        total += len(word) + 1
    return " ".join(words)[:n]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5000), seed=st.integers(0, 2**16))
@example(n=5, seed=0)  # words that fill exactly n characters with their separators
def test_text_of_length_is_exact(n, seed):
    assert len(text_of_length(n, seed)) == n


class TestSegmentationParams:
    def test_defaults(self):
        p = SegmentationParams()
        assert (p.window, p.overlap, p.min_len, p.chi) == (1500, 300, 100, 5)

    @pytest.mark.parametrize("kwargs", [
        {"overlap": 1500},
        {"overlap": -1},
        {"min_len": 0},
        {"chi": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameter):
            SegmentationParams(**kwargs)


class TestSegment:
    def test_three_fragments(self):
        frags = segment(text_of_length(3000), SegmentationParams())
        assert len(frags) == 3
        assert [f.start for f in frags] == [0, 1200, 2400]
        assert frags[0].end == 1500 and frags[2].end == 3000

    def test_exact_window_yields_one(self):
        frags = segment(text_of_length(1500), SegmentationParams())
        assert len(frags) == 1
        assert (frags[0].start, frags[0].end) == (0, 1500)

    def test_short_source_dropped(self):
        assert segment(text_of_length(50), SegmentationParams()) == []

    def test_short_source_kept_above_min(self):
        frags = segment(text_of_length(100), SegmentationParams())
        assert len(frags) == 1

    def test_contained_tail_dropped(self):
        # last window [2400, 2500) sits inside [1200, 2500)
        frags = segment(text_of_length(2500), SegmentationParams())
        assert len(frags) == 2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_count_matches_ceiling_formula(self, data):
        """Any source at least a window long, with min_len <= overlap + 1.

        A tail window that is not contained in the previous one is longer
        than the overlap, so under that bound min_len drops no counted window.
        """
        if data is None:  # the defaults over a sweep of lengths
            p = SegmentationParams()
            lengths = range(1500, 9000, 137)
        else:
            window = data.draw(st.integers(2, 2000), label="window")
            overlap = data.draw(st.integers(0, window - 1), label="overlap")
            min_len = data.draw(st.integers(1, min(window, overlap + 1)), label="min_len")
            p = SegmentationParams(window=window, overlap=overlap, min_len=min_len)
            lengths = [data.draw(st.integers(window, 6 * window), label="length")]
        for length in lengths:
            frags = segment(text_of_length(length), p)
            assert len(frags) == expected_fragment_count(length, p), f"L={length}"

    def test_min_length_invariant(self):
        p = SegmentationParams()
        for length in (100, 500, 1499, 1500, 2750, 4100):
            for frag in segment(text_of_length(length), p):
                assert frag.end - frag.start >= p.min_len

    def test_fragments_distinct(self):
        frags = segment(text_of_length(6000), SegmentationParams())
        assert len({(f.start, f.end) for f in frags}) == len(frags)
        assert [f.frag_index for f in frags] == list(range(len(frags)))

    def test_byte_offsets(self):
        src = text_of_length(3000)
        for frag in segment(src, SegmentationParams()):
            assert frag.text == src.encode()[frag.start:frag.end].decode()


class TestEmbed:
    def test_deterministic(self):
        e = HashingEmbedder()
        text = "function transfer amount balance"
        assert np.array_equal(e.embed(text), e.embed(text))

    def test_unit_norm(self):
        e = HashingEmbedder()
        for seed in range(5):
            vec = e.embed(text_of_length(400, seed))
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    def test_empty_raises(self):
        with pytest.raises(EmptyFragment):
            HashingEmbedder().embed("")

    def test_no_tokens_raises(self):
        with pytest.raises(EmptyFragment):
            HashingEmbedder().embed("!!! ???")

    def test_disjoint_grams_give_zero_cosine(self):
        e = HashingEmbedder()
        text_a = "alpha bravo charlie delta"
        text_b = "echo foxtrot golf hotel"
        buckets_a = set(signed_buckets(e._grams(text_a), e.dim)[0].tolist())
        buckets_b = set(signed_buckets(e._grams(text_b), e.dim)[0].tolist())
        assert not buckets_a & buckets_b, "constructed inputs collide; pick new tokens"
        # both embeddings are unit vectors, so the dot product is the cosine
        assert np.dot(e.embed(text_a), e.embed(text_b)) == 0.0

    def test_short_text_embeddable(self):
        vec = HashingEmbedder().embed("one two")
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def store_dataset(taxonomy, n_contracts=4, length=3000):
    rows = []
    for i in range(n_contracts):
        bits = [0] * 5
        bits[i % 5] = 1
        rows.append((text_of_length(length, seed=100 + i), bits))
    return make_dataset(rows, taxonomy)


class TestStore:
    def test_fragment_count(self, taxonomy5):
        ds = make_dataset([(text_of_length(3000, 1), [1, 0, 0, 0, 0])], taxonomy5)
        store = build_store(ds)
        assert len(store) == 3

    def test_metadata_aligned(self, taxonomy5):
        ds = store_dataset(taxonomy5)
        store = build_store(ds)
        assert len(store.parent_ids) == len(store.frag_index) == len(store.labels) \
            == store.vectors.shape[0]
        # 3 fragments of each 3,000-byte contract, each row carrying its contract's labels
        assert store.parent_ids == [c.id for c in ds for _ in range(3)]
        assert store.frag_index.tolist() == [0, 1, 2] * len(ds)
        assert same_bits(store.labels, np.repeat(np.array([c.labels for c in ds]), 3, axis=0))

    def test_rebuild_identical(self, taxonomy5):
        ds = store_dataset(taxonomy5)
        a, b = build_store(ds), build_store(ds)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.parent_ids == b.parent_ids
        assert same_bits(a.frag_index, b.frag_index) and same_bits(a.labels, b.labels)

    def test_unit_vectors(self, taxonomy5):
        store = build_store(store_dataset(taxonomy5))
        norms = np.linalg.norm(store.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_empty_store(self, taxonomy5):
        ds = make_dataset([("tiny;", [0] * 5)], taxonomy5)
        with pytest.raises(EmptyStore):
            build_store(ds)

    def test_save_load_bit_exact(self, tmp_path, taxonomy5):
        store = build_store(store_dataset(taxonomy5))
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = VectorStore.load(path)
        assert np.array_equal(loaded.vectors, store.vectors)
        assert loaded.parent_ids == store.parent_ids
        assert same_bits(loaded.frag_index, store.frag_index)
        assert same_bits(loaded.labels, store.labels)
        assert loaded.dim == store.dim
        assert loaded.segmentation == store.segmentation == (1500, 300, 100)

    def test_embeds_at_the_configured_dimension(self, taxonomy5):
        store = build_store(store_dataset(taxonomy5), SegmentationParams(embed_dim=16))
        assert store.dim == 16 and store.vectors.shape == (12, 16)

    def test_id_with_trailing_nul_survives_save_load(self, tmp_path, taxonomy5):
        # a NumPy string array would read "a\x00" back as "a" and "\x00" as ""
        ids = ("a\x00", "a", "\x00")
        ds = store_dataset(taxonomy5, n_contracts=3)
        ds = Dataset(contracts=tuple(replace(c, id=cid) for c, cid in zip(ds, ids)),
                     taxonomy=ds.taxonomy)
        path = tmp_path / "store.npz"
        build_store(ds).save(path)
        loaded = VectorStore.load(path)
        assert loaded.parent_ids == [cid for cid in ids for _ in range(3)]
        for contract in ds:
            rows, _ = dense_retrieve(contract, loaded)
            assert all(loaded.parent_ids[i] != contract.id for i in rows)

    @pytest.mark.parametrize("field,damage,message", [
        ("vectors", lambda a: a[:-1], "vectors but"),
        # the ids are one UTF-8 JSON array; drop its last id
        ("parent_ids", lambda a: encode_strings(decode_strings(a)[:-1]), "vectors but"),
        ("frag_index", lambda a: a[:-1], "vectors but"),
        ("labels", lambda a: a[:-1], "ids but"),
        ("labels", lambda a: np.where(a == 1, 2, a), "integers 0 or 1"),
        ("labels", lambda a: a.astype(bool), "integers 0 or 1"),
        ("labels", lambda a: a.astype(np.float64), "integers 0 or 1"),
        ("labels", lambda a: a[:, 0], "integers 0 or 1"),
    ])
    def test_load_rejects_inconsistent_rows(self, tmp_path, taxonomy5, field, damage, message):
        path = tmp_path / "store.npz"
        build_store(store_dataset(taxonomy5)).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        np.savez(path, **{**arrays, field: damage(arrays[field])})
        with pytest.raises(ValueError, match=message):
            VectorStore.load(path)

    def test_pairwise_cosine_bounded(self, taxonomy5):
        store = build_store(store_dataset(taxonomy5, n_contracts=6))
        gram = store.vectors @ store.vectors.T
        assert gram.max() <= 1.0 + 1e-9
        assert gram.min() >= -1.0 - 1e-9


class TestRetrieve:
    def test_hit_count_chi_times_fragments(self, taxonomy5):
        store = build_store(store_dataset(taxonomy5, n_contracts=6))
        query = Contract(id="query", source=text_of_length(3000, seed=999))
        rows, scores = dense_retrieve(query, store)  # 3 fragments x chi=5
        assert len(rows) == len(scores) == 15

    def test_self_exclusion(self, taxonomy5):
        ds = store_dataset(taxonomy5, n_contracts=4)
        store = build_store(ds)
        for contract in ds:
            rows, _ = dense_retrieve(contract, store)
            assert all(store.parent_ids[i] != contract.id for i in rows)

    def test_fewer_available_than_chi(self, taxonomy5):
        ds = make_dataset([
            (text_of_length(1000, 5), [1, 0, 0, 0, 0]),   # one foreign fragment
        ], taxonomy5)
        store = build_store(ds)
        query = Contract(id="query", source=text_of_length(3000, seed=42))
        rows, _ = dense_retrieve(query, store)
        assert rows.tolist() == [0, 0, 0]  # 1 per query fragment

    def test_no_fragments(self, taxonomy5):
        store = build_store(store_dataset(taxonomy5))
        with pytest.raises(NoFragments):
            dense_retrieve(Contract(id="q", source="short;"), store)

    def test_matches_full_scan_oracle(self, taxonomy5):
        ds = store_dataset(taxonomy5, n_contracts=8, length=2600)
        store = build_store(ds)
        params = SegmentationParams()
        embedder = HashingEmbedder(store.dim)
        query = Contract(id="query", source=text_of_length(2000, seed=77))
        rows, _ = dense_retrieve(query, store, params, embedder)
        frags = segment(query.source, params)
        offset = 0
        for frag in frags:
            q = embedder.embed(frag.text)
            ranked = sorted(
                range(len(store)),
                key=lambda i: (
                    -float(np.dot(store.vectors[i], q)),
                    store.parent_ids[i],
                    store.frag_index[i],
                ),
            )
            want = [store.parent_ids[i] for i in ranked[:params.chi]]
            got = [store.parent_ids[i] for i in rows[offset:offset + params.chi]]
            assert got == want
            offset += params.chi


def oracle_dense_retrieve(query, store, params, embedder):
    """(id, score) per query fragment of every foreign row sorted by (-score, parent,
    fragment)."""
    hits = []
    ids, frag_index = store.parent_ids, store.frag_index.tolist()
    for frag in segment(query.source, params):
        scores = store.vectors @ embedder.embed(frag.text)
        ranked = sorted((i for i in range(len(store)) if ids[i] != query.id),
                        key=lambda i: (-scores[i], ids[i], frag_index[i]))
        hits += [(ids[i], float(scores[i])) for i in ranked[:params.chi]]
    return hits


# sources of 1 to 4 fragments at window 120; the second shares a prefix with the first
SOURCE_POOL = (
    text_of_length(300, 1),
    text_of_length(300, 1)[:150] + " " + text_of_length(200, 2),
    text_of_length(120, 3),
    text_of_length(400, 4),
)


class TestRetrieveProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        picks=st.lists(st.integers(0, len(SOURCE_POOL) - 1), min_size=1, max_size=8),
        ids=st.lists(st.text("pq9", min_size=1, max_size=3), min_size=8, max_size=8,
                     unique=True),
        query_pick=st.integers(0, len(SOURCE_POOL) - 1),
        own=st.integers(0, 8),
        chi=st.integers(1, 8),
    )
    @example(picks=[0, 0, 0, 0], ids=["q", "p", "pp", "9", "q9", "p9", "9q", "qq"],
             query_pick=0, own=4, chi=2)
    def test_matches_brute_force_sort(self, picks, ids, query_pick, own, chi):
        # one source under several ids gives rows that tie exactly, also at chi
        contracts = tuple(
            Contract(id=ids[j], source=SOURCE_POOL[pick],
                     labels=tuple(int(b == j % 3) for b in range(3)))
            for j, pick in enumerate(picks))
        params = SegmentationParams(window=120, overlap=30, min_len=40, chi=chi)
        store = build_store(Dataset(contracts, ("a", "b", "c")), params)
        embedder = HashingEmbedder(store.dim)
        own %= len(picks) + 1
        query = Contract(id=ids[own] if own < len(picks) else "query",
                         source=SOURCE_POOL[query_pick])
        rows, scores = dense_retrieve(query, store, params, embedder)
        assert list(zip([store.parent_ids[i] for i in rows], scores.tolist())) \
            == oracle_dense_retrieve(query, store, params, embedder)


class TestThresholdAndVote:
    @pytest.mark.parametrize("n,expected", [(10, 4.0), (1, 1.0), (0, 1.0), (25, 10.0)])
    def test_dynamic_threshold(self, n, expected):
        assert dynamic_threshold(n) == expected

    def _hits(self, label_sets):
        return np.array(label_sets, dtype=np.int64)

    def test_vote_meets_threshold(self):
        hits = self._hits([[1, 0]] * 4 + [[0, 0]] * 6)  # tau* = 4.0
        assert dense_vote(hits).tolist() == [1, 0]

    def test_vote_below_threshold(self):
        hits = self._hits([[1, 0]] * 3 + [[0, 0]] * 7)
        assert dense_vote(hits).tolist() == [0, 0]

    def test_vote_empty(self):
        assert dense_vote(np.zeros((0, 4), dtype=np.int64)).tolist() == [0, 0, 0, 0]

    def test_single_hit_passes_floor(self):
        assert dense_vote(self._hits([[0, 1]])).tolist() == [0, 1]

    def test_order_invariant(self):
        label_sets = [[1, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1], [0, 1], [1, 0]]
        hits = self._hits(label_sets)
        baseline = dense_vote(hits).tolist()
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert dense_vote(rng.permutation(hits)).tolist() == baseline

    @settings(max_examples=300, deadline=None, database=None)
    @given(hit_labels=HIT_LABELS)
    def test_matches_per_hit_loop(self, hit_labels):
        threshold = max(0.4 * len(hit_labels), 1.0)
        assert dense_vote(hit_labels).tolist() == oracle_threshold_vote(
            hit_labels.tolist(), threshold, hit_labels.shape[1])
