"""Hot paths against naive oracles written out in the tests.

Covers BM25 tokenization, postings construction and scoring, the signed
feature hash, hashed adapter features and fragment embeddings, adapter mask
selection and the masked sparse matmul. Each oracle is the slow, obvious
formulation of the same quantity.
"""

import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vulnfuse.bm25 import DEFAULT_KEYWORDS, Bm25Index, tokenize
from vulnfuse.corpus import signed_buckets, word_tokens
from vulnfuse.dense import HashingEmbedder
from vulnfuse.slora import HashedFeatureExtractor, sparse_forward, sparsify

PROPERTY = settings(max_examples=200, deadline=None, database=None)


def per_term_oracle(query, docs, k1, b):
    """BM25 scores accumulated term by term in first-occurrence order."""
    n = len(docs)
    avg = sum(len(d) for d in docs) / n
    tfs = [Counter(d) for d in docs]
    scores = [0.0] * n
    for term, mult in Counter(query).items():
        containing = sum(1 for tf in tfs if term in tf)
        weight = mult * math.log((n - containing + 0.5) / (containing + 0.5) + 1.0)
        for i, tf in enumerate(tfs):
            c = tf.get(term, 0)
            if c:
                norm = k1 * (1.0 - b + b * len(docs[i]) / avg)
                scores[i] += weight * (k1 + 1.0) * c / (norm + c)
    return scores


def oracle_tokenize(source, keywords):
    """Word tokens, then each keyword's bounded regex matches, then runs collapsed."""
    lower = source.lower()
    tokens = word_tokens(lower)
    for keyword in keywords:
        pattern = re.compile(r"(?<![a-z0-9])" + re.escape(keyword.lower()) + r"(?![a-z0-9])")
        tokens.extend([keyword.lower()] * len(pattern.findall(lower)))
    out = []
    for tok in tokens:
        if not out or out[-1] != tok:
            out.append(tok)
    return out


def oracle_signed_bucket(text, dim, key=b""):
    """Bucket and sign of one text from its own keyed blake2b digest."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8, key=key).digest()
    h = int.from_bytes(digest, "big")
    return h % dim, (1.0 if (h >> 63) & 1 == 0 else -1.0)


def oracle_extract(extractor, source):
    """Hashed features accumulated one token at a time."""
    vec = np.zeros(extractor.dim)
    for token in word_tokens(source):
        idx, sign = oracle_signed_bucket(token, extractor.dim, extractor._key)
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def oracle_embed(embedder, text):
    """Signed gram counts one gram at a time; unsigned counts if they cancel."""
    tokens = word_tokens(text)
    grams = [" ".join(tokens[i:i + 3]) for i in range(len(tokens) - 2)] or [" ".join(tokens)]
    vec = np.zeros(embedder.dim)
    for gram in grams:
        idx, sign = oracle_signed_bucket(gram, embedder.dim)
        vec[idx] += sign
    if np.linalg.norm(vec) == 0.0:
        for gram in grams:
            vec[oracle_signed_bucket(gram, embedder.dim)[0]] += 1.0
    return vec / np.linalg.norm(vec)


def oracle_postings(docs):
    """CSR postings built from one sorted Python list per term."""
    tfs = [Counter(d) for d in docs]
    vocab = {term: tid for tid, term in enumerate(sorted({t for d in docs for t in d}))}
    entries = [[] for _ in vocab]
    for doc_idx, tf in enumerate(tfs):
        for term, count in tf.items():
            entries[vocab[term]].append((doc_idx, count))
    post_docs, counts, indptr = [], [], [0]
    for per_term in entries:
        per_term.sort()
        post_docs.extend(d for d, _ in per_term)
        counts.extend(c for _, c in per_term)
        indptr.append(len(post_docs))
    return (vocab, np.array(post_docs, dtype=np.int64), np.array(counts, dtype=np.float64),
            np.array(indptr, dtype=np.int64))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stable_argsort_mask(s, k):
    """k largest |S| entries, ties by row-major position."""
    mask = np.zeros(s.size, dtype=np.uint8)
    mask[np.argsort(-np.abs(s).ravel(), kind="stable")[:k]] = 1
    return mask.reshape(s.shape)


def scatter_oracle(x, s, mask):
    """x*(S (.) M) by one scattered add per active entry."""
    rows, cols = np.nonzero(mask)
    out = np.zeros((x.shape[0], s.shape[1]))
    np.add.at(out, (slice(None), cols), x[:, rows] * s[rows, cols])
    return out


VOCAB = [f"t{i}" for i in range(12)]
# upper case, digits, dots and a dotted keyword's prefix on its own
SOURCE_TEXT = st.text(alphabet="aAcClLtTxXoOrRiIgGn019._( )\n\u0130", max_size=60)
KEYWORDS = st.lists(
    st.sampled_from(DEFAULT_KEYWORDS + ("CALL", "Call", "tx", "TX", "tx.origin",
                                        "Tx.Origin", "origin", "x", "0", "a.b", "")),
    max_size=8,
)
tied_values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
tied_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=tied_values))


class TestKernelEquivalence:
    @PROPERTY
    @given(
        docs=st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=15),
                      min_size=1, max_size=12),
        query=st.lists(st.sampled_from(VOCAB + ["unseen"]), max_size=20),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    def test_bm25_paths_agree(self, docs, query, k1, b):
        labels = [(0,)] * len(docs)
        index = Bm25Index(docs, [f"d{i}" for i in range(len(docs))], labels, k1=k1, b=b)
        assert index.score_all(query).tolist() == per_term_oracle(query, docs, k1, b)

    def test_sparse_paths_agree(self):
        rng = np.random.default_rng(1)
        for density in (0.0, 0.05, 0.3, 1.0):
            for d, n in ((12, 6), (5, 1), (33, 9)):
                s = rng.normal(0, 1, (d, d))
                mask = (rng.random((d, d)) < density).astype(np.uint8)
                x = rng.normal(0, 1, (n, d))
                got = sparse_forward(x, s, mask)
                assert np.abs(got - scatter_oracle(x, s, mask)).max() <= 1e-12

    def test_sparse_accumulates_repeated_columns(self):
        # two active entries feeding the same output column must both land
        s = np.zeros((3, 3))
        s[0, 2], s[1, 2] = 10.0, 100.0
        mask = (s != 0).astype(np.uint8)
        x = np.array([[1.0, 2.0, 0.0]])
        got = sparse_forward(x, s, mask)
        assert got[0, 2] == 1.0 * 10.0 + 2.0 * 100.0
        assert np.abs(got - scatter_oracle(x, s, mask)).max() <= 1e-12

    @PROPERTY
    @given(s=tied_matrices, alpha=st.floats(0.0, 1.0))
    @example(s=np.zeros((3, 3)), alpha=0.5)
    @example(s=np.ones((4, 4)), alpha=0.0)
    @example(s=np.ones((4, 4)), alpha=1.0)
    def test_sparsify_matches_stable_argsort(self, s, alpha):
        mask, k = sparsify(s, alpha)
        assert k == math.floor((1 - Fraction(alpha)) * s.size)
        assert mask.dtype == np.uint8
        assert np.array_equal(mask, stable_argsort_mask(s, k))


class TestRewrittenLoops:
    @PROPERTY
    @given(texts=st.lists(st.text(max_size=12), max_size=20),
           dim=st.one_of(st.sampled_from([1, 2, 3, 7, 64, 100, 256, 2**32 + 1, 2**63 - 1]),
                         st.integers(1, 2**63 - 1)),
           key=st.one_of(st.just(b""), st.binary(min_size=1, max_size=64)))
    @example(texts=["", "é", "日本語", "a b c", "\x00"], dim=1, key=b"")
    @example(texts=["tok"], dim=3, key=(7).to_bytes(8, "big"))
    def test_signed_buckets_match_scalar_hash(self, texts, dim, key):
        idx, signs = signed_buckets(texts, dim, key)
        assert idx.dtype == np.int64 and signs.dtype == np.float64
        want = [oracle_signed_bucket(t, dim, key) for t in texts]
        assert list(zip(idx.tolist(), signs.tolist())) == want

    @PROPERTY
    @given(text=SOURCE_TEXT.filter(lambda t: word_tokens(t)), dim=st.integers(1, 300))
    @example(text="one two three alpha", dim=2)   # the two grams cancel in bucket 1
    def test_embed_matches_per_gram_loop(self, text, dim):
        embedder = HashingEmbedder(dim)
        assert same_bits(embedder.embed(text), oracle_embed(embedder, text))

    def test_cancelling_grams_fall_back_to_unsigned_counts(self):
        embedder = HashingEmbedder(2)
        grams = embedder._grams("one two three alpha")
        assert [oracle_signed_bucket(g, 2) for g in grams] == [(1, 1.0), (1, -1.0)]
        assert embedder.embed("one two three alpha").tolist() == [0.0, 1.0]

    @PROPERTY
    @given(source=SOURCE_TEXT, keywords=KEYWORDS)
    @example(source="tx.origin tx TX.ORIGIN call Call delegatecall", keywords=["tx", "tx.origin"])
    @example(source="call call.call", keywords=["call", "CALL", "call"])
    def test_tokenize_matches_per_keyword_regex(self, source, keywords):
        assert tokenize(source, keywords) == oracle_tokenize(source, keywords)

    @PROPERTY
    @given(source=SOURCE_TEXT, dim=st.integers(1, 64), seed=st.integers(0, 2**64 - 1))
    @example(source="a a A b", dim=1, seed=0)
    def test_extract_matches_per_token_loop(self, source, dim, seed):
        extractor = HashedFeatureExtractor(dim=dim, seed=seed)
        assert same_bits(extractor.extract(source), oracle_extract(extractor, source))

    @PROPERTY
    @given(docs=st.lists(st.lists(st.sampled_from(VOCAB), max_size=15),
                         min_size=1, max_size=12).filter(any))
    def test_postings_match_per_term_lists(self, docs):
        labels = [(0,)] * len(docs)
        index = Bm25Index(docs, [f"d{i}" for i in range(len(docs))], labels)
        vocab, post_docs, counts, indptr = oracle_postings(docs)
        assert index.vocab == vocab
        assert same_bits(index._post_docs, post_docs)
        assert same_bits(index._post_counts, counts)
        assert same_bits(index._post_indptr, indptr)
