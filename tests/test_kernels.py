"""Hot numeric paths against naive oracles written out in the tests.

Covers BM25 postings scoring, adapter mask selection and the masked sparse
matmul. Each oracle is the slow, obvious formulation of the same quantity.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vulnfuse.bm25 import Bm25Index
from vulnfuse.corpus import LabelVector
from vulnfuse.slora import sparse_forward, sparsify

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
        labels = [LabelVector(bits=(0,))] * len(docs)
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
