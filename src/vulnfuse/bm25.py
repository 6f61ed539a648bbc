"""Lexical retrieval: security-aware tokenization, BM25 scoring, top-K voting.

Scores follow the classic Okapi form with idf = ln((N - n + 0.5)/(n + 0.5) + 1).
The index is immutable once built and safe to query concurrently.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TOKEN_RE, Contract, Dataset, check_label_rows, label_matrix, word_tokens
from .errors import EmptyCorpus, InvalidParameter

DEFAULT_K1 = 1.5
DEFAULT_B = 0.9
DEFAULT_TOP_K = 7
DEFAULT_VOTE_THRESHOLD = 4

# appended as extra tokens wherever they match, so rare security-relevant
# constructs survive even when identifier noise dominates
DEFAULT_KEYWORDS = (
    "call",
    "delegatecall",
    "send",
    "transfer",
    "selfdestruct",
    "tx.origin",
    "block.timestamp",
    "require",
    "assert",
)


def tokenize(source: str, keywords: Sequence[str] = DEFAULT_KEYWORDS) -> list[str]:
    """Lowercase, split on non-alphanumerics, append keyword matches, collapse runs."""
    lower = source.lower()
    tokens = word_tokens(lower)
    words = Counter(tokens)
    for keyword in keywords:
        keyword = keyword.lower()
        if TOKEN_RE.fullmatch(keyword):
            # a bounded match of an alphanumeric keyword is exactly a word
            # token equal to it
            count = words[keyword]
        elif keyword in lower:
            bounded = r"(?<![a-z0-9])" + re.escape(keyword) + r"(?![a-z0-9])"
            count = len(re.findall(bounded, lower))
        else:
            count = 0
        tokens.extend([keyword] * count)
    return [tok for tok, _ in groupby(tokens)]


class RowOrder:
    """Rows in ascending key order, equal keys by row; one group's rows are a run.

    Retrieval breaks score ties by this order and skips the query's own rows.
    `group(key)` must sort like the key, as a prefix of it does.
    """

    def __init__(self, keys: Sequence, group=lambda key: key):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._order = np.array(order, dtype=np.int64)
        self._rank = np.empty_like(self._order)
        self._rank[self._order] = np.arange(len(order))
        self._groups = [group(keys[i]) for i in order]

    def top(self, scores: np.ndarray, k: int, exclude) -> np.ndarray:
        """Rows of the k best scores outside group `exclude`, by descending score
        and then this order. Overwrites the excluded rows of `scores`."""
        own = self._order[bisect_left(self._groups, exclude):
                          bisect_right(self._groups, exclude)]
        scores[own] = -np.inf  # sorts last, and the cut to k drops it
        k = min(k, len(scores) - len(own))
        pick = np.arange(len(scores))
        if 0 < k < len(scores):
            # every row tied with the k-th best score stays in for the tie-break
            kth = np.partition(scores, len(scores) - k)[len(scores) - k]
            pick = np.flatnonzero(scores >= kth)
        return pick[np.lexsort((self._rank[pick], -scores[pick]))[:k]]


def check_params(k1: float, b: float, top_k: int = DEFAULT_TOP_K) -> None:
    """BM25 needs k1 >= 0, 0 <= b <= 1 and a positive top-k."""
    if not k1 >= 0.0:
        raise InvalidParameter(f"k1 must be non-negative, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise InvalidParameter(f"b must be in [0, 1], got {b}")
    if top_k <= 0:
        raise InvalidParameter(f"top-k must be positive, got {top_k}")


@dataclass(frozen=True)
class Bm25Params:
    """The `bm25` config section: build-time k1, b and keywords; query-time top-K and vote."""
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    top_k: int = DEFAULT_TOP_K
    vote_threshold: int = DEFAULT_VOTE_THRESHOLD
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS

    def __post_init__(self):
        check_params(self.k1, self.b, self.top_k)
        if self.vote_threshold < 1:
            raise InvalidParameter(f"vote threshold must be at least 1, got {self.vote_threshold}")


class Bm25Index:
    """BM25 over CSR postings by term, the one form the index takes.

    `vocab` maps each term to its id in sorted term order. Term t's postings
    are `_post_docs[_post_indptr[t]:_post_indptr[t + 1]]`, documents ascending,
    with their term counts in `_post_counts`. Every other statistic is derived
    from these arrays, and `save` stores them as they are. `labels` holds one
    0/1 row per document.
    """

    def __init__(self, doc_tokens, ids, labels, k1=DEFAULT_K1, b=DEFAULT_B,
                 keywords=DEFAULT_KEYWORDS):
        if not (len(doc_tokens) == len(ids) == len(labels)):
            raise ValueError("documents, ids and labels must align")
        n = len(doc_tokens)
        terms = sorted({term for tokens in doc_tokens for term in tokens})
        vocab = {term: tid for tid, term in enumerate(terms)}
        lengths = [len(tokens) for tokens in doc_tokens]
        tids = np.fromiter((vocab[term] for tokens in doc_tokens for term in tokens),
                           dtype=np.int64, count=sum(lengths))
        # one key per (term, document) pair; ascending keys are the CSR order
        keys, counts = np.unique(tids * n + np.repeat(np.arange(n), lengths),
                                 return_counts=True)
        post_terms, docs = np.divmod(keys, n)
        indptr = np.searchsorted(post_terms, np.arange(len(terms) + 1))
        self._set(terms, indptr, docs, counts.astype(np.float64), ids, labels, k1, b, keywords)

    def _set(self, terms, indptr, docs, counts, ids, labels, k1, b, keywords):
        """Check the postings, keep them, and derive the statistics scoring uses."""
        check_params(k1, b)
        if not ids:
            raise EmptyCorpus("cannot build a BM25 index from zero documents")
        if len(indptr) != len(terms) + 1 or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0 and not decrease, one step per term")
        if not indptr[-1] == len(docs) == len(counts):
            raise ValueError("indptr must end at the postings count, one count per posting")
        if docs.size and not 0 <= docs.min() <= docs.max() < len(ids):
            raise ValueError(f"a posting names a document outside [0, {len(ids)})")
        if any(prev >= term for prev, term in zip(terms, terms[1:])):
            raise ValueError("terms are not unique and sorted")
        self.vocab = {term: tid for tid, term in enumerate(terms)}
        self._post_indptr, self._post_docs, self._post_counts = indptr, docs, counts
        self.ids, self.labels = list(ids), check_label_rows(labels, len(ids))
        self.k1, self.b, self.keywords = float(k1), float(b), tuple(keywords)
        self.N = len(self.ids)
        self.doc_freq = dict(zip(terms, np.diff(indptr).tolist()))
        # a document's length is its token count: the sum of its postings' counts
        lengths = np.bincount(docs, weights=counts, minlength=self.N)
        self.avg_len = float(lengths.sum()) / self.N
        self._idf = np.fromiter(map(self.idf, terms), np.float64, len(terms))  # by id
        self._row_order = RowOrder(self.ids)
        # per-doc length-normalization denominator k1*(1 - b + b*l_D/l_avg)
        self._norms = self.k1 * (1.0 - self.b + self.b * lengths / self.avg_len)

    # -- scoring ------------------------------------------------------------

    def idf(self, term: str) -> float:
        n = self.doc_freq.get(term, 0)
        return math.log((self.N - n + 0.5) / (n + 0.5) + 1.0)

    def score_all(self, query_tokens: Sequence[str]) -> np.ndarray:
        """Scores against every indexed document, from one gather of the query's postings.

        Terms keep their first-appearance order, so each document's score sums
        its terms' contributions in that order.
        """
        # an unseen term adds nothing anywhere
        known = [(self.vocab[term], mult) for term, mult in Counter(query_tokens).items()
                 if term in self.vocab]
        if not known:
            return np.zeros(self.N)  # bincount of nothing would come back as integers
        tids = np.array([tid for tid, _ in known], dtype=np.int64)
        mults = np.array([mult for _, mult in known], dtype=np.float64)
        lo = self._post_indptr[tids]
        lengths = self._post_indptr[tids + 1] - lo
        # positions of every slice, concatenated in term order
        pos = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        pos += np.arange(pos.size)
        docs = self._post_docs[pos]
        counts = self._post_counts[pos]
        del pos  # in-place steps below keep at most four postings-sized arrays alive
        # weight * (k1 + 1) * count / (norm + count), each step as in the per-term formula
        contrib = np.repeat(mults * self._idf[tids] * (self.k1 + 1.0), lengths)
        contrib *= counts
        counts += self._norms[docs]
        contrib /= counts
        # bincount adds each document's contributions in array order
        return np.bincount(docs, weights=contrib, minlength=self.N)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        payload = {"k1": self.k1, "b": self.b, "keywords": list(self.keywords), "ids": self.ids,
                   "labels": self.labels.tolist(), "terms": list(self.vocab),
                   "indptr": self._post_indptr.tolist(), "docs": self._post_docs.tolist(),
                   "counts": self._post_counts.astype(np.int64).tolist()}
        Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Bm25Index":
        """The index `save` wrote; KeyError, TypeError or ValueError if the file is not one."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        index = cls.__new__(cls)
        index._set(payload["terms"], np.asarray(payload["indptr"], dtype=np.int64),
                   np.asarray(payload["docs"], dtype=np.int64),
                   np.asarray(payload["counts"], dtype=np.float64), payload["ids"],
                   payload["labels"], payload["k1"], payload["b"], payload["keywords"])
        return index


def build_bm25(train: Dataset, k1=DEFAULT_K1, b=DEFAULT_B,
               keywords: Sequence[str] = DEFAULT_KEYWORDS) -> Bm25Index:
    return Bm25Index([tokenize(c.source, keywords) for c in train], train.ids(),
                     label_matrix(train.contracts, len(train.taxonomy)),
                     k1=k1, b=b, keywords=keywords)


def bm25_retrieve(query: Contract, index: Bm25Index,
                  k: int = DEFAULT_TOP_K) -> tuple[np.ndarray, np.ndarray]:
    """(rows, scores) of the top-k documents by descending score, ties by ascending
    id, self excluded."""
    check_params(index.k1, index.b, k)
    scores = index.score_all(tokenize(query.source, index.keywords))
    rows = index._row_order.top(scores, k, exclude=query.id)
    return rows, scores[rows]


def threshold_vote(hit_labels: np.ndarray, threshold: float) -> np.ndarray:
    """Set label j iff at least `threshold` of the hits' (hits, L) label rows carry it."""
    return (hit_labels.sum(axis=0) >= threshold).astype(np.int64)


def bm25_vote(hit_labels: np.ndarray, threshold: int = DEFAULT_VOTE_THRESHOLD) -> np.ndarray:
    """Set label j iff at least `threshold` of the top-k hits carry it."""
    return threshold_vote(hit_labels, threshold)
