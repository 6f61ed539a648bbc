"""Lexical retrieval: security-aware tokenization, BM25 scoring, top-K voting.

Scores follow the classic Okapi form with idf = ln((N - n + 0.5)/(n + 0.5) + 1).
The index is immutable once built and safe to query concurrently.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Contract, Dataset, LabelVector, word_tokens
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


def _keyword_pattern(keyword: str) -> re.Pattern:
    return re.compile(r"(?<![a-z0-9])" + re.escape(keyword.lower()) + r"(?![a-z0-9])")


def _collapse_runs(tokens: list[str]) -> list[str]:
    out = []
    for tok in tokens:
        if not out or out[-1] != tok:
            out.append(tok)
    return out


def tokenize(source: str, keywords: Sequence[str] = DEFAULT_KEYWORDS) -> list[str]:
    """Lowercase, split on non-alphanumerics, append keyword matches, collapse runs."""
    lower = source.lower()
    tokens = word_tokens(lower)
    for keyword in keywords:
        count = len(_keyword_pattern(keyword).findall(lower))
        tokens.extend([keyword.lower()] * count)
    return _collapse_runs(tokens)


@dataclass(frozen=True)
class RetrievalHit:
    contract_id: str
    score: float
    labels: LabelVector


class Bm25Index:
    """BM25 statistics plus CSR postings for scoring."""

    def __init__(self, doc_tokens, ids, labels, k1=DEFAULT_K1, b=DEFAULT_B,
                 keywords=DEFAULT_KEYWORDS):
        if not doc_tokens:
            raise EmptyCorpus("cannot build a BM25 index from zero documents")
        if not (len(doc_tokens) == len(ids) == len(labels)):
            raise ValueError("documents, ids and labels must align")
        self.doc_tokens = [list(toks) for toks in doc_tokens]
        self.ids = list(ids)
        self.labels = list(labels)
        self.k1 = float(k1)
        self.b = float(b)
        self.keywords = tuple(keywords)
        self.N = len(self.doc_tokens)
        self.term_freqs = [Counter(toks) for toks in self.doc_tokens]
        self.doc_lengths = np.array([len(toks) for toks in self.doc_tokens], dtype=np.int64)
        self.avg_len = float(self.doc_lengths.sum()) / self.N
        self.doc_freq = Counter()
        for tf in self.term_freqs:
            self.doc_freq.update(tf.keys())
        self._build_postings()
        # per-doc length-normalization denominator k1*(1 - b + b*l_D/l_avg)
        self._norms = self.k1 * (1.0 - self.b + self.b * self.doc_lengths / self.avg_len)

    def _build_postings(self):
        vocab = {term: tid for tid, term in enumerate(sorted(self.doc_freq))}
        entries = [[] for _ in vocab]
        for doc_idx, tf in enumerate(self.term_freqs):
            for term, count in tf.items():
                entries[vocab[term]].append((doc_idx, count))
        docs, counts, indptr = [], [], [0]
        for per_term in entries:
            per_term.sort()
            docs.extend(d for d, _ in per_term)
            counts.extend(c for _, c in per_term)
            indptr.append(len(docs))
        self.vocab = vocab
        self._post_docs = np.array(docs, dtype=np.int64)
        self._post_counts = np.array(counts, dtype=np.float64)
        self._post_indptr = np.array(indptr, dtype=np.int64)

    # -- scoring ------------------------------------------------------------

    def idf(self, term: str) -> float:
        n = self.doc_freq.get(term, 0)
        return math.log((self.N - n + 0.5) / (n + 0.5) + 1.0)

    def score_all(self, query_tokens: Sequence[str]) -> np.ndarray:
        """Scores against every indexed document, one postings slice per query term."""
        scores = np.zeros(self.N)
        for term, mult in Counter(query_tokens).items():
            tid = self.vocab.get(term)
            if tid is None:
                continue  # unseen term: zero contribution everywhere
            lo, hi = self._post_indptr[tid], self._post_indptr[tid + 1]
            docs = self._post_docs[lo:hi]
            counts = self._post_counts[lo:hi]
            # postings of one term list each document once, so plain fancy
            # indexing accumulates correctly
            weight = mult * self.idf(term)
            scores[docs] += weight * (self.k1 + 1.0) * counts / (self._norms[docs] + counts)
        return scores

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        payload = {
            "k1": self.k1,
            "b": self.b,
            "keywords": list(self.keywords),
            "docs": [
                {"id": cid, "labels": list(lv.bits), "tokens": toks}
                for cid, lv, toks in zip(self.ids, self.labels, self.doc_tokens)
            ],
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Bm25Index":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            doc_tokens=[doc["tokens"] for doc in payload["docs"]],
            ids=[doc["id"] for doc in payload["docs"]],
            labels=[LabelVector(bits=tuple(doc["labels"])) for doc in payload["docs"]],
            k1=payload["k1"],
            b=payload["b"],
            keywords=payload["keywords"],
        )


def build_bm25(train: Dataset, k1=DEFAULT_K1, b=DEFAULT_B,
               keywords: Sequence[str] = DEFAULT_KEYWORDS) -> Bm25Index:
    if len(train) == 0:
        raise EmptyCorpus("training dataset is empty")
    tokens, ids, labels = [], [], []
    for contract in train:
        tokens.append(tokenize(contract.source, keywords))
        ids.append(contract.id)
        labels.append(contract.labels if contract.labels is not None
                      else LabelVector.zeros(len(train.taxonomy)))
    return Bm25Index(tokens, ids, labels, k1=k1, b=b, keywords=keywords)


def bm25_retrieve(query: Contract, index: Bm25Index, k: int = DEFAULT_TOP_K) -> list[RetrievalHit]:
    """Top-k hits by descending score, ties by ascending id, self excluded."""
    if k <= 0:
        raise InvalidParameter(f"top-k must be positive, got {k}")
    scores = index.score_all(tokenize(query.source, index.keywords))
    candidates = [i for i in range(index.N) if index.ids[i] != query.id]
    candidates.sort(key=lambda i: (-scores[i], index.ids[i]))
    return [
        RetrievalHit(contract_id=index.ids[i], score=float(scores[i]), labels=index.labels[i])
        for i in candidates[:k]
    ]


def threshold_vote(hits: Sequence[RetrievalHit], threshold: float,
                   num_labels: Optional[int] = None) -> LabelVector:
    """Set label j iff at least `threshold` hits carry it."""
    if num_labels is None:
        if not hits:
            raise InvalidParameter("num_labels required when the hit list is empty")
        num_labels = len(hits[0].labels)
    counts = [0] * num_labels
    for hit in hits:
        for j, bit in enumerate(hit.labels.bits):
            counts[j] += bit
    return LabelVector(bits=tuple(1 if c >= threshold else 0 for c in counts))


def bm25_vote(hits: Sequence[RetrievalHit], threshold: int = DEFAULT_VOTE_THRESHOLD,
              num_labels: Optional[int] = None) -> LabelVector:
    """Set label j iff at least `threshold` of the top-k hits carry it."""
    return threshold_vote(hits, threshold, num_labels)
