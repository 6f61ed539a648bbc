"""Semantic retrieval: sliding-window segmentation, hashed embeddings, cosine scan.

Fragment offsets count UTF-8 bytes of the preprocessed source so segment
boundaries are identical on every platform. The embedder hashes token
3-grams into signed buckets; it is deterministic and needs no model weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bm25 import RowOrder, threshold_vote
from .corpus import Contract, Dataset, check_label_rows, label_matrix, signed_buckets, word_tokens
from .errors import EmptyFragment, EmptyStore, InvalidParameter, NoFragments

DEFAULT_WINDOW = 1500
DEFAULT_OVERLAP = 300
DEFAULT_MIN_LEN = 100
DEFAULT_CHI = 5
DEFAULT_EMBED_DIM = 256


@dataclass(frozen=True)
class SegmentationParams:
    window: int = DEFAULT_WINDOW
    overlap: int = DEFAULT_OVERLAP
    min_len: int = DEFAULT_MIN_LEN
    chi: int = DEFAULT_CHI

    def __post_init__(self):
        if not 0 <= self.overlap < self.window:
            raise InvalidParameter(f"overlap must satisfy 0 <= o < window, got {self.overlap}")
        if self.min_len <= 0:
            raise InvalidParameter("min_len must be positive")
        if self.chi < 1:
            raise InvalidParameter("chi must be at least 1")


@dataclass(frozen=True)
class Fragment:
    frag_index: int
    text: str
    start: int
    end: int


def segment(source: str, params: SegmentationParams = SegmentationParams()) -> list[Fragment]:
    """Overlapping windows at stride window-overlap; short or contained tails drop."""
    data = source.encode("utf-8")
    length = len(data)
    stride = params.window - params.overlap
    fragments = []
    prev_end = -1
    start = 0
    index = 0
    while start < length:
        end = min(start + params.window, length)
        contained = end <= prev_end  # tail window already covered by the previous one
        if end - start >= params.min_len and not contained:
            fragments.append(Fragment(
                frag_index=index,
                text=data[start:end].decode("utf-8", errors="replace"),
                start=start,
                end=end,
            ))
            index += 1
        prev_end = max(prev_end, end)
        start += stride
    return fragments


def expected_fragment_count(source_len: int, params: SegmentationParams) -> int:
    """ceil((L - o)/(s - o)) for sources at least one window long and min_len <= o + 1."""
    stride = params.window - params.overlap
    return -(-(source_len - params.overlap) // stride)


class HashingEmbedder:
    """Signed feature hashing of token 3-grams, L2-normalized."""

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim < 1:
            raise InvalidParameter("embedding dimension must be positive")
        self.dim = dim

    def _grams(self, text: str) -> list[str]:
        tokens = word_tokens(text)
        if not tokens:
            raise EmptyFragment("fragment has no tokenizable content")
        if len(tokens) < 3:
            return [" ".join(tokens)]
        return [f"{a} {b} {c}" for a, b, c in zip(tokens, tokens[1:], tokens[2:])]

    def embed(self, fragment_text: str) -> np.ndarray:
        if not fragment_text:
            raise EmptyFragment("cannot embed empty text")
        # sums of +/-1 are exact, so bincount matches any accumulation order
        idx, signs = signed_buckets(self._grams(fragment_text), self.dim)
        vec = np.bincount(idx, weights=signs, minlength=self.dim)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # opposite-signed grams cancelled; fall back to unsigned counts
            vec = np.bincount(idx, minlength=self.dim).astype(np.float64)
            norm = np.linalg.norm(vec)
        return vec / norm


class VectorStore:
    """Flat store of unit vectors scanned exhaustively with cosine similarity.

    Row i is fragment `frag_index[i]` of contract `parent_ids[i]`, whose 0/1
    labels are `labels[i]`. `segmentation` is the (window, overlap, min_len)
    the stored fragments were cut with; queries must be cut the same way.
    """

    def __init__(self, vectors: np.ndarray, parent_ids: Sequence[str], frag_index: np.ndarray,
                 labels: np.ndarray, dim: int, segmentation: tuple[int, int, int]):
        if not vectors.shape[0] == len(parent_ids) == len(frag_index):
            raise ValueError(f"{vectors.shape[0]} vectors but {len(parent_ids)} ids and "
                             f"{len(frag_index)} fragment indices")
        self.vectors = vectors
        self.parent_ids = list(parent_ids)
        self.frag_index = np.asarray(frag_index, dtype=np.int64)
        self.labels = check_label_rows(labels, len(self.parent_ids))
        self.dim = dim
        self.segmentation = segmentation
        self._row_order = RowOrder(list(zip(self.parent_ids, self.frag_index.tolist())),
                                   group=lambda key: key[0])

    def __len__(self):
        return self.vectors.shape[0]

    def save(self, path) -> None:
        np.savez(
            path,
            vectors=self.vectors,
            dim=np.int64(self.dim),
            segmentation=np.array(self.segmentation, dtype=np.int64),
            parent_ids=np.array(self.parent_ids, dtype=str),
            frag_index=self.frag_index,
            labels=self.labels,
        )

    @classmethod
    def load(cls, path) -> "VectorStore":
        """The store `save` wrote; KeyError or ValueError if the file is not one."""
        with np.load(path) as data:
            return cls(data["vectors"], data["parent_ids"].tolist(), data["frag_index"],
                       data["labels"], int(data["dim"]),
                       tuple(data["segmentation"].tolist()))


def build_store(train: Dataset, params: SegmentationParams = SegmentationParams(),
                embedder: Optional[HashingEmbedder] = None) -> VectorStore:
    """Segment and embed every training contract into one flat store."""
    embedder = embedder or HashingEmbedder()
    vectors, rows, frag_index = [], [], []  # rows: each fragment's contract
    for row, contract in enumerate(train):
        for frag in segment(contract.source, params):
            vectors.append(embedder.embed(frag.text))
            rows.append(row)
            frag_index.append(frag.frag_index)
    if not vectors:
        raise EmptyStore("dataset produced zero fragments")
    ids = train.ids()
    return VectorStore(np.stack(vectors), [ids[row] for row in rows], frag_index,
                       label_matrix(train.contracts, len(train.taxonomy))[rows], embedder.dim,
                       (params.window, params.overlap, params.min_len))


def dense_retrieve(query: Contract, store: VectorStore,
                   params: SegmentationParams = SegmentationParams(),
                   embedder: Optional[HashingEmbedder] = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, scores): per query fragment in turn, the chi best foreign rows by
    cosine similarity."""
    embedder = embedder or HashingEmbedder(store.dim)
    fragments = segment(query.source, params)
    if not fragments:
        raise NoFragments(f"query {query.id!r} yields no fragments")
    rows, scores = [], []
    for frag in fragments:
        similarity = store.vectors @ embedder.embed(frag.text)
        top = store._row_order.top(similarity, params.chi, exclude=query.id)
        rows.append(top)
        scores.append(similarity[top])
    return np.concatenate(rows), np.concatenate(scores)


def dynamic_threshold(n_retrieved: int) -> float:
    """The greater of 40% of the retrieved fragment count and 1."""
    return max(n_retrieved * 0.4, 1.0)


def dense_vote(hit_labels: np.ndarray) -> np.ndarray:
    """One vote per hit per carried label; keep labels with votes >= threshold."""
    return threshold_vote(hit_labels, dynamic_threshold(len(hit_labels)))
