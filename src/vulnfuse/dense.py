"""Semantic retrieval: sliding-window segmentation, hashed embeddings, cosine scan.

Fragment offsets count UTF-8 bytes of the preprocessed source so segment
boundaries are identical on every platform. The embedder hashes token
3-grams into signed buckets; it is deterministic and needs no model weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bm25 import RetrievalHit, RowOrder, threshold_vote
from .corpus import Contract, Dataset, LabelVector, signed_buckets, word_tokens
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
    parent_id: str
    frag_index: int
    text: str
    start: int
    end: int
    labels: Optional[LabelVector] = None


def segment(source: str, params: SegmentationParams = SegmentationParams(), *,
            parent_id: str = "", labels: Optional[LabelVector] = None) -> list[Fragment]:
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
                parent_id=parent_id,
                frag_index=index,
                text=data[start:end].decode("utf-8", errors="replace"),
                start=start,
                end=end,
                labels=labels,
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


@dataclass
class StoreMeta:
    parent_id: str
    frag_index: int
    labels: LabelVector


class VectorStore:
    """Flat store of unit vectors scanned exhaustively with cosine similarity.

    `segmentation` is the (window, overlap, min_len) the stored fragments were
    cut with; queries must be cut the same way.
    """

    def __init__(self, vectors: np.ndarray, metadata: list[StoreMeta], dim: int,
                 segmentation: tuple[int, int, int]):
        if vectors.shape[0] != len(metadata):
            raise InvalidParameter("metadata length must equal vector count")
        self.vectors = vectors
        self.metadata = metadata
        self.dim = dim
        self.segmentation = segmentation
        self._row_order = RowOrder([(m.parent_id, m.frag_index) for m in metadata],
                                   group=lambda key: key[0])

    def __len__(self):
        return self.vectors.shape[0]

    def save(self, path) -> None:
        meta = [
            {"parent_id": m.parent_id, "frag_index": m.frag_index, "labels": list(m.labels.bits)}
            for m in self.metadata
        ]
        np.savez(
            path,
            vectors=self.vectors,
            dim=np.int64(self.dim),
            segmentation=np.array(self.segmentation, dtype=np.int64),
            metadata=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path) -> "VectorStore":
        with np.load(path) as data:
            vectors = data["vectors"]
            dim = int(data["dim"])
            segmentation = tuple(data["segmentation"].tolist())
            meta = json.loads(bytes(data["metadata"]).decode("utf-8"))
        metadata = [
            StoreMeta(m["parent_id"], m["frag_index"], LabelVector(bits=tuple(m["labels"])))
            for m in meta
        ]
        return cls(vectors, metadata, dim, segmentation)


def build_store(train: Dataset, params: SegmentationParams = SegmentationParams(),
                embedder: Optional[HashingEmbedder] = None) -> VectorStore:
    """Segment and embed every training contract into one flat store."""
    embedder = embedder or HashingEmbedder()
    vectors, metadata = [], []
    for contract in train:
        labels = contract.labels if contract.labels is not None \
            else LabelVector.zeros(len(train.taxonomy))
        for frag in segment(contract.source, params, parent_id=contract.id, labels=labels):
            vectors.append(embedder.embed(frag.text))
            metadata.append(StoreMeta(contract.id, frag.frag_index, labels))
    if not vectors:
        raise EmptyStore("dataset produced zero fragments")
    return VectorStore(np.stack(vectors), metadata, embedder.dim,
                       (params.window, params.overlap, params.min_len))


def dense_retrieve(query: Contract, store: VectorStore,
                   params: SegmentationParams = SegmentationParams(),
                   embedder: Optional[HashingEmbedder] = None) -> list[RetrievalHit]:
    """Per query fragment, the chi best foreign vectors by cosine similarity."""
    embedder = embedder or HashingEmbedder(store.dim)
    fragments = segment(query.source, params)
    if not fragments:
        raise NoFragments(f"query {query.id!r} yields no fragments")
    hits = []
    for frag in fragments:
        q = embedder.embed(frag.text)
        scores = store.vectors @ q
        for i in store._row_order.top(scores, params.chi, exclude=query.id).tolist():
            meta = store.metadata[i]
            hits.append(RetrievalHit(
                contract_id=meta.parent_id,
                score=float(scores[i]),
                labels=meta.labels,
            ))
    return hits


def dynamic_threshold(n_retrieved: int) -> float:
    """The greater of 40% of the retrieved fragment count and 1."""
    return max(n_retrieved * 0.4, 1.0)


def dense_vote(hits: Sequence[RetrievalHit], num_labels: Optional[int] = None) -> LabelVector:
    """One vote per hit per carried label; keep labels with votes >= threshold."""
    return threshold_vote(hits, dynamic_threshold(len(hits)), num_labels)
