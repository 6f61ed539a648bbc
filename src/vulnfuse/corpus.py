"""Contract dataset model, line-delimited JSON ingestion, and source cleanup.

Dataset files hold one JSON object per line with fields ``id`` (string),
``source`` (string) and optionally ``labels`` (array of 0/1 ints of taxonomy
length). The taxonomy file is a JSON array of label names. The word
tokenizer and signed feature hash shared by the detectors live here too.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyContract, ParseError, SchemaError


@dataclass(frozen=True)
class Contract:
    """One preprocessed smart contract with optional ground-truth labels."""

    id: str
    source: str
    labels: Optional[tuple[int, ...]] = None  # one 0 or 1 per taxonomy label


@dataclass(frozen=True)
class Dataset:
    contracts: tuple[Contract, ...]
    taxonomy: tuple[str, ...]
    # designation ("train"/"test") per contract id
    split: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.contracts)

    def __iter__(self):
        return iter(self.contracts)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.contracts)

    @cached_property
    def _by_id(self) -> dict[str, Contract]:
        # reversed, so that the first of any repeated id wins, as in a scan
        return {c.id: c for c in reversed(self.contracts)}

    def get(self, contract_id: str) -> Contract:
        return self._by_id[contract_id]


# ---------------------------------------------------------------------------
# tokens and feature hashing
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(r"[a-z0-9]+")


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric runs of `text`."""
    return TOKEN_RE.findall(text.lower())


def signed_buckets(texts: Iterable[str], dim: int,
                   key: bytes = b"") -> tuple[np.ndarray, np.ndarray]:
    """Bucket indices in [0, dim) and +/-1 signs, one keyed 64-bit blake2b digest per text.

    The bucket is the big-endian digest modulo `dim` (below 2**63); the sign
    is - when the digest's top bit is set.
    """
    base = hashlib.blake2b(digest_size=8, key=key)
    digests = []
    for text in texts:
        h = base.copy()
        h.update(text.encode("utf-8"))
        digests.append(h.digest())
    h = np.frombuffer(b"".join(digests), dtype=">u8")
    return (h % np.uint64(dim)).astype(np.int64), np.where(h >> np.uint64(63), -1.0, 1.0)


def encode_strings(strings: Iterable[str]) -> np.ndarray:
    """`strings` as a uint8 array of UTF-8 JSON, for an npz file.

    A NumPy string array would drop each string's trailing NUL characters.
    """
    return np.frombuffer(json.dumps(list(strings)).encode("utf-8"), dtype=np.uint8)


def decode_strings(data: np.ndarray) -> tuple[str, ...]:
    """The strings `encode_strings` stored; ValueError if `data` does not hold them."""
    if data.dtype != np.uint8:
        raise ValueError(f"strings must be stored as UTF-8 JSON bytes, got {data.dtype}")
    strings = json.loads(data.tobytes().decode("utf-8"))
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise ValueError("stored strings must be a JSON array of strings")
    return tuple(strings)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

# One pass over the source. `keep` spans code and string literals; a literal
# ends at its closing quote, at a newline (unterminated) or at the end of the
# text, and a backslash escapes the next character. A `//` comment runs to the
# end of its line; a `/* */` comment runs to `*/` or the end of the text.
_STRING = r"""(?P<q>["'])(?:\\[\s\S]|(?!(?P=q))[^\\\n])*(?:(?P=q)|\n|\\?\Z)"""
_COMMENT_RE = re.compile(
    r"""(?P<keep>(?:[^/"']+|/(?![/*])|""" + _STRING + r""")+)"""
    r"""|//[^\n]*|/\*(?P<block>[\s\S]*?)(?:\*/|\Z)"""
)


def _uncomment(match: re.Match) -> str:
    keep = match.group("keep")
    if keep is not None:
        return keep
    # keep newlines so line structure survives block comments
    return "\n" * (match.group("block") or "").count("\n")


def strip_comments(raw: str) -> str:
    """Drop // and /* */ comments; string literals pass through untouched."""
    return _COMMENT_RE.sub(_uncomment, raw)


def _clean(text: str) -> str:
    text = strip_comments(text)
    return "\n".join(line for line in (raw.strip() for raw in text.split("\n")) if line)


def preprocess(raw_source: str) -> str:
    """Normalize contract source: strip comments, per-line whitespace, blank lines.

    Raises EmptyContract when nothing but noise remains. Idempotent.
    """
    text = _clean(raw_source)
    # Dropping whitespace or blank lines after a backslash in a string literal
    # can let the literal run on over a line that was code, which hides or
    # exposes a comment. Clean again until nothing changes; each pass only
    # removes characters, so the loop ends.
    while "\\\n" in text:
        again = _clean(text)
        if again == text:
            break
        text = again
    if not text:
        raise EmptyContract("contract source is empty after preprocessing")
    return text


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def load_taxonomy(path) -> tuple[str, ...]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise SchemaError(f"taxonomy file {path} must be a JSON array of strings")
    if len(set(data)) != len(data):
        raise SchemaError(f"taxonomy file {path} contains duplicate label names")
    return tuple(data)


def _records(path):
    """(index, record) for each non-blank line; checks JSON, id/source and unique ids.
    Each error names the file and the record."""
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: record {index}: invalid JSON ({exc})", index) from exc
            if not isinstance(record, dict) or "id" not in record or "source" not in record:
                raise ParseError(f"{path}: record {index}: missing id/source field", index)
            cid = record["id"]
            if not isinstance(cid, str) or not isinstance(record["source"], str):
                raise ParseError(f"{path}: record {index}: id and source must be strings", index)
            if cid in seen:
                raise SchemaError(f"{path}: record {index}: duplicate contract id {cid!r}")
            seen.add(cid)
            yield index, record


def _labels(path, index: int, record: dict,
            taxonomy: Sequence[str]) -> Optional[tuple[int, ...]]:
    """The record's labels, one integer 0 or 1 per taxonomy label; None if unlabeled."""
    bits = record.get("labels")
    if bits is None:
        return None
    where = f"{path}: record {index} ({record['id']!r})"
    # bool is an int subclass; JSON true/false are not labels
    if not (isinstance(bits, list) and all(type(b) is int and b in (0, 1) for b in bits)):
        raise SchemaError(f"{where}: labels must be a JSON array of integers 0 or 1, "
                          f"got {bits!r}")
    if len(bits) != len(taxonomy):
        raise SchemaError(f"{where}: {len(bits)} labels for taxonomy of {len(taxonomy)}")
    return tuple(bits)


def label_matrix(contracts: Sequence[Contract], num_labels: int) -> np.ndarray:
    """(n, num_labels) int64 labels, one row per contract; zeros where unlabeled."""
    zeros = (0,) * num_labels
    rows = [zeros if c.labels is None else c.labels for c in contracts]
    return np.array(rows, dtype=np.int64).reshape(len(rows), num_labels)


def check_label_rows(labels, rows: int) -> np.ndarray:
    """`labels` as an int64 array of `rows` rows of 0s and 1s; ValueError if it is not one."""
    labels = np.asarray(labels)
    if len(labels) != rows:
        raise ValueError(f"{rows} ids but {len(labels)} label vectors")
    if labels.ndim != 2 or labels.size and (labels.dtype.kind not in "iu"
                                            or not np.isin(labels, (0, 1)).all()):
        raise ValueError(f"labels must be rows of integers 0 or 1, got {labels.dtype} "
                         f"of shape {labels.shape}")
    return labels.astype(np.int64)


def ingest(path, taxonomy: Sequence[str], split: str = "train") -> Dataset:
    """Read a line-delimited JSON dataset; preprocess and validate each record."""
    taxonomy = tuple(taxonomy)
    contracts = []
    for index, record in _records(path):
        labels = _labels(path, index, record, taxonomy)
        try:
            source = preprocess(record["source"])
        except EmptyContract as exc:
            raise ParseError(f"{path}: record {index}: empty source after preprocessing",
                             index) from exc
        contracts.append(Contract(id=record["id"], source=source, labels=labels))
    return Dataset(
        contracts=tuple(contracts),
        taxonomy=taxonomy,
        split={c.id: split for c in contracts},
    )


def read_ids(path) -> tuple[str, ...]:
    """Contract ids of a dataset file, checked like `ingest` but not preprocessed."""
    return tuple(record["id"] for _, record in _records(path))


def read_labels(path, taxonomy: Sequence[str]) -> dict[str, Optional[tuple[int, ...]]]:
    """Labels (or None) by contract id, checked like `ingest` but not preprocessed."""
    return {record["id"]: _labels(path, index, record, taxonomy)
            for index, record in _records(path)}


def check_disjoint(train_ids: Iterable[str], test_ids: Iterable[str]) -> None:
    overlap = set(train_ids) & set(test_ids)
    if overlap:
        raise SchemaError(f"train/test splits share contract ids: {sorted(overlap)[:5]}")
