"""Uniform detector interface and concurrent dispatch.

Every detector maps a contract to a per-label probability vector, and a
batch of contracts to one row per contract; `batch_detect` stacks every
detector's rows into one `Detections` record. Retrieval detectors emit their
binary votes as 0.0/1.0; the adapter classifier emits sigmoid outputs; the
external detector forwards to an HTTP endpoint speaking the JSON wire
protocol documented in the README. A failing detector yields failed rows
and never blocks the others.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bm25 import Bm25Index, bm25_retrieve, bm25_vote
from .corpus import Contract
from .dense import HashingEmbedder, SegmentationParams, VectorStore, dense_retrieve, dense_vote
from .errors import AllDetectorsFailed, SchemaError, ShapeError
from .slora import AdapterLayer, HashedFeatureExtractor, ReadoutHead, classifier_probs


@dataclass(frozen=True)
class DetectionResult:
    """One detector's verdict on one contract, from `detect`."""

    detector_name: str
    probabilities: Optional[tuple[float, ...]]  # None when the detector failed
    elapsed: float
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _row(detector: "Detector", probabilities) -> np.ndarray:
    """One contract's probabilities; ShapeError, naming the detector, unless one per
    label, so that assigning the row into a column never broadcasts one value."""
    row = np.asarray(probabilities, dtype=np.float64)
    if row.shape != (detector.num_labels,):
        raise ShapeError(f"detector {detector.name!r} returned probabilities of shape "
                         f"{row.shape} for one contract, expected {(detector.num_labels,)}")
    return row


class Detector:
    """Base detector: subclasses implement predict(contract) -> probabilities."""

    name = "detector"
    # True for a detector whose predict mostly waits (on a network reply or a
    # sleep) rather than computes; batch_detect gives only these a thread.
    waits = False

    def __init__(self, num_labels: int):
        self.num_labels = num_labels

    def predict(self, contract: Contract) -> np.ndarray:
        raise NotImplementedError

    def predict_batch(self, contracts: Sequence[Contract]) -> tuple[np.ndarray, list]:
        """(n, num_labels) probabilities and, per row, an error string or None.

        A failed row holds NaN. This default runs `predict` on each contract,
        so one contract's failure fails only its own row; a row of the wrong
        shape raises ShapeError.
        """
        probs = np.full((len(contracts), self.num_labels), np.nan)
        errors = [None] * len(contracts)
        for i, contract in enumerate(contracts):
            try:
                row = self.predict(contract)
            except Exception as exc:
                errors[i] = _failure(exc)
            else:
                probs[i] = _row(self, row)
        return probs, errors


class MockDetector(Detector):
    """Fixed-output detector for wiring and timing tests."""

    def __init__(self, probabilities, name="mock", delay=0.0, fail=False):
        super().__init__(num_labels=len(probabilities))
        self.name = name
        self._probs = np.asarray(probabilities, dtype=np.float64)
        self._delay = delay
        self._fail = fail

    @property
    def waits(self) -> bool:
        return self._delay > 0

    def predict(self, contract):
        if self._delay:
            time.sleep(self._delay)
        if self._fail:
            raise RuntimeError("mock detector configured to fail")
        return self._probs.copy()


class Bm25Detector(Detector):
    name = "bm25"

    def __init__(self, index: Bm25Index, num_labels: int, top_k: int = 7,
                 vote_threshold: int = 4):
        super().__init__(num_labels)
        self.index = index
        self.top_k = top_k
        self.vote_threshold = vote_threshold

    def predict(self, contract):
        rows, _ = bm25_retrieve(contract, self.index, self.top_k)
        return bm25_vote(self.index.labels[rows], self.vote_threshold).astype(np.float64)


class DenseDetector(Detector):
    name = "dense"

    def __init__(self, store: VectorStore, num_labels: int,
                 params: SegmentationParams = SegmentationParams()):
        super().__init__(num_labels)
        self.store = store
        self.params = params
        self.embedder = HashingEmbedder(store.dim)

    def predict(self, contract):
        rows, _ = dense_retrieve(contract, self.store, self.params, self.embedder)
        return dense_vote(self.store.labels[rows]).astype(np.float64)


class SloraDetector(Detector):
    name = "slora"

    def __init__(self, layer: AdapterLayer, head: ReadoutHead,
                 extractor: HashedFeatureExtractor, num_labels: int):
        super().__init__(num_labels)
        self.layer = layer
        self.head = head
        self.extractor = extractor

    def predict(self, contract):
        return self.predict_batch([contract])[0][0]

    def predict_batch(self, contracts):
        # one mask and one forward for the whole batch
        x = np.stack([self.extractor.extract(c.source) for c in contracts])
        return classifier_probs(x, self.layer, self.head), [None] * len(contracts)


class ExternalDetector(Detector):
    """Client for a remote detector speaking the JSON wire protocol."""

    name = "external"
    waits = True

    def __init__(self, endpoint: str, taxonomy: Sequence[str], timeout: float = 30.0,
                 retries: int = 1, auth_header: Optional[str] = None, name: str = "external"):
        super().__init__(num_labels=len(taxonomy))
        self.name = name
        self.endpoint = endpoint
        self.taxonomy = tuple(taxonomy)
        self.timeout = timeout
        self.retries = retries
        self.auth_header = auth_header

    def _request_once(self, contract: Contract) -> np.ndarray:
        body = json.dumps({"source": contract.source, "taxonomy": list(self.taxonomy)})
        headers = {"Content-Type": "application/json"}
        if self.auth_header:
            headers["Authorization"] = self.auth_header
        request = urllib.request.Request(
            self.endpoint, data=body.encode("utf-8"), headers=headers, method="POST"
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            reply = json.loads(response.read().decode("utf-8"))
        probs = reply.get("probabilities")
        if not isinstance(probs, list) or len(probs) != self.num_labels:
            raise SchemaError(
                f"endpoint returned {len(probs) if isinstance(probs, list) else 'no'} "
                f"probabilities, expected {self.num_labels}"
            )
        arr = np.asarray(probs, dtype=np.float64)
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise SchemaError("endpoint probabilities outside [0, 1]")
        return arr

    def predict(self, contract):
        last = None
        for _ in range(self.retries + 1):
            try:
                return self._request_once(contract)
            except (urllib.error.URLError, TimeoutError, OSError, ValueError, SchemaError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # it holds the response and its open socket
                last = exc
        raise last


def detect(detector: Detector, contract: Contract) -> DetectionResult:
    """Run one detector on one contract, returning a failed result instead of raising."""
    start = time.perf_counter()
    try:
        probs, error = tuple(np.asarray(detector.predict(contract), float).tolist()), None
    except Exception as exc:
        probs, error = None, _failure(exc)
    return DetectionResult(detector.name, probs, time.perf_counter() - start, error)


def _column(detector: Detector, contracts: Sequence[Contract]):
    """One detector's (n, L) probabilities, per-contract errors, and wall time over n.

    A waiting detector walks the contracts through `detect`, one request in
    flight; any other makes one `predict_batch` call, and if that raises
    anything but ShapeError, every row fails with its error (probabilities None).
    """
    start = time.perf_counter()
    if detector.waits:
        results = [detect(detector, contract) for contract in contracts]
        probs = np.full((len(contracts), detector.num_labels), np.nan)
        for row, result in zip(probs, results):
            if result.ok:
                row[:] = _row(detector, result.probabilities)
        errors = [result.error for result in results]
    else:
        try:
            probs, errors = detector.predict_batch(contracts)
        except ShapeError:
            raise  # a detector at odds with its own label count, not a failed batch
        except Exception as exc:
            probs, errors = None, [_failure(exc)] * len(contracts)
    return probs, errors, (time.perf_counter() - start) / max(len(contracts), 1)


@dataclass(frozen=True)
class Detections:
    """Every detector's output on one batch of contracts, in configuration order."""

    names: tuple[str, ...]
    probs: np.ndarray                              # (psi, n, L); NaN in a failed row
    errors: tuple[tuple[Optional[str], ...], ...]  # per detector, an error or None per contract
    seconds: tuple[float, ...]                     # per detector, its wall time over n

    @property
    def failed(self) -> np.ndarray:
        """(psi, n) mask of the rows a detector failed on."""
        return np.array([[e is not None for e in errors] for errors in self.errors], dtype=bool)


def batch_detect(detectors: Sequence[Detector], contracts: Sequence[Contract],
                 num_labels: int) -> Detections:
    """Every detector on every contract, stacked into one record.

    Compute-bound detectors run in turn on the calling thread: under the
    interpreter lock, threads would add only contention to their Python
    work. Each waiting detector gets one pool thread, which walks the
    contracts in order while the calling thread computes. Raises ShapeError,
    naming the detector, for a column that is not (n, num_labels), and
    AllDetectorsFailed, naming the contract, if one contract fails on every
    detector.
    """
    if not detectors:
        raise AllDetectorsFailed("no detectors configured")
    n = len(contracts)
    with ThreadPoolExecutor(max_workers=max(1, sum(d.waits for d in detectors))) as pool:
        waiting = {i: pool.submit(_column, det, contracts)
                   for i, det in enumerate(detectors) if det.waits}
        columns = {i: _column(det, contracts)
                   for i, det in enumerate(detectors) if not det.waits}
        columns.update((i, future.result()) for i, future in waiting.items())
    names = tuple(d.name for d in detectors)
    probs, errors, seconds = zip(*(columns[i] for i in range(len(detectors))))
    probs = [np.full((n, num_labels), np.nan) if p is None else np.asarray(p, dtype=np.float64)
             for p in probs]
    for name, column, errs in zip(names, probs, errors):
        if column.shape != (n, num_labels) or len(errs) != n:
            raise ShapeError(f"detector {name!r} returned probabilities of shape "
                             f"{column.shape} for {n} contracts, expected {(n, num_labels)}")
    record = Detections(names, np.stack(probs), tuple(map(tuple, errors)), seconds)
    everywhere = np.flatnonzero(record.failed.all(axis=0))
    if everywhere.size:
        j = everywhere[0]
        raise AllDetectorsFailed(
            f"every detector failed on contract {contracts[j].id!r}: "
            + "; ".join(f"{name}: {errs[j]}" for name, errs in zip(names, errors))
        )
    return record


def parallel_detect(detectors: Sequence[Detector], contract: Contract) -> Detections:
    """`batch_detect` on one contract, at the first detector's label count."""
    return batch_detect(detectors, [contract], detectors[0].num_labels if detectors else 0)
