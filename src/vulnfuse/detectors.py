"""Uniform detector interface and concurrent dispatch.

Every detector maps a contract to a per-label probability vector. Retrieval
detectors emit their binary votes as 0.0/1.0; the adapter classifier emits
sigmoid outputs; the external detector forwards to an HTTP endpoint speaking
the JSON wire protocol documented in the README. A failing detector yields a
failed result and never blocks the others.
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
from .errors import AllDetectorsFailed, SchemaError
from .slora import AdapterLayer, HashedFeatureExtractor, ReadoutHead, classifier_probs


@dataclass(frozen=True)
class DetectionResult:
    detector_name: str
    probabilities: Optional[tuple[float, ...]]  # None when status == "failed"
    elapsed: float
    status: str  # "ok" | "failed"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Detector:
    """Base detector: subclasses implement predict(contract) -> probabilities."""

    name = "detector"
    # True for a detector whose predict mostly waits (on a network reply or a
    # sleep) rather than computes; parallel_detect gives only these a thread.
    waits = False

    def __init__(self, num_labels: int):
        self.num_labels = num_labels

    def predict(self, contract: Contract) -> np.ndarray:
        raise NotImplementedError


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
        hits = bm25_retrieve(contract, self.index, self.top_k)
        vote = bm25_vote(hits, self.vote_threshold, num_labels=self.num_labels)
        return np.array(vote.bits, dtype=np.float64)


class DenseDetector(Detector):
    name = "dense"

    def __init__(self, store: VectorStore, num_labels: int,
                 params: SegmentationParams = SegmentationParams()):
        super().__init__(num_labels)
        self.store = store
        self.params = params
        self.embedder = HashingEmbedder(store.dim)

    def predict(self, contract):
        hits = dense_retrieve(contract, self.store, self.params, self.embedder)
        vote = dense_vote(hits, num_labels=self.num_labels)
        return np.array(vote.bits, dtype=np.float64)


class SloraDetector(Detector):
    name = "slora"

    def __init__(self, layer: AdapterLayer, head: ReadoutHead,
                 extractor: HashedFeatureExtractor, num_labels: int):
        super().__init__(num_labels)
        self.layer = layer
        self.head = head
        self.extractor = extractor

    def predict(self, contract):
        x = self.extractor.extract(contract.source)[None, :]
        return classifier_probs(x, self.layer, self.head)[0]


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
                last = exc
        raise last


def detect(detector: Detector, contract: Contract) -> DetectionResult:
    """Run one detector, returning a failed result instead of raising."""
    start = time.perf_counter()
    try:
        probs = detector.predict(contract)
    except Exception as exc:
        return DetectionResult(
            detector_name=detector.name,
            probabilities=None,
            elapsed=time.perf_counter() - start,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    return DetectionResult(
        detector_name=detector.name,
        probabilities=tuple(float(p) for p in probs),
        elapsed=time.perf_counter() - start,
        status="ok",
    )


def parallel_detect(detectors: Sequence[Detector], contract: Contract) -> list[DetectionResult]:
    """Run every detector on `contract`; results follow configuration order.

    Detectors that wait run in pool threads, while the compute-bound ones run
    in turn on the calling thread: under the interpreter lock, threads would
    add only contention to their Python work.
    """
    if not detectors:
        raise AllDetectorsFailed("no detectors configured")
    results = [None] * len(detectors)
    with ThreadPoolExecutor(max_workers=len(detectors)) as pool:
        waiting = {i: pool.submit(detect, det, contract)
                   for i, det in enumerate(detectors) if det.waits}
        for i, det in enumerate(detectors):
            if i not in waiting:
                results[i] = detect(det, contract)
        for i, future in waiting.items():
            results[i] = future.result()
    if all(r.status == "failed" for r in results):
        raise AllDetectorsFailed(
            f"every detector failed on contract {contract.id!r}: "
            + "; ".join(f"{r.detector_name}: {r.error}" for r in results)
        )
    return results
