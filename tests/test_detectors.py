import threading
import time

import numpy as np
import pytest

from vulnfuse.bm25 import build_bm25
from vulnfuse.corpus import Contract
from vulnfuse.dense import build_store
from vulnfuse.detectors import (
    Bm25Detector,
    DenseDetector,
    Detector,
    ExternalDetector,
    MockDetector,
    SloraDetector,
    detect,
    parallel_detect,
)
from vulnfuse.errors import AllDetectorsFailed
from vulnfuse.slora import HashedFeatureExtractor, init_adapter, init_head

from conftest import make_dataset
from test_dense import text_of_length


class TestMock:
    def test_fixed_output(self, taxonomy5):
        result = detect(MockDetector([0.9, 0.1]), Contract(id="c", source="x;"))
        assert result.status == "ok"
        assert result.probabilities == (0.9, 0.1)
        assert result.elapsed >= 0.0

    def test_failure_isolated(self):
        result = detect(MockDetector([0.5], fail=True), Contract(id="c", source="x;"))
        assert result.status == "failed"
        assert result.probabilities is None
        assert "mock" in result.error


class TestLocalDetectors:
    def test_bm25_vote_cast_to_probabilities(self, taxonomy5):
        ds = make_dataset(
            [(f"alpha bravo shared{i} common", [1, 0, 1, 0, 0]) for i in range(5)],
            taxonomy5,
        )
        detector = Bm25Detector(build_bm25(ds), num_labels=5, top_k=5, vote_threshold=4)
        result = detect(detector, Contract(id="q", source="alpha bravo common"))
        assert result.probabilities == (1.0, 0.0, 1.0, 0.0, 0.0)

    def test_dense_detector_probabilities_binary(self, taxonomy5):
        rows = [(text_of_length(2000, seed=i), [0, 1, 0, 0, 0]) for i in range(4)]
        store = build_store(make_dataset(rows, taxonomy5))
        detector = DenseDetector(store, num_labels=5)
        result = detect(detector, Contract(id="q", source=text_of_length(2000, seed=9)))
        assert result.status == "ok"
        assert set(result.probabilities) <= {0.0, 1.0}

    def test_slora_detector_range(self, taxonomy5):
        layer = init_adapter(16, 2, 0.5, seed=0)
        head = init_head(16, 5, seed=0)
        detector = SloraDetector(layer, head, HashedFeatureExtractor(16, seed=0), num_labels=5)
        result = detect(detector, Contract(id="q", source="function f() public {}"))
        assert result.status == "ok"
        assert all(0.0 < p < 1.0 for p in result.probabilities)

    def test_repeat_detection_identical(self, taxonomy5):
        layer = init_adapter(16, 2, 0.5, seed=1)
        head = init_head(16, 5, seed=1)
        detector = SloraDetector(layer, head, HashedFeatureExtractor(16, seed=1), num_labels=5)
        contract = Contract(id="q", source="function g() public {}")
        first = detect(detector, contract)
        second = detect(detector, contract)
        assert first.probabilities == second.probabilities


class TestExternal:
    def test_valid_reply(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [0.2, 0.4, 0.6, 0.8, 1.0]})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            result = detect(detector, Contract(id="c", source="x;"))
        assert result.status == "ok"
        assert result.probabilities == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert ep.requests[0]["body"]["source"] == "x;"
        assert ep.requests[0]["body"]["taxonomy"] == list(taxonomy5)

    def test_wrong_length_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [0.5] * 4})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            result = detect(detector, Contract(id="c", source="x;"))
        assert result.status == "failed"

    def test_out_of_range_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [2.0, 0, 0, 0, 0]})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            assert detect(detector, Contract(id="c", source="x;")).status == "failed"

    def test_http_error_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (500, {"error": "boom"})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            assert detect(detector, Contract(id="c", source="x;")).status == "failed"

    def test_unreachable_endpoint_fails(self, taxonomy5):
        detector = ExternalDetector("http://127.0.0.1:9/", taxonomy5, timeout=0.5, retries=0)
        assert detect(detector, Contract(id="c", source="x;")).status == "failed"

    def test_retry_then_success(self, taxonomy5, mock_endpoint):
        calls = []

        def flaky(body):
            calls.append(1)
            if len(calls) == 1:
                return 500, {"error": "first"}
            return 200, {"probabilities": [0.1] * 5}

        with mock_endpoint(flaky) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=1)
            result = detect(detector, Contract(id="c", source="x;"))
        assert result.status == "ok"
        assert len(calls) == 2

    def test_auth_header_forwarded(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [0.0] * 5})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0,
                                        auth_header="Bearer token123")
            detect(detector, Contract(id="c", source="x;"))
        assert ep.requests[0]["headers"].get("Authorization") == "Bearer token123"


class TestParallel:
    def test_results_follow_configuration_order(self):
        detectors = [
            MockDetector([0.1, 0.9], name="first"),
            MockDetector([0.2, 0.8], name="second", delay=0.05),
            MockDetector([0.3, 0.7], name="third"),
        ]
        results = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert [r.detector_name for r in results] == ["first", "second", "third"]
        assert results[1].probabilities == (0.2, 0.8)

    def test_concurrent_execution(self):
        detectors = [MockDetector([0.5], name=f"m{i}", delay=0.1) for i in range(2)]
        start = time.perf_counter()
        parallel_detect(detectors, Contract(id="c", source="x;"))
        assert time.perf_counter() - start < 0.18

    def test_one_failure_isolated(self):
        detectors = [
            MockDetector([0.5], name="ok1"),
            MockDetector([0.5], name="bad", fail=True),
            MockDetector([0.5], name="ok2"),
        ]
        results = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert [r.status for r in results] == ["ok", "failed", "ok"]

    def test_all_failed_raises(self):
        detectors = [MockDetector([0.5], name=f"bad{i}", fail=True) for i in range(3)]
        with pytest.raises(AllDetectorsFailed):
            parallel_detect(detectors, Contract(id="c", source="x;"))

    def test_no_detectors_raises(self):
        with pytest.raises(AllDetectorsFailed):
            parallel_detect([], Contract(id="c", source="x;"))


class Busy(Detector):
    """Compute-bound stand-in: holds its thread for `seconds`, records which."""

    name = "busy"

    def __init__(self, seconds=0.0):
        super().__init__(num_labels=1)
        self.seconds = seconds
        self.thread = None

    def predict(self, contract):
        self.thread = threading.get_ident()
        time.sleep(self.seconds)
        return np.array([0.5])


class TestInlineDispatch:
    def test_waiting_detectors_marked(self, taxonomy5):
        assert ExternalDetector("http://127.0.0.1:9/", taxonomy5).waits
        assert MockDetector([0.5], delay=0.1).waits
        assert not MockDetector([0.5]).waits
        assert not Busy().waits

    def test_compute_bound_detector_on_calling_thread(self):
        busy = Busy()
        parallel_detect([MockDetector([0.5], delay=0.01), busy], Contract(id="c", source="x;"))
        assert busy.thread == threading.get_ident()

    def test_wait_overlaps_local_work(self):
        detectors = [Busy(seconds=0.1), MockDetector([0.5], name="remote", delay=0.1)]
        start = time.perf_counter()
        results = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert time.perf_counter() - start < 0.18
        assert [r.detector_name for r in results] == ["busy", "remote"]
