import gc
import threading
import time
import warnings

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
    batch_detect,
    detect,
    parallel_detect,
)
from vulnfuse.errors import AllDetectorsFailed, ShapeError
from vulnfuse import detectors as detectors_mod
from vulnfuse.slora import HashedFeatureExtractor, init_adapter, init_head

from conftest import make_dataset
from test_dense import text_of_length


class TestMock:
    def test_fixed_output(self, taxonomy5):
        result = detect(MockDetector([0.9, 0.1]), Contract(id="c", source="x;"))
        assert result.ok and result.error is None
        assert result.probabilities == (0.9, 0.1)
        assert result.elapsed >= 0.0

    def test_failure_isolated(self):
        result = detect(MockDetector([0.5], fail=True), Contract(id="c", source="x;"))
        assert not result.ok
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
        assert result.ok
        assert set(result.probabilities) <= {0.0, 1.0}

    def test_slora_detector_range(self, taxonomy5):
        layer = init_adapter(16, 2, 0.5, seed=0)
        head = init_head(16, 5, seed=0)
        detector = SloraDetector(layer, head, HashedFeatureExtractor(16, seed=0), num_labels=5)
        result = detect(detector, Contract(id="q", source="function f() public {}"))
        assert result.ok
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
        assert result.ok
        assert result.probabilities == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert ep.requests[0]["body"]["source"] == "x;"
        assert ep.requests[0]["body"]["taxonomy"] == list(taxonomy5)

    def test_wrong_length_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [0.5] * 4})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            result = detect(detector, Contract(id="c", source="x;"))
        assert not result.ok

    def test_out_of_range_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (200, {"probabilities": [2.0, 0, 0, 0, 0]})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            assert detect(detector, Contract(id="c", source="x;")).ok is False

    def test_http_error_fails(self, taxonomy5, mock_endpoint):
        with mock_endpoint(lambda body: (500, {"error": "boom"})) as ep:
            detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=0)
            assert detect(detector, Contract(id="c", source="x;")).ok is False

    def test_unreachable_endpoint_fails(self, taxonomy5):
        detector = ExternalDetector("http://127.0.0.1:9/", taxonomy5, timeout=0.5, retries=0)
        assert detect(detector, Contract(id="c", source="x;")).ok is False

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
        assert result.ok
        assert len(calls) == 2

    def test_retried_http_errors_are_closed(self, taxonomy5, mock_endpoint):
        # an HTTPError holds the open response; dropped unclosed, it leaks a socket
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with mock_endpoint(lambda body: (503, {"error": "busy"})) as ep:
                detector = ExternalDetector(ep.url, taxonomy5, timeout=5.0, retries=1)
                result = detect(detector, Contract(id="c", source="x;"))
            gc.collect()
        assert not result.ok
        assert len(ep.requests) == 2
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

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
        record = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert record.names == ("first", "second", "third")
        assert record.probs.tolist() == [[[0.1, 0.9]], [[0.2, 0.8]], [[0.3, 0.7]]]

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
        record = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert record.failed.tolist() == [[False], [True], [False]]
        assert record.probs[[0, 2]].tolist() == [[[0.5]], [[0.5]]]

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

    def __init__(self, seconds=0.0, num_labels=1):
        super().__init__(num_labels)
        self.seconds = seconds
        self.thread = None

    def predict(self, contract):
        self.thread = threading.get_ident()
        time.sleep(self.seconds)
        return np.full(self.num_labels, 0.5)


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
        record = parallel_detect(detectors, Contract(id="c", source="x;"))
        assert time.perf_counter() - start < 0.18
        assert record.names == ("busy", "remote")


def local_detectors(taxonomy):
    """dense, bm25 and slora over a small labelled corpus of long contracts."""
    rows = [(text_of_length(1800, seed=i) + f" alpha{i % 3} call transfer",
             [i % 2, 0, (i // 2) % 2, 0, 1]) for i in range(8)]
    ds = make_dataset(rows, taxonomy)
    layer = init_adapter(16, 2, 0.5, seed=2)
    head = init_head(16, 5, seed=2)
    return [
        DenseDetector(build_store(ds), num_labels=5),
        Bm25Detector(build_bm25(ds), num_labels=5, top_k=3, vote_threshold=2),
        SloraDetector(layer, head, HashedFeatureExtractor(16, seed=2), num_labels=5),
    ]


def queries(n, short=()):
    """n contracts; those at the `short` positions are shorter than dense's min_len."""
    return [Contract(id=f"q{i}", source="alpha call" if i in short
                     else text_of_length(900 + 300 * i, seed=50 + i) + " call")
            for i in range(n)]


class TestPredictBatch:
    def test_batch_rows_equal_per_contract_predict(self, taxonomy5):
        contracts = queries(5)
        for detector in local_detectors(taxonomy5):
            probs, errors = detector.predict_batch(contracts)
            assert probs.shape == (5, 5) and errors == [None] * 5
            for row, contract in zip(probs, contracts):
                one = detector.predict(contract)
                if detector.name == "slora":
                    assert np.abs(row - one).max() <= 1e-15
                else:
                    assert row.tolist() == one.tolist()

    def test_adapter_runs_one_forward_per_batch(self, taxonomy5, monkeypatch):
        calls = []
        real = detectors_mod.classifier_probs

        def counting(x, layer, head):
            calls.append(x.shape)
            return real(x, layer, head)

        monkeypatch.setattr(detectors_mod, "classifier_probs", counting)
        slora = local_detectors(taxonomy5)[2]
        slora.predict_batch(queries(4))
        assert calls == [(4, 16)]

    def test_default_batch_fails_only_the_raising_rows(self, taxonomy5):
        dense = local_detectors(taxonomy5)[0]
        probs, errors = dense.predict_batch(queries(3, short={1}))
        assert errors[0] is None and errors[2] is None
        assert errors[1].startswith("NoFragments")
        assert np.isnan(probs[1]).all() and not np.isnan(probs[[0, 2]]).any()


class TestBatchDetect:
    def test_short_contract_fails_only_dense_row(self, taxonomy5):
        record = batch_detect(local_detectors(taxonomy5), queries(4, short={2}), 5)
        assert record.names == ("dense", "bm25", "slora")
        assert record.probs.shape == (3, 4, 5)
        assert record.failed.T.tolist() == [[False] * 3, [False] * 3,
                                            [True, False, False], [False] * 3]
        assert record.errors[0][2].startswith("NoFragments")
        assert np.isnan(record.probs[0, 2]).all()
        assert not np.isnan(np.delete(record.probs[0], 2, axis=0)).any()

    def test_results_match_one_contract_at_a_time(self, taxonomy5):
        detectors = local_detectors(taxonomy5)
        contracts = queries(4, short={0})
        record = batch_detect(detectors, contracts, 5)
        for j, contract in enumerate(contracts):
            alone = parallel_detect(detectors, contract)
            assert [errors[j] for errors in record.errors] == [e[0] for e in alone.errors]
            batched, single = record.probs[:, j], alone.probs[:, 0]
            assert (np.isnan(batched) == np.isnan(single)).all()
            assert np.nan_to_num(np.abs(batched - single)).max() <= 1e-15

    def test_failing_mock_fails_only_its_rows(self):
        detectors = [MockDetector([0.1, 0.9], name="good"),
                     MockDetector([0.5, 0.5], name="bad", fail=True),
                     MockDetector([0.3, 0.7], name="slow", delay=0.01)]
        contracts = [Contract(id=f"c{i}", source="x;") for i in range(3)]
        record = batch_detect(detectors, contracts, 2)
        assert record.names == ("good", "bad", "slow")
        assert record.failed.tolist() == [[False] * 3, [True] * 3, [False] * 3]
        assert record.probs[0].tolist() == [[0.1, 0.9]] * 3
        assert record.probs[2].tolist() == [[0.3, 0.7]] * 3
        assert np.isnan(record.probs[1]).all()
        assert all("configured to fail" in error for error in record.errors[1])
        # wall time over n: the slow mock sleeps 0.01 s per contract, 0.03 s in all
        assert min(record.seconds) >= 0.0 and 0.01 <= record.seconds[2] < 0.03

    def test_whole_batch_failure_fails_every_row(self):
        class Broken(Detector):
            name = "broken"

            def predict_batch(self, contracts):
                raise RuntimeError("model not loaded")

        contracts = [Contract(id=f"c{i}", source="x;") for i in range(3)]
        record = batch_detect([Broken(1), MockDetector([0.5])], contracts, 1)
        assert record.errors[0] == ("RuntimeError: model not loaded",) * 3
        assert np.isnan(record.probs[0]).all()
        assert record.errors[1] == (None,) * 3
        assert record.probs[1].tolist() == [[0.5]] * 3

    def test_all_failed_names_the_contract(self):
        class FailsOn(Detector):
            def __init__(self, name, bad_id):
                super().__init__(num_labels=1)
                self.name, self.bad_id = name, bad_id

            def predict(self, contract):
                if contract.id == self.bad_id:
                    raise ValueError("no verdict")
                return np.array([0.5])

        contracts = [Contract(id=cid, source="x;") for cid in ("a", "b", "c")]
        with pytest.raises(AllDetectorsFailed, match="contract 'b'"):
            batch_detect([FailsOn("one", "b"), FailsOn("two", "b")], contracts, 1)

    def test_no_contracts(self):
        record = batch_detect([MockDetector([0.5]), MockDetector([0.5], delay=0.01)], [], 1)
        assert record.probs.shape == (2, 0, 1)
        assert record.errors == ((), ())
        assert record.failed.shape == (2, 0)

    @pytest.mark.parametrize("delay", [0.0, 0.01])   # batched, then walked
    def test_wrong_width_names_the_detector(self, delay):
        detectors = [MockDetector([0.1] * 5, name="ok"),
                     MockDetector([0.7], name="narrow", delay=delay)]
        contracts = [Contract(id=f"c{i}", source="x;") for i in range(2)]
        with pytest.raises(ShapeError, match=r"detector 'narrow'.*\(2, 1\).*\(2, 5\)"):
            batch_detect(detectors, contracts, 5)

    def test_wrong_row_count_names_the_detector(self):
        class Short(Detector):
            name = "short"

            def predict_batch(self, contracts):
                return np.zeros((len(contracts) - 1, 1)), [None] * (len(contracts) - 1)

        with pytest.raises(ShapeError, match="detector 'short'"):
            batch_detect([Short(1)], [Contract(id=f"c{i}", source="x;") for i in range(3)], 1)

    @pytest.mark.parametrize("waits", [False, True])   # batched, then walked
    def test_one_value_is_not_broadcast_to_every_label(self, waits):
        class Narrow(Detector):
            name, predict = "narrow", lambda self, contract: np.array([0.7])

        narrow = Narrow(5)
        narrow.waits = waits
        with pytest.raises(ShapeError, match=r"detector 'narrow'.*\(1,\).*\(5,\)"):
            batch_detect([narrow], [Contract(id="c0", source="x;")], 5)


class TestWaitingDetectorPool:
    def test_one_request_in_flight_per_waiting_detector(self, taxonomy5, mock_endpoint):
        lock = threading.Lock()

        def endpoint_state():
            return {"in_flight": 0, "peak": 0, "sources": []}

        def handler(state):
            def reply(body):
                with lock:
                    state["in_flight"] += 1
                    state["peak"] = max(state["peak"], state["in_flight"])
                    state["sources"].append(body["source"])
                time.sleep(0.05)
                with lock:
                    state["in_flight"] -= 1
                return 200, {"probabilities": [0.5] * 5}
            return reply

        class Recorded(ExternalDetector):
            def predict(self, contract):
                self.threads.add(threading.get_ident())
                return super().predict(contract)

        states = [endpoint_state(), endpoint_state()]
        contracts = [Contract(id=f"c{i}", source=f"s{i};") for i in range(5)]
        with mock_endpoint(handler(states[0])) as ep0, mock_endpoint(handler(states[1])) as ep1:
            remotes = [Recorded(ep.url, taxonomy5, timeout=5.0, retries=0, name=f"r{i}")
                       for i, ep in enumerate((ep0, ep1))]
            for remote in remotes:
                remote.threads = set()
            busy = Busy(num_labels=5)
            start = time.perf_counter()
            record = batch_detect([remotes[0], busy, remotes[1]], contracts, 5)
            wall = time.perf_counter() - start
        assert not record.failed.any()
        for state in states:
            assert state["peak"] == 1
            assert state["sources"] == [c.source for c in contracts]
        caller = threading.get_ident()
        assert busy.thread == caller
        assert all(len(r.threads) == 1 and caller not in r.threads for r in remotes)
        assert remotes[0].threads != remotes[1].threads
        # the two detectors' waits overlap: 5 requests of 50 ms in a row, not 10
        assert wall < 0.45
