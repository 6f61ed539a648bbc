import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnfuse import meta
from vulnfuse.corpus import Contract
from vulnfuse.detectors import Detections, MockDetector, batch_detect
from vulnfuse.errors import (
    AllDetectorsFailed,
    EmptyDataset,
    NumericError,
    ShapeError,
)
from vulnfuse.meta import (
    MetaLearner,
    MetaTrainConfig,
    adapt_to_task,
    init_meta,
    load_meta,
    meta_forward,
    rows_from_results,
    save_meta,
    train_meta,
    verify,
)
from vulnfuse.slora import sigmoid


def record(per_contract, num_labels=1):
    """Detections from per-contract lists of per-detector probabilities; None is a failure."""
    psi = len(per_contract[0]) if per_contract else 3
    probs = np.full((psi, len(per_contract), num_labels), np.nan)
    errors = [[None] * len(per_contract) for _ in range(psi)]
    for j, results in enumerate(per_contract):
        for d, p in enumerate(results):
            if p is None:
                errors[d][j] = "RuntimeError: boom"
            else:
                probs[d, j] = p
    return Detections(tuple(f"d{d}" for d in range(psi)), probs,
                      tuple(map(tuple, errors)), (0.0,) * psi)


def passthrough_learner():
    """Hand-set learner whose output crosses 0.5 exactly when input[0] does."""
    return MetaLearner(
        w=np.ones(3),
        w1=np.array([[1.0, 0.0, 0.0]]), b1=np.zeros(1),
        w2=np.array([[1.0]]), b2=np.zeros(1),
        w3=np.array([[4.0]]), b3=np.array([-2.0]),
    )


def oracle_forward(learner, raw) -> float:
    """The per-cell verifier of earlier versions: fuse one label's predictions, then GEMV."""
    x = learner.w * np.asarray(raw, dtype=np.float64)
    h1 = np.maximum(learner.w1 @ x + learner.b1, 0.0)
    h2 = np.maximum(learner.w2 @ h1 + learner.b2, 0.0)
    return float(sigmoid(learner.w3 @ h2 + learner.b3)[0])


class TestFuse:
    """The fusion weights scale each detector's prediction inside `meta_forward`."""

    def test_identity_weights(self):
        learner = init_meta(psi=3, seed=20)
        raw = np.array([[0.3, 0.6, 0.9]])
        assert meta_forward(learner, raw)[0] == pytest.approx(oracle_forward(learner, raw[0]),
                                                              abs=1e-15)

    def test_zero_weights(self):
        learner = init_meta(psi=3, seed=20)
        learner.w = np.zeros(3)
        got = meta_forward(learner, np.random.default_rng(0).random((6, 3)))
        assert np.all(got == got[0])
        assert got[0] == pytest.approx(oracle_forward(learner, np.zeros(3)), abs=1e-15)

    def test_hand_example(self):
        learner = MetaLearner(
            w=np.array([2.0, 0.5, 1.0]),
            w1=np.array([[1.0, 2.0, 4.0]]), b1=np.zeros(1),
            w2=np.array([[1.0]]), b2=np.zeros(1),
            w3=np.array([[1.0]]), b3=np.zeros(1),
        )
        # fused input [1.0, 0.5, 0.3]; unit weights would give the logit 3.7
        got = meta_forward(learner, np.array([[0.5, 1.0, 0.3]]))[0]
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-3.2)), abs=1e-15)

    def test_linear_in_predictions(self):
        rng = np.random.default_rng(0)
        # biases keep every ReLU active, so the logit is affine in w * raw
        learner = MetaLearner(
            w=rng.normal(0, 1, 4),
            w1=rng.normal(0, 0.1, (4, 4)), b1=np.full(4, 10.0),
            w2=rng.normal(0, 0.1, (3, 4)), b2=np.full(3, 10.0),
            w3=rng.normal(0, 0.1, (1, 3)), b3=np.zeros(1),
        )
        a, b = rng.random(4), rng.random(4)
        p = meta_forward(learner, np.stack([np.zeros(4), a, b, a + b]))
        z = np.log(p / (1.0 - p)) - np.log(p[0] / (1.0 - p[0]))
        assert z[3] == pytest.approx(z[1] + z[2], abs=1e-9)

    def test_shape_error(self):
        for shape in ((2, 4), (3,), (1, 2)):
            with pytest.raises(ShapeError):
                meta_forward(init_meta(psi=3, seed=0), np.ones(shape))


class TestForward:
    def test_all_zero_learner(self):
        learner = MetaLearner(
            w=np.zeros(3),
            w1=np.zeros((4, 3)), b1=np.zeros(4),
            w2=np.zeros((2, 4)), b2=np.zeros(2),
            w3=np.zeros((1, 2)), b3=np.zeros(1),
        )
        assert meta_forward(learner, np.zeros((1, 3))).tolist() == [0.5]

    def test_hand_forward_pass(self):
        learner = MetaLearner(
            w=np.ones(3),
            w1=np.array([[2.0, 0.0, 0.0]]), b1=np.zeros(1),
            w2=np.array([[1.0]]), b2=np.zeros(1),
            w3=np.array([[1.0]]), b3=np.zeros(1),
        )
        got = meta_forward(learner, np.array([[1.0, 0.0, 0.0]]))[0]
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert got == pytest.approx(0.88080, abs=1e-5)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        learner = init_meta(psi=3, seed=2)
        p = meta_forward(learner, rng.normal(0, 5, (50, 3)))
        assert p.shape == (50,)
        assert np.all((0.0 < p) & (p < 1.0))


class TestTrain:
    def test_recovers_perfect_detector(self):
        rng = np.random.default_rng(3)
        n = 1000
        truth = rng.integers(0, 2, n).astype(np.float64)
        rows = np.stack([truth, rng.random(n), rng.random(n)], axis=1)
        learner, _ = train_meta(rows[:700], truth[:700],
                                MetaTrainConfig(learning_rate=0.1, epochs=300, seed=0))
        pred = (meta_forward(learner, rows[700:]) >= 0.5).astype(np.float64)
        y = truth[700:]
        tp = float(np.sum(pred * y))
        fp = float(np.sum(pred * (1 - y)))
        fn = float(np.sum((1 - pred) * y))
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.98  # detector 1 scores 1.0; allow the stated 0.02 slack

    def test_zero_learning_rate(self):
        rng = np.random.default_rng(4)
        rows = rng.random((50, 3))
        targets = rng.integers(0, 2, 50).astype(np.float64)
        learner = init_meta(psi=3, seed=5)
        before = {k: getattr(learner, k).copy()
                  for k in ("w", "w1", "b1", "w2", "b2", "w3", "b3")}
        train_meta(rows, targets, MetaTrainConfig(learning_rate=0.0, epochs=3, seed=5),
                   learner=learner)
        for key, value in before.items():
            assert np.array_equal(getattr(learner, key), value)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        rows = rng.random((80, 3))
        targets = rng.integers(0, 2, 80).astype(np.float64)
        traces = []
        for _ in range(2):
            _, result = train_meta(rows, targets,
                                   MetaTrainConfig(learning_rate=0.05, epochs=10, seed=7))
            traces.append(result.loss_trace)
        assert traces[0] == traces[1]

    def test_empty_rows(self):
        with pytest.raises(EmptyDataset):
            train_meta(np.zeros((0, 3)), np.zeros(0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        rows = rng.random((12, 3))
        targets = rng.integers(0, 2, 12).astype(np.float64)
        learner = init_meta(psi=3, h1=4, h2=3, seed=9)
        # nudge biases off zero so no ReLU sits exactly at its kink
        learner.b1 += 0.1
        learner.b2 += 0.1

        from vulnfuse.meta import _batch_grads

        _, grads = _batch_grads(learner, rows, targets)

        def loss():
            l, _ = _batch_grads(learner, rows, targets)
            return l

        step = 1e-6
        for name in ("w", "w1", "b1", "w2", "b2", "w3", "b3"):
            array = getattr(learner, name)
            numeric = np.zeros_like(array)
            flat = array.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss()
                flat[i] = orig - step
                down = loss()
                flat[i] = orig
                numeric.ravel()[i] = (up - down) / (2 * step)
            denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(numeric)), 1e-8)
            err = np.abs(grads[name] - numeric) / denom
            active = np.maximum(np.abs(grads[name]), np.abs(numeric)) > 1e-10
            worst = err[active].max() if np.any(active) else 0.0
            assert worst <= 1e-4, f"{name}: {worst}"


class TestAdapt:
    @staticmethod
    def quadratic(target):
        def loss_and_grad(v):
            diff = v - target
            return 0.5 * float(diff @ diff), diff
        return loss_and_grad

    def test_scalar_closed_form(self):
        got = adapt_to_task(np.array([2.0]), self.quadratic(np.array([0.0])), lam=1.0)
        assert abs(got[0] - 1.0) <= 1e-6

    def test_large_lambda_anchors(self):
        w = np.array([0.3, -1.2, 2.0])
        got = adapt_to_task(w, self.quadratic(np.zeros(3)), lam=1e9)
        assert np.linalg.norm(got - w) <= 1e-6

    def test_zero_lambda_free(self):
        target = np.array([1.5, -0.5])
        got = adapt_to_task(np.zeros(2), self.quadratic(target), lam=0.0)
        assert np.linalg.norm(got - target) <= 1e-6

    def test_matches_closed_form_randomly(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            size = int(rng.integers(1, 6))
            a = rng.normal(0, 2, size)
            w = rng.normal(0, 2, size)
            lam = float(rng.uniform(0, 10))
            got = adapt_to_task(w, self.quadratic(a), lam=lam)
            want = (a + lam * w) / (1.0 + lam)
            assert np.abs(got - want).max() <= 1e-6

    def test_distance_monotone_in_lambda(self):
        a = np.array([3.0, -2.0])
        w = np.array([0.5, 0.5])
        distances = [
            np.linalg.norm(adapt_to_task(w, self.quadratic(a), lam=lam) - w)
            for lam in (0.0, 0.5, 1.0, 4.0, 100.0)
        ]
        assert all(later <= earlier + 1e-9
                   for earlier, later in zip(distances, distances[1:]))

    def test_non_finite_loss(self):
        def bad(v):
            return float("nan"), np.zeros_like(v)
        with pytest.raises(NumericError):
            adapt_to_task(np.ones(2), bad, lam=1.0)


class TestVerify:
    def test_passthrough_follows_first_detector(self):
        learner = passthrough_learner()
        labels, probs = verify(learner, record([[[0.9, 0.2, 0.5], [0.0] * 3, [1.0] * 3]], 3))
        assert labels.tolist() == [[1, 0, 1]]  # 0.5 hits the >= boundary
        assert probs.shape == (1, 3)

    def test_boundary_is_inclusive(self):
        labels, probs = verify(passthrough_learner(), record([[[0.5], [0.0], [0.0]]]))
        assert probs[0, 0] == 0.5
        assert labels.tolist() == [[1]]

    def test_failed_detector_imputed(self):
        _, probs = verify(passthrough_learner(), record([[None, [0.9], [0.9]]]))
        # imputed 0.5 reaches the pass-through threshold exactly
        assert probs[0, 0] == 0.5

    def test_nan_without_error_is_not_imputed(self):
        # a diverged detector that reports no error must not pass for an uninformative one
        _, probs = verify(passthrough_learner(), record([[[np.nan], [0.9], [0.9]]]))
        assert np.isnan(probs[0, 0])

    def test_all_failed(self):
        # the record verify reads cannot hold a contract that every detector failed on
        detectors = [MockDetector([0.5], name=name, fail=True) for name in ("a", "b")]
        with pytest.raises(AllDetectorsFailed):
            batch_detect(detectors, [Contract(id="c", source="x;")], 1)

    def test_trained_consensus_positive(self):
        rng = np.random.default_rng(11)
        n = 600
        truth = rng.integers(0, 2, n).astype(np.float64)
        noisy = np.clip(truth + rng.normal(0, 0.2, n), 0, 1)
        rows = np.stack([noisy, truth, np.clip(truth + rng.normal(0, 0.3, n), 0, 1)], axis=1)
        learner, _ = train_meta(rows, truth, MetaTrainConfig(learning_rate=0.1, epochs=200, seed=1))
        labels, _ = verify(learner, record([[[1.0], [1.0], [1.0]]]))
        assert labels.tolist() == [[1]]

    def test_shape_mismatch_rejected(self):
        learner = passthrough_learner()
        with pytest.raises(ShapeError, match="fuses 3 detectors"):
            verify(learner, record([[[0.9], [0.9]]]))
        detectors = [MockDetector([0.9], name="a"), MockDetector([0.9], name="b", fail=True),
                     MockDetector([0.9, 0.1], name="c")]
        with pytest.raises(ShapeError, match=r"detector 'c'.*\(1, 2\)"):
            batch_detect(detectors, [Contract(id="x", source="x;")], 1)

    def test_one_forward_call_for_all_contracts(self, monkeypatch):
        calls = []
        real = meta.meta_forward

        def counting(learner, raw):
            calls.append(np.shape(raw))
            return real(learner, raw)

        monkeypatch.setattr(meta, "meta_forward", counting)
        per_contract = [[[0.1] * 5, None, [0.9] * 5], [None, [0.3] * 5, [0.7] * 5]]
        labels, probs = verify(init_meta(psi=3, seed=3), record(per_contract, 5))
        assert labels.shape == probs.shape == (2, 5)
        assert calls == [(10, 3)]

    def test_all_failed_on_one_contract_of_many(self):
        class FailsOnSecond(MockDetector):
            def predict(self, contract):
                if contract.id == "second":
                    raise RuntimeError("no verdict")
                return super().predict(contract)

        detectors = [FailsOnSecond([0.9], name=name) for name in ("a", "b", "c")]
        contracts = [Contract(id=cid, source="x;") for cid in ("first", "second")]
        with pytest.raises(AllDetectorsFailed, match="contract 'second'"):
            batch_detect(detectors, contracts, 1)

    def test_no_contracts(self):
        labels, probs = verify(passthrough_learner(), record([], 4))
        assert labels.shape == probs.shape == (0, 4)

    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), num_labels=st.integers(1, 6))
    def test_batch_matches_one_contract_at_a_time(self, seed, n, num_labels):
        rng = np.random.default_rng(seed)
        learner = init_meta(psi=3, seed=seed)
        per_contract = [
            [None if rng.random() < 0.3 and i else rng.random(num_labels).tolist()
             for i in range(3)]
            for _ in range(n)
        ]
        labels, probs = verify(learner, record(per_contract, num_labels), 0.5)
        for results, row_labels, row_probs in zip(per_contract, labels, probs):
            one_labels, one_probs = verify(learner, record([results], num_labels), 0.5)
            assert np.abs(row_probs - one_probs[0]).max() <= 1e-15
            assert (row_labels == one_labels[0]).all() or np.abs(row_probs - 0.5).min() <= 1e-15


class TestVerifyMatchesPerCellOracle:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        psi=st.integers(1, 4),
        num_labels=st.integers(1, 6),
        data=st.data(),
        threshold=st.floats(0.05, 0.95),
    )
    def test_verify_matches_oracle(self, seed, psi, num_labels, data, threshold):
        rng = np.random.default_rng(seed)
        learner = init_meta(psi=psi, h1=int(rng.integers(1, 17)), h2=int(rng.integers(1, 9)),
                            seed=seed)
        learner.w = rng.normal(1.0, 0.5, psi)
        learner.b1 += rng.normal(0, 0.3, learner.b1.shape)
        learner.b2 += rng.normal(0, 0.3, learner.b2.shape)
        probability = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        failed = data.draw(st.lists(st.booleans(), min_size=psi, max_size=psi)
                           .filter(lambda f: not all(f)))
        results = [
            None if fail else data.draw(st.lists(probability, min_size=num_labels,
                                                 max_size=num_labels))
            for fail in failed
        ]
        labels, probs = verify(learner, record([results], num_labels), threshold)
        raw = np.array([[0.5] * num_labels if r is None else r for r in results])
        want = [oracle_forward(learner, raw[:, j]) for j in range(num_labels)]
        assert labels.shape == probs.shape == (1, num_labels)
        for got, expected, bit in zip(probs[0], want, labels[0]):
            assert abs(got - expected) <= 1e-15
            if abs(expected - threshold) > 1e-15:
                assert bit == (1 if expected >= threshold else 0)


class TestVerifyImputesFailures:
    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), psi=st.integers(1, 4),
           num_labels=st.integers(1, 6), data=st.data())
    def test_failed_equals_explicit_half(self, seed, psi, num_labels, data):
        """A failed detector verifies exactly as one that returned 0.5 for every label."""
        learner = init_meta(psi=psi, seed=seed)
        probability = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        contracts = data.draw(st.integers(1, 5), label="contracts")
        failed, imputed = [], []
        for _ in range(contracts):
            flags = data.draw(st.lists(st.booleans(), min_size=psi, max_size=psi)
                              .filter(lambda f: not all(f)), label="failed")
            probs = [data.draw(st.lists(probability, min_size=num_labels, max_size=num_labels))
                     for _ in range(psi)]
            failed.append([None if fail else p for fail, p in zip(flags, probs)])
            imputed.append([[0.5] * num_labels if fail else p for fail, p in zip(flags, probs)])
        got = verify(learner, record(failed, num_labels))
        want = verify(learner, record(imputed, num_labels))
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()


class TestRowsAndPersistence:
    def test_rows_from_results(self, taxonomy5):
        per_contract = [
            [[1, 0, 0, 0, 0], None],
            [[0, 1, 0, 0, 0], [0, 1, 0, 0, 0]],
        ]
        truths = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
        rows, targets = rows_from_results(record(per_contract, 5), truths)
        assert rows.shape == (10, 2)
        assert targets.tolist() == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0]
        assert rows[0].tolist() == [1.0, 0.5]  # failed detector imputed
        assert rows[6].tolist() == [1.0, 1.0]  # second contract, second label
        with pytest.raises(ShapeError, match="align"):
            rows_from_results(record(per_contract, 5), truths[:1])

    @pytest.mark.parametrize("length", [1, 2])
    def test_rows_reject_wrong_length(self, length):
        detectors = [MockDetector([0.7] * length, name="a"), MockDetector([0.1] * 5, name="b")]
        with pytest.raises(ShapeError, match="detector 'a'"):
            rows_from_results(batch_detect(detectors, [Contract(id="c", source="x;")], 5),
                              [(1, 0, 0, 0, 0)])

    def test_save_load_roundtrip(self, tmp_path):
        learner = init_meta(psi=3, seed=12)
        path = tmp_path / "meta.npz"
        save_meta(path, learner, ("dense", "bm25", "slora"), threshold=0.4)
        loaded, threshold, detectors = load_meta(path)
        assert threshold == 0.4
        assert detectors == ("dense", "bm25", "slora")
        for key in ("w", "w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(getattr(loaded, key), getattr(learner, key))
