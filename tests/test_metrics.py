import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnfuse.errors import ShapeError
from vulnfuse.metrics import EvalSummary, MetricSet, compute_metrics


def vecs(rows):
    return np.array(rows, dtype=np.int64)


def oracle_metrics(predictions, truths):
    """The per-cell counting loop that compute_metrics replaced, kept as a reference."""
    tp = fp = fn = 0
    exact = 0
    for pred, truth in zip(predictions, truths):
        if tuple(pred) == tuple(truth):
            exact += 1
        for p, t in zip(pred, truth):
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif t and not p:
                fn += 1
    n = len(predictions)
    accuracy = exact / n if n else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricSet(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


# two (n, L) 0/1 arrays of one shape, n = 0 included
PAIRS = st.tuples(st.integers(0, 12), st.integers(1, 6)).flatmap(lambda shape: st.tuples(
    *[st.lists(st.integers(0, 1), min_size=shape[0] * shape[1],
               max_size=shape[0] * shape[1]).map(
        lambda cells: np.array(cells, dtype=np.int64).reshape(shape))] * 2))


class TestComputeMetrics:
    def test_hand_computed_micro_counts(self):
        # TP=1 FP=1 FN=0 -> precision .5, recall 1, F1 2/3; no exact match
        m = compute_metrics(vecs([[1, 1]]), vecs([[1, 0]]))
        assert m.accuracy == 0.0
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_identical_lists(self):
        rows = [[1, 0, 1], [0, 0, 0], [1, 1, 1]]
        m = compute_metrics(vecs(rows), vecs(rows))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_zero_predictions_with_positives(self):
        m = compute_metrics(vecs([[0, 0], [0, 0]]), vecs([[1, 0], [0, 1]]))
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.accuracy == 0.0

    def test_all_zero_both_sides(self):
        m = compute_metrics(vecs([[0, 0]]), vecs([[0, 0]]))
        assert m.accuracy == 1.0
        assert m.f1 == 0.0  # P+R = 0 convention

    def test_subset_accuracy_requires_exact_match(self):
        m = compute_metrics(vecs([[1, 1], [1, 0]]), vecs([[1, 1], [0, 0]]))
        assert m.accuracy == 0.5

    def test_micro_pooling_across_contracts(self):
        # pooled: TP=2 FP=1 FN=1
        m = compute_metrics(vecs([[1, 1], [1, 0]]), vecs([[1, 0], [1, 1]]))
        assert m.precision == pytest.approx(2.0 / 3.0)
        assert m.recall == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics(vecs([[1]]), vecs([[1], [0]]))

    def test_vector_length_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics(vecs([[1, 0]]), vecs([[1]]))

    @settings(max_examples=500, deadline=None, database=None)
    @given(pair=PAIRS)
    def test_matches_per_cell_loop(self, pair):
        pred, truth = pair
        got, want = compute_metrics(pred, truth), oracle_metrics(pred.tolist(), truth.tolist())
        for name in ("accuracy", "precision", "recall", "f1"):
            assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name
            assert type(getattr(got, name)) is float

    def test_rates_bounded(self):
        import random
        rng = random.Random(1)
        preds = vecs([[rng.randint(0, 1) for _ in range(4)] for _ in range(30)])
        truths = vecs([[rng.randint(0, 1) for _ in range(4)] for _ in range(30)])
        m = compute_metrics(preds, truths)
        for value in (m.accuracy, m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
        if m.precision + m.recall > 0:
            want = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(want, abs=1e-12)


class TestEvalSummary:
    def test_metrics_dict_excludes_timing(self):
        summary = EvalSummary()
        summary.per_detector["bm25"] = MetricSet(1.0, 1.0, 1.0, 1.0)
        summary.verified = MetricSet(0.5, 0.6, 0.7, 0.65)
        summary.mean_seconds = {"bm25": 0.001}
        metrics = summary.metrics_dict()
        assert "bm25" in metrics and "verified" in metrics
        assert "mean_seconds" not in str(metrics)
