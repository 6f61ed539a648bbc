import pytest

from vulnfuse.corpus import LabelVector
from vulnfuse.errors import ShapeError
from vulnfuse.metrics import EvalSummary, MetricSet, compute_metrics


def vecs(rows):
    return [LabelVector(bits=tuple(r)) for r in rows]


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
