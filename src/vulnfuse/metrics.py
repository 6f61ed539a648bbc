"""Multi-label evaluation: subset accuracy and micro-averaged P/R/F1."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class MetricSet:
    accuracy: float   # exact-match over whole label vectors
    precision: float  # micro-averaged over all (contract, label) cells
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalSummary:
    per_detector: dict = field(default_factory=dict)   # name -> MetricSet
    verified: MetricSet | None = None
    mean_seconds: dict = field(default_factory=dict)   # name -> mean wall seconds

    def metrics_dict(self) -> dict:
        """Deterministic part: metric values only, no timing."""
        out = {name: m.as_dict() for name, m in sorted(self.per_detector.items())}
        if self.verified is not None:
            out["verified"] = self.verified.as_dict()
        return out


def compute_metrics(predictions, truths) -> MetricSet:
    """Pool TP/FP/FN over every cell of two (n, L) 0/1 arrays; F1 = 2PR/(P+R), 0 when P+R = 0."""
    pred, truth = np.asarray(predictions, dtype=bool), np.asarray(truths, dtype=bool)
    if pred.ndim != 2 or pred.shape != truth.shape:
        raise ShapeError(f"predictions of shape {pred.shape} vs truths of shape {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(truth & ~pred))
    exact = int(np.count_nonzero((pred == truth).all(axis=1)))
    n = len(pred)
    accuracy = exact / n if n else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricSet(accuracy=accuracy, precision=precision, recall=recall, f1=f1)
