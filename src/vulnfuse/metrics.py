"""Multi-label evaluation: subset accuracy and micro-averaged P/R/F1."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .corpus import LabelVector
from .errors import ShapeError


@dataclass(frozen=True)
class MetricSet:
    accuracy: float   # exact-match over whole label vectors
    precision: float  # micro-averaged over all (contract, label) cells
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


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


def compute_metrics(predictions: Sequence[LabelVector],
                    truths: Sequence[LabelVector]) -> MetricSet:
    """Pool TP/FP/FN over every cell; F1 = 2PR/(P+R), 0 when P+R = 0."""
    if len(predictions) != len(truths):
        raise ShapeError(f"{len(predictions)} predictions vs {len(truths)} truths")
    tp = fp = fn = 0
    exact = 0
    for pred, truth in zip(predictions, truths):
        if len(pred) != len(truth):
            raise ShapeError("prediction/truth label length mismatch")
        if pred.bits == truth.bits:
            exact += 1
        for p, t in zip(pred.bits, truth.bits):
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
