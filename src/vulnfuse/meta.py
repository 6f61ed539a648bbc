"""Meta-learning verification: weighted fusion of base detectors plus MLP gate.

One shared learner is applied independently to every (contract, label) cell:
the base detectors' probabilities for that label are fused elementwise with a
learnable weight vector and pushed through a two-hidden-layer ReLU MLP ending
in a sigmoid. A proximal adaptation step is exposed for tuning the fusion
weights toward a new task while staying anchored to the trained values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import decode_strings, encode_strings
from .detectors import Detections
from .errors import EmptyDataset, InvalidParameter, NumericError, ShapeError
from .sgd import bce_loss, check_schedule, fit, sigmoid

DEFAULT_HIDDEN1 = 16
DEFAULT_HIDDEN2 = 8
DEFAULT_THRESHOLD = 0.5
IMPUTED_PROBABILITY = 0.5  # stands in for a failed detector
FIELDS = ("w", "w1", "b1", "w2", "b2", "w3", "b3")  # the trained arrays of a MetaLearner


@dataclass
class MetaLearner:
    w: np.ndarray   # fusion weights, length psi
    w1: np.ndarray  # h1 x psi
    b1: np.ndarray
    w2: np.ndarray  # h2 x h1
    b2: np.ndarray
    w3: np.ndarray  # 1 x h2
    b3: np.ndarray

    @property
    def psi(self) -> int:
        return self.w.size


def check_params(h1: int, h2: int, threshold: float = DEFAULT_THRESHOLD) -> None:
    """Hidden sizes must be positive and the decision threshold in [0, 1]."""
    if h1 < 1 or h2 < 1:
        raise InvalidParameter("hidden sizes must be positive")
    if not 0.0 <= threshold <= 1.0:
        raise InvalidParameter(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class MetaParams:
    """The `meta` config section: hidden sizes, decision threshold, training schedule."""
    hidden1: int = DEFAULT_HIDDEN1
    hidden2: int = DEFAULT_HIDDEN2
    threshold: float = DEFAULT_THRESHOLD
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 300

    def __post_init__(self):
        check_params(self.hidden1, self.hidden2, self.threshold)
        check_schedule(self.learning_rate, self.batch_size, self.epochs)


def init_meta(psi: int = 3, h1: int = DEFAULT_HIDDEN1, h2: int = DEFAULT_HIDDEN2,
              seed: int = 0) -> MetaLearner:
    if psi < 1:
        raise InvalidParameter("psi must be positive")
    check_params(h1, h2)
    rng = np.random.default_rng(seed)
    return MetaLearner(
        w=np.ones(psi),
        w1=rng.normal(0.0, np.sqrt(2.0 / psi), (h1, psi)),
        b1=np.zeros(h1),
        w2=rng.normal(0.0, np.sqrt(2.0 / h1), (h2, h1)),
        b2=np.zeros(h2),
        w3=rng.normal(0.0, np.sqrt(2.0 / h2), (1, h2)),
        b3=np.zeros(1),
    )


def _forward_batch(learner: MetaLearner, raw: np.ndarray):
    fused = raw * learner.w
    z1 = fused @ learner.w1.T + learner.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ learner.w2.T + learner.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ learner.w3.T + learner.b3
    return fused, z1, a1, z2, a2, sigmoid(z3)[:, 0]


def meta_forward(learner: MetaLearner, raw) -> np.ndarray:
    """Probabilities in (0, 1) for an (n, psi) matrix of raw base predictions.

    The fusion weights are applied inside; training runs this same forward.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != learner.psi:
        raise ShapeError(f"learner fuses {learner.psi} detectors, got predictions of shape "
                         f"{raw.shape}")
    return _forward_batch(learner, raw)[-1]


@dataclass
class MetaTrainResult:
    loss_trace: list[float] = field(default_factory=list)


def _batch_grads(learner: MetaLearner, raw, y, out: Optional[dict] = None):
    """Mean BCE over the batch and the gradient of every learner field.

    With `out`, a dict of arrays shaped like the fields, the gradients are
    written into it and the batch probabilities come back in place of the
    loss, which the training loop takes once per epoch.
    """
    fresh = out is None
    if fresh:
        out = dict.fromkeys(FIELDS)
    n = raw.shape[0]
    fused, z1, a1, z2, a2, p = _forward_batch(learner, raw)
    d3 = ((p - y) / n)[:, None]                      # n x 1
    out["w3"] = np.matmul(d3.T, a2, out=out["w3"])
    out["b3"] = np.add.reduce(d3, 0, out=out["b3"])
    d2 = (d3 @ learner.w3) * (z2 > 0.0)              # n x h2
    out["w2"] = np.matmul(d2.T, a1, out=out["w2"])
    out["b2"] = np.add.reduce(d2, 0, out=out["b2"])
    d1 = (d2 @ learner.w2) * (z1 > 0.0)              # n x h1
    out["w1"] = np.matmul(d1.T, fused, out=out["w1"])
    out["b1"] = np.add.reduce(d1, 0, out=out["b1"])
    out["w"] = np.add.reduce((d1 @ learner.w1) * raw, 0, out=out["w"])  # fusion weights
    return (bce_loss(y, p) if fresh else p), out


def train_meta(rows: np.ndarray, targets: np.ndarray, params: MetaParams = MetaParams(),
               seed: int = 0,
               learner: Optional[MetaLearner] = None) -> tuple[MetaLearner, MetaTrainResult]:
    """Fit the learner by mini-batch gradient descent on BCE; seed-deterministic.

    `rows` holds one length-psi base-prediction vector per (contract, label)
    pair; `targets` the matching truth bits. Runs `sgd.fit`, the adapter's
    loop too, on the schedule in `params`; `seed` draws the batches and, when
    no learner is passed in, a learner of the hidden sizes in `params`. A
    learner passed in is trained in place and returned.
    """
    rows = np.asarray(rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if rows.size == 0:
        raise EmptyDataset("no meta-training rows")
    if rows.shape[0] != targets.shape[0]:
        raise ShapeError("rows and targets must have the same length")
    if learner is None:
        learner = init_meta(rows.shape[1], params.hidden1, params.hidden2, seed)
    trace = fit({name: (learner, name) for name in FIELDS},
                lambda xb, yb, out: _batch_grads(learner, xb, yb, out)[0],
                rows, targets, params, seed)
    return learner, MetaTrainResult(loss_trace=trace)


def adapt_to_task(w: np.ndarray, task_loss_and_grad: Callable, lam: float,
                  tol: float = 1e-6, max_iter: int = 100000) -> np.ndarray:
    """Minimize task loss plus (lam/2)*||v - w||^2 by backtracking gradient descent.

    `task_loss_and_grad(v)` must return the pair (loss, gradient). Iterates
    until the proximal objective's gradient norm drops to `tol`.
    """
    if lam < 0:
        raise InvalidParameter("regularization coefficient must be non-negative")
    w = np.asarray(w, dtype=np.float64)
    v = w.copy()

    def objective(point):
        loss, grad = task_loss_and_grad(point)
        if not np.all(np.isfinite(np.atleast_1d(loss))):
            raise NumericError("task loss is not finite")
        diff = point - w
        return loss + 0.5 * lam * float(diff @ diff), np.asarray(grad) + lam * diff

    step = 1.0
    value, grad = objective(v)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        while True:
            candidate = v - step * grad
            cand_value, cand_grad = objective(candidate)
            if cand_value <= value - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-18:
                return v
        v, value, grad = candidate, cand_value, cand_grad
        step *= 2.0  # probe a larger step again after a success
    return v


def _rows(record: Detections) -> np.ndarray:
    """(n * L, psi): each contract's label rows in turn; 0.5 where a detector failed.

    A NaN from a detector that reported no error is not imputed.
    """
    raw = np.where(record.failed[:, :, None], IMPUTED_PROBABILITY, record.probs)
    return raw.transpose(1, 2, 0).reshape(-1, len(record.names))


def verify(learner: MetaLearner, record: Detections,
           threshold: float = DEFAULT_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    """Fuse the base predictions into (n, L) arrays of final labels and probabilities.

    One forward pass covers every (contract, label) cell. Failed detectors
    contribute the uninformative probability 0.5. A label is set when the
    meta probability reaches the threshold (>= rule).
    """
    probs = meta_forward(learner, _rows(record)).reshape(record.probs.shape[1:])
    return (probs >= threshold).astype(np.int64), probs


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_meta(path, learner: MetaLearner, detectors: Sequence[str],
              threshold: float = DEFAULT_THRESHOLD) -> None:
    """Store the learner, its threshold, and the names of the detectors whose
    outputs are its inputs, in input order."""
    np.savez(
        path,
        w=learner.w, w1=learner.w1, b1=learner.b1, w2=learner.w2, b2=learner.b2,
        w3=learner.w3, b3=learner.b3, threshold=np.float64(threshold),
        detectors=encode_strings(detectors),
    )


def load_meta(path) -> tuple[MetaLearner, float, tuple[str, ...]]:
    with np.load(path) as data:
        learner = MetaLearner(
            w=data["w"].copy(), w1=data["w1"].copy(), b1=data["b1"].copy(),
            w2=data["w2"].copy(), b2=data["b2"].copy(),
            w3=data["w3"].copy(), b3=data["b3"].copy(),
        )
        threshold = float(data["threshold"])
        detectors = decode_strings(data["detectors"])
    return learner, threshold, detectors


def export_rows_csv(path, rows: np.ndarray, targets: np.ndarray,
                    detector_names: Sequence[str]) -> None:
    """Audit dump of the meta-training matrix."""
    header = ",".join(list(detector_names) + ["truth"])
    lines = [header]
    for row, t in zip(rows, targets):
        lines.append(",".join(f"{v:.6f}" for v in row) + f",{int(t)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rows_from_results(record: Detections, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build (rows, targets) from (n, L) truths: one row per (contract, label) cell."""
    targets = np.asarray(truths, dtype=np.float64)
    if targets.shape != record.probs.shape[1:]:
        raise ShapeError("results and truths must align")
    if not targets.size:
        raise EmptyDataset("no meta-training rows")
    return _rows(record), targets.ravel()
