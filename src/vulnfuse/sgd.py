"""The loss and the mini-batch gradient-descent loop shared by both trainers.

`fit` drives the adapter (`slora.train`) and the verifier (`meta.train_meta`)
alike: one permutation per epoch, one gather of the permuted rows, and one
update `flat -= eta * grad` per batch over a flat buffer whose views stand in
for the trained fields while the loop runs.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, NumericError, ShapeError

BCE_EPS = 1e-7


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|z|, so it never overflows."""
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _bce_terms(y: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    p = np.clip(yhat, BCE_EPS, 1.0 - BCE_EPS)
    return y * np.log(p) + (1.0 - y) * np.log(1.0 - p)


def bce_loss(y, yhat) -> float:
    """Multi-label binary cross-entropy, mean over labels."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ShapeError(f"label/prediction length mismatch: {y.shape} vs {yhat.shape}")
    return float(-np.mean(_bce_terms(y, yhat)))


def check_schedule(learning_rate: float, batch_size: int, epochs: int) -> None:
    """A schedule needs a learning rate >= 0 and at least one row per batch and one epoch."""
    if not learning_rate >= 0:
        raise InvalidParameter(f"learning rate must be non-negative, got {learning_rate}")
    if batch_size < 1 or epochs < 1:
        raise InvalidParameter("batch size and epochs must be at least 1")


def fit(params: dict, step: Callable, x: np.ndarray, y: np.ndarray, schedule, seed: int,
        after_epoch: Optional[Callable[[], bool]] = None) -> list[float]:
    """Mini-batch gradient descent; returns the mean training loss of each epoch.

    `params` maps each gradient name to the `(owner, attribute)` holding that
    parameter. While the loop runs, those attributes are views of one flat
    buffer; afterwards the trained values are copied into the caller's
    original arrays, which are put back. `step(xb, yb, out)` writes the
    batch's gradients into the views in `out` and returns the batch
    probabilities, from which the loss is taken once per epoch. `schedule`
    supplies learning_rate, batch_size and epochs; `seed` draws the epochs'
    permutations. `after_epoch` returning True ends training early. Raises
    NumericError when an epoch's loss is not finite, so a diverged run is
    never saved.
    """
    fields = list(params.values())
    originals = [getattr(owner, attr) for owner, attr in fields]
    flat = np.concatenate([a.ravel() for a in originals])
    grad = np.empty_like(flat)
    bounds = np.cumsum([0] + [a.size for a in originals])
    views = [flat[lo:hi].reshape(a.shape) for lo, hi, a in zip(bounds, bounds[1:], originals)]
    out = {name: grad[lo:hi].reshape(a.shape)
           for name, lo, hi, a in zip(params, bounds, bounds[1:], originals)}
    for (owner, attr), view in zip(fields, views):
        setattr(owner, attr, view)

    rng = np.random.default_rng(seed)
    eta, batch_size = schedule.learning_rate, schedule.batch_size
    n = x.shape[0]
    starts = range(0, n, batch_size)
    probs = np.empty(y.shape)
    trace = []
    try:
        for epoch in range(schedule.epochs):
            order = rng.permutation(n)
            xe, ye = x[order], y[order]
            for start in starts:
                stop = start + batch_size
                probs[start:stop] = step(xe[start:stop], ye[start:stop], out)
                flat -= eta * grad
            trace.append(_epoch_loss(ye, probs, batch_size))
            if not np.isfinite(trace[-1]):
                raise NumericError(f"training loss is not finite in epoch {epoch}")
            if after_epoch is not None and after_epoch():
                break
    finally:
        for (owner, attr), original, view in zip(fields, originals, views):
            original[...] = view
            setattr(owner, attr, original)
    return trace


def _epoch_loss(y: np.ndarray, probs: np.ndarray, batch_size: int) -> float:
    """Sample-weighted mean of the per-batch BCE, summed in batch order.

    Each batch's mean is one reduction over its own rows, as a per-batch
    `bce_loss` call would make it, so the sum keeps the same bits.
    """
    n = y.shape[0]
    terms = _bce_terms(y, probs).reshape(n, -1)
    width = terms.shape[1]
    full = n - n % batch_size
    losses = (-(np.add.reduce(terms[:full].reshape(-1, batch_size * width), 1)
                / (batch_size * width))).tolist()
    sizes = [batch_size] * len(losses)
    if full < n:
        losses.append(float(-(np.add.reduce(terms[full:], None) / ((n - full) * width))))
        sizes.append(n - full)
    total = 0.0
    for loss, size in zip(losses, sizes):
        total += loss * size
    return total / n
