"""Sparse low-rank adapter over a frozen quantized base, trained with BCE.

The adapter output is x*W_q + (x*U)*V + x*(S (.) M) where M keeps the
k = floor((1-alpha)*d^2) largest-magnitude entries of S. Only U, V, S and the
sigmoid readout head receive gradient updates; W_q is bit-frozen. At desk
scale this powers a multi-label contract classifier over hashed token
features.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .corpus import Dataset, label_matrix, signed_buckets, word_tokens
from .errors import EmptyDataset, InvalidParameter, ShapeError
from .sgd import bce_loss, fit, sigmoid


# ---------------------------------------------------------------------------
# adapter pieces
# ---------------------------------------------------------------------------

def quantize_base(w: np.ndarray) -> np.ndarray:
    """Symmetric 8-bit per-tensor quantize-dequantize; result is read-only."""
    w = np.asarray(w, dtype=np.float64)
    scale = np.abs(w).max() / 127.0
    if scale == 0.0:
        quantized = np.zeros_like(w)
    else:
        quantized = np.round(w / scale) * scale
    quantized.setflags(write=False)
    return quantized


@dataclass
class AdapterLayer:
    w_q: np.ndarray          # frozen d x d
    u: np.ndarray            # trainable d x r
    v: np.ndarray            # trainable r x d
    s: np.ndarray            # trainable d x d
    alpha: float
    rank: int

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


def check_adapter_params(dim: int, rank: int, alpha: float) -> None:
    """An adapter needs 1 <= rank <= dim and a sparsity level in [0, 1]."""
    if not 1 <= rank <= dim:
        raise InvalidParameter(f"rank must be in [1, {dim}], got {rank}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameter(f"sparsity level must be in [0, 1], got {alpha}")


def init_adapter(dim: int, rank: int, alpha: float, seed: int = 0) -> AdapterLayer:
    """Fresh layer: quantized random base, small U, zero V, tiny uniform S."""
    check_adapter_params(dim, rank, alpha)
    rng = np.random.default_rng(seed)
    w_q = quantize_base(rng.normal(0.0, 1.0 / math.sqrt(dim), (dim, dim)))
    return AdapterLayer(
        w_q=w_q,
        u=rng.normal(0.0, 0.01, (dim, rank)),
        v=np.zeros((rank, dim)),  # zero initial increment, LoRA convention
        s=rng.uniform(-0.01, 0.01, (dim, dim)),
        alpha=float(alpha),
        rank=rank,
    )


def active_entry_count(alpha: float, d2: int) -> int:
    """k = floor((1-alpha)*d^2), evaluated exactly to dodge float rounding."""
    return math.floor((Fraction(1) - Fraction(alpha)) * d2)


def sparsify(s: np.ndarray, alpha: float, k: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Mask keeping the k = floor((1-alpha)*d^2) largest |S| entries.

    Magnitude ties break by row-major position, so the mask is deterministic.
    A caller masking the same shape repeatedly may pass k, computed once.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameter(f"sparsity level must be in [0, 1], got {alpha}")
    if k is None:
        k = active_entry_count(alpha, s.size)
    if k == 0:
        return np.zeros(s.shape, dtype=np.uint8), 0
    magnitude = np.abs(s).ravel()
    kth = np.partition(magnitude, magnitude.size - k)[magnitude.size - k]
    above = magnitude > kth
    mask = above.astype(np.uint8)
    # entries tied with the k-th largest fill the remaining slots in order
    mask[np.flatnonzero(magnitude == kth)[:k - np.count_nonzero(above)]] = 1
    return mask.reshape(s.shape), k


def lowrank_forward(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x*(U*V) computed as (x*U)*V, cost n*d*r + n*r*d."""
    if x.shape[1] != u.shape[0] or u.shape[1] != v.shape[0]:
        raise ShapeError(f"shapes do not conform: x{x.shape} u{u.shape} v{v.shape}")
    return (x @ u) @ v


def sparse_forward(x: np.ndarray, s: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """x*(S (.) M) as one dense matmul over the masked matrix."""
    if x.shape[1] != s.shape[0] or s.shape != mask.shape:
        raise ShapeError(f"shapes do not conform: x{x.shape} s{s.shape} mask{mask.shape}")
    return x @ (s * mask)


def adapter_forward(x: np.ndarray, layer: AdapterLayer) -> np.ndarray:
    """Base output plus the low-rank and sparse increments."""
    mask, _ = sparsify(layer.s, layer.alpha)
    return x @ layer.w_q + lowrank_forward(x, layer.u, layer.v) \
        + sparse_forward(x, layer.s, mask)


def increment_forward_counted(x: np.ndarray, layer: AdapterLayer) -> tuple[np.ndarray, int]:
    """Incremental (adapter-only) forward plus its exact multiply count."""
    n, d = x.shape
    r = layer.rank
    mask, _ = sparsify(layer.s, layer.alpha)
    count = n * d * r        # x @ U
    count += n * r * d       # (xU) @ V
    count += n * int(np.count_nonzero(mask))  # one multiply per sample per active entry
    out = lowrank_forward(x, layer.u, layer.v) + sparse_forward(x, layer.s, mask)
    return out, count


def flop_count(layer: AdapterLayer, n: int) -> int:
    """Multiply count n*(2*d*r + k) of the incremental forward paths."""
    d = layer.dim
    k = active_entry_count(layer.alpha, d * d)
    return n * (2 * d * layer.rank + k)


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

@dataclass
class ReadoutHead:
    w: np.ndarray  # d x L
    b: np.ndarray  # L


def init_head(dim: int, num_labels: int, seed: int = 0) -> ReadoutHead:
    rng = np.random.default_rng(seed)
    return ReadoutHead(w=rng.normal(0.0, 0.01, (dim, num_labels)), b=np.zeros(num_labels))


def classifier_probs(x: np.ndarray, layer: AdapterLayer, head: ReadoutHead) -> np.ndarray:
    return sigmoid(adapter_forward(x, layer) @ head.w + head.b)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 8
    epochs: int = 5
    patience: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise InvalidParameter("learning rate must be non-negative")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidParameter("batch size and epochs must be at least 1")


@dataclass
class TrainResult:
    loss_trace: list[float] = field(default_factory=list)
    val_trace: list[float] = field(default_factory=list)
    epochs_run: int = 0


def batch_loss_and_grads(x, y, layer: AdapterLayer, head: ReadoutHead, mask: np.ndarray,
                         out: Optional[dict] = None):
    """Mean BCE over the batch and gradients for U, V, S, head.

    Masked S entries get exactly zero gradient; W_q gets none at all. With
    `out`, a dict of arrays shaped like the gradients, the gradients are
    written into it and the batch probabilities come back in place of the
    loss, which the training loop takes once per epoch.
    """
    n, num_labels = y.shape
    mask = mask.astype(np.float64)  # one cast serves S and its gradient
    xu = x @ layer.u
    h = x @ layer.w_q + xu @ layer.v + sparse_forward(x, layer.s, mask)
    probs = sigmoid(h @ head.w + head.b)

    fresh = out is None
    if fresh:
        out = dict.fromkeys(("u", "v", "s", "head_w", "head_b"))
    dz = (probs - y) / (n * num_labels)
    out["head_w"] = np.matmul(h.T, dz, out=out["head_w"])
    out["head_b"] = np.add.reduce(dz, 0, out=out["head_b"])
    g = dz @ head.w.T
    out["u"] = np.matmul(x.T, g @ layer.v.T, out=out["u"])
    out["v"] = np.matmul(xu.T, g, out=out["v"])
    out["s"] = np.multiply(x.T @ g, mask, out=out["s"])
    return (bce_loss(y, probs) if fresh else probs), out


def train(layer: AdapterLayer, head: ReadoutHead, features: np.ndarray,
          labels: np.ndarray, config: TrainConfig,
          val: Optional[tuple[np.ndarray, np.ndarray]] = None) -> TrainResult:
    """Mini-batch gradient descent on U, V, S and the head; W_q stays frozen.

    Runs `sgd.fit`, which updates the caller's layer and head arrays in
    place. The mask is recomputed from |S| before every batch. With a
    validation pair and a patience setting, training stops once validation
    loss fails to improve for that many consecutive epochs; the last
    epoch's weights are kept.
    """
    n = features.shape[0]
    if n == 0:
        raise EmptyDataset("no training samples")
    if labels.shape[0] != n:
        raise ShapeError("features and labels must have the same sample count")
    k = active_entry_count(layer.alpha, layer.s.size)
    result = TrainResult()
    best_val = math.inf
    stale = 0

    def step(xb, yb, out):
        mask, _ = sparsify(layer.s, layer.alpha, k)
        return batch_loss_and_grads(xb, yb, layer, head, mask, out)[0]

    def after_epoch() -> bool:
        nonlocal best_val, stale
        if val is None:
            return False
        vloss = bce_loss(val[1].ravel(), classifier_probs(val[0], layer, head).ravel())
        result.val_trace.append(vloss)
        if config.patience is None:
            return False
        if vloss < best_val - 1e-12:
            best_val = vloss
            stale = 0
            return False
        stale += 1
        return stale >= config.patience

    params = {"u": (layer, "u"), "v": (layer, "v"), "s": (layer, "s"),
              "head_w": (head, "w"), "head_b": (head, "b")}
    result.loss_trace = fit(params, step, features, labels, config, after_epoch)
    result.epochs_run = len(result.loss_trace)
    return result


# ---------------------------------------------------------------------------
# contract features
# ---------------------------------------------------------------------------

class HashedFeatureExtractor:
    """Bag of hashed tokens, L2-normalized; keyed by seed for reproducibility."""

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise InvalidParameter("feature dimension must be positive")
        self.dim = dim
        self.seed = seed
        self._key = (seed % (1 << 64)).to_bytes(8, "big")

    def extract(self, source: str) -> np.ndarray:
        # each distinct token is hashed once; integer sums are exact in any order
        counts = Counter(word_tokens(source))
        if not counts:
            return np.zeros(self.dim)
        idx, signs = signed_buckets(counts, self.dim, self._key)
        weights = signs * np.fromiter(counts.values(), np.float64, len(counts))
        vec = np.bincount(idx, weights=weights, minlength=self.dim)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec


def features_from_dataset(dataset: Dataset, extractor: HashedFeatureExtractor):
    """(X, Y) arrays for contracts that carry ground-truth labels."""
    labeled = [c for c in dataset if c.labels is not None]
    if not labeled:
        raise EmptyDataset("dataset has no labeled contracts")
    x = np.stack([extractor.extract(c.source) for c in labeled])
    y = label_matrix(labeled, len(dataset.taxonomy)).astype(np.float64)
    return x, y


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, layer: AdapterLayer, head: ReadoutHead,
                    extractor: HashedFeatureExtractor, taxonomy: Sequence[str]) -> None:
    np.savez(
        path,
        w_q=layer.w_q, u=layer.u, v=layer.v, s=layer.s,
        alpha=np.float64(layer.alpha), rank=np.int64(layer.rank),
        head_w=head.w, head_b=head.b,
        feat_dim=np.int64(extractor.dim), feat_seed=np.int64(extractor.seed),
        taxonomy=np.frombuffer(json.dumps(list(taxonomy)).encode("utf-8"), dtype=np.uint8),
    )


def load_checkpoint(path):
    with np.load(path) as data:
        w_q = data["w_q"].copy()
        w_q.setflags(write=False)
        layer = AdapterLayer(
            w_q=w_q, u=data["u"].copy(), v=data["v"].copy(), s=data["s"].copy(),
            alpha=float(data["alpha"]), rank=int(data["rank"]),
        )
        head = ReadoutHead(w=data["head_w"].copy(), b=data["head_b"].copy())
        extractor = HashedFeatureExtractor(dim=int(data["feat_dim"]), seed=int(data["feat_seed"]))
        taxonomy = tuple(json.loads(bytes(data["taxonomy"]).decode("utf-8")))
    return layer, head, extractor, taxonomy
