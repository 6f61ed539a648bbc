"""The shared training loop against the two per-batch loops it replaced.

`oracle_train`, `oracle_train_meta` and `oracle_sigmoid` are the adapter
loop, the verifier loop and the split-by-sign logistic function as they were
before `sgd.fit`; the new code must reproduce their parameters and loss
traces bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vulnfuse import meta, sgd, slora
from vulnfuse.errors import NumericError
from vulnfuse.meta import MetaTrainConfig, MetaTrainResult, init_meta, train_meta
from vulnfuse.slora import (
    ReadoutHead,
    TrainConfig,
    TrainResult,
    adapter_forward,
    init_adapter,
    init_head,
    lowrank_forward,
    sparse_forward,
    sparsify,
    train,
)

BCE_EPS = 1e-7
META_FIELDS = ("w", "w1", "b1", "w2", "b2", "w3", "b3")


# ---------------------------------------------------------------------------
# oracles: the code before the shared loop
# ---------------------------------------------------------------------------

def oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_bce(y, yhat):
    p = np.clip(yhat, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def oracle_adapter_grads(x, y, layer, head, mask):
    n, num_labels = y.shape
    h = x @ layer.w_q + lowrank_forward(x, layer.u, layer.v) + sparse_forward(x, layer.s, mask)
    probs = oracle_sigmoid(h @ head.w + head.b)
    loss = oracle_bce(y, probs)
    dz = (probs - y) / (n * num_labels)
    g = dz @ head.w.T
    return loss, {"u": x.T @ (g @ layer.v.T), "v": (x @ layer.u).T @ g,
                  "s": (x.T @ g) * mask, "head_w": h.T @ dz, "head_b": dz.sum(axis=0)}


def oracle_train(layer, head, features, labels, config, val=None):
    rng = np.random.default_rng(config.seed)
    eta = config.learning_rate
    n = features.shape[0]
    result = TrainResult()
    best_val = math.inf
    stale = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            mask, _ = sparsify(layer.s, layer.alpha)
            loss, grads = oracle_adapter_grads(features[idx], labels[idx], layer, head, mask)
            total += loss * len(idx)
            layer.u -= eta * grads["u"]
            layer.v -= eta * grads["v"]
            layer.s -= eta * grads["s"]
            head.w -= eta * grads["head_w"]
            head.b -= eta * grads["head_b"]
        result.loss_trace.append(total / n)
        result.epochs_run += 1
        if val is not None:
            probs = oracle_sigmoid(adapter_forward(val[0], layer) @ head.w + head.b)
            vloss = oracle_bce(val[1].ravel(), probs.ravel())
            result.val_trace.append(vloss)
            if config.patience is not None:
                if vloss < best_val - 1e-12:
                    best_val = vloss
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        break
    return result


def oracle_meta_grads(learner, raw, y):
    n = raw.shape[0]
    fused = raw * learner.w
    z1 = fused @ learner.w1.T + learner.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ learner.w2.T + learner.b2
    a2 = np.maximum(z2, 0.0)
    p = oracle_sigmoid(a2 @ learner.w3.T + learner.b3)[:, 0]
    loss = oracle_bce(y, p)
    d3 = ((p - y) / n)[:, None]
    d2 = (d3 @ learner.w3) * (z2 > 0.0)
    d1 = (d2 @ learner.w2) * (z1 > 0.0)
    return loss, {"w": ((d1 @ learner.w1) * raw).sum(axis=0),
                  "w1": d1.T @ fused, "b1": d1.sum(axis=0),
                  "w2": d2.T @ a1, "b2": d2.sum(axis=0),
                  "w3": d3.T @ a2, "b3": d3.sum(axis=0)}


def oracle_train_meta(rows, targets, config, learner):
    rng = np.random.default_rng(config.seed)
    n = rows.shape[0]
    result = MetaTrainResult()
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = oracle_meta_grads(learner, rows[idx], targets[idx])
            total += loss * len(idx)
            eta = config.learning_rate
            for name in META_FIELDS:
                getattr(learner, name).__isub__(eta * grads[name])
        result.loss_trace.append(total / n)
    return learner, result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    """Bit-equal arrays; a NaN need only meet a NaN, since NaN payloads carry no value."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    keep = ~(np.isnan(a) & np.isnan(b))
    return a[keep].tobytes() == b[keep].tobytes()


def same_finite_trace(got, want) -> bool:
    """Bit-equal loss traces with no NaN or infinity in them."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return bool(np.isfinite(got).all()) and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def first_non_finite(trace):
    """Index of the first epoch whose loss is NaN or infinite, or None."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(trace, dtype=np.float64)))
    return int(bad[0]) if bad.size else None


def unit_rows(rng, n, dim):
    """L2-normalized feature rows, like the hashed contract features."""
    x = rng.normal(0.0, 1.0, (n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def copy_meta(learner):
    return meta.MetaLearner(**{name: getattr(learner, name).copy() for name in META_FIELDS})


learning_rates = st.one_of(st.sampled_from([0.0, 0.05, 0.2, 1.0]), st.floats(0.0, 2.0))
batch_sizes = st.integers(1, 100)  # above n for small n; ragged last batches otherwise


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, 709.0, -709.0,
                    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                    np.finfo(np.float64).max, -np.finfo(np.float64).max, 36.7, -36.7])


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(z=arrays(np.float64, st.integers(0, 40),
                    elements=st.floats(allow_nan=False, allow_subnormal=True, width=64)))
    @example(z=SPECIAL)
    def test_bitwise_equal_to_split_by_sign(self, z):
        with np.errstate(all="ignore"):
            want = oracle_sigmoid(z)
        with np.errstate(all="raise"):
            got = sgd.sigmoid(z)
        assert same_bits(got, want)

    def test_matrix_input(self):
        z = np.concatenate([SPECIAL, SPECIAL[::-1]]).reshape(-1, 2)
        with np.errstate(all="ignore"):
            want = oracle_sigmoid(z)
        with np.errstate(all="raise"):
            assert same_bits(sgd.sigmoid(z), want)

    def test_nan_maps_to_nan(self):
        with np.errstate(all="raise"):
            got = sgd.sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(got[0]) and np.isnan(got[2]) and got[1] == 1.0 / (1.0 + math.exp(-1.0))

    def test_slora_and_meta_share_it(self):
        assert slora.sigmoid is sgd.sigmoid and meta.sigmoid is sgd.sigmoid


# ---------------------------------------------------------------------------
# the verifier loop
# ---------------------------------------------------------------------------

class TestTrainMetaMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 90), psi=st.integers(1, 4), h1=st.integers(1, 8),
           h2=st.integers(1, 6), learning_rate=learning_rates, batch_size=batch_sizes,
           epochs=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=90, psi=3, h1=16, h2=8, learning_rate=0.2, batch_size=16, epochs=4, seed=1)
    def test_bitwise_equal(self, n, psi, h1, h2, learning_rate, batch_size, epochs, seed):
        rng = np.random.default_rng(seed)
        rows = rng.choice([0.0, 0.5, 1.0, rng.random()], (n, psi))
        targets = rng.integers(0, 2, n).astype(np.float64)
        config = MetaTrainConfig(learning_rate=learning_rate, batch_size=batch_size,
                                 epochs=epochs, seed=seed)
        learner = init_meta(psi=psi, h1=h1, h2=h2, seed=seed)
        reference = copy_meta(learner)
        arrays_before = {name: getattr(learner, name) for name in META_FIELDS}

        with np.errstate(all="ignore"):
            _, want = oracle_train_meta(rows, targets, config, reference)
        diverged = first_non_finite(want.loss_trace)
        if diverged is not None:
            # the shared loop stops in the epoch where the old loop's loss turned non-finite
            with np.errstate(all="ignore"), \
                    pytest.raises(NumericError, match=rf"in epoch {diverged}$"):
                train_meta(rows, targets, config, learner=learner)
            return
        trained, result = train_meta(rows, targets, config, learner=learner)

        assert trained is learner
        assert same_finite_trace(result.loss_trace, want.loss_trace)
        assert len(result.loss_trace) == epochs
        for name in META_FIELDS:
            # the caller's own arrays hold the trained values
            assert getattr(learner, name) is arrays_before[name]
            assert same_bits(arrays_before[name], getattr(reference, name)), name

    def test_default_learner_matches_oracle(self):
        rng = np.random.default_rng(3)
        rows, targets = rng.random((40, 3)), rng.integers(0, 2, 40).astype(np.float64)
        config = MetaTrainConfig(learning_rate=0.3, batch_size=7, epochs=5, seed=9)
        learner, result = train_meta(rows, targets, config)
        reference, want = oracle_train_meta(rows, targets, config, init_meta(psi=3, seed=9))
        assert same_finite_trace(result.loss_trace, want.loss_trace)
        for name in META_FIELDS:
            assert same_bits(getattr(learner, name), getattr(reference, name))


# ---------------------------------------------------------------------------
# the adapter loop
# ---------------------------------------------------------------------------

class TestAdapterTrainMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 90), dim=st.integers(2, 12), rank_frac=st.floats(0.0, 1.0),
           alpha=st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
           num_labels=st.integers(1, 4), learning_rate=learning_rates, batch_size=batch_sizes,
           epochs=st.integers(1, 5), n_val=st.integers(0, 10),
           patience=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
    @example(n=90, dim=12, rank_frac=0.5, alpha=0.9, num_labels=4, learning_rate=1.0,
             batch_size=8, epochs=5, n_val=9, patience=1, seed=1)
    def test_bitwise_equal(self, n, dim, rank_frac, alpha, num_labels, learning_rate,
                           batch_size, epochs, n_val, patience, seed):
        rng = np.random.default_rng(seed)
        rank = 1 + int(rank_frac * (dim - 1))
        x = unit_rows(rng, n, dim)
        y = rng.integers(0, 2, (n, num_labels)).astype(np.float64)
        val = None
        if n_val:
            val = (unit_rows(rng, n_val, dim),
                   rng.integers(0, 2, (n_val, num_labels)).astype(np.float64))
        config = TrainConfig(learning_rate=learning_rate, batch_size=batch_size, epochs=epochs,
                             patience=patience, seed=seed)
        layer, head = init_adapter(dim, rank, alpha, seed=seed), init_head(dim, num_labels, seed)
        # larger starting S so the mask moves between batches
        layer.s[:] = rng.normal(0.0, 0.5, layer.s.shape)
        ref_layer = slora.AdapterLayer(w_q=layer.w_q, u=layer.u.copy(), v=layer.v.copy(),
                                       s=layer.s.copy(), alpha=alpha, rank=rank)
        ref_head = ReadoutHead(w=head.w.copy(), b=head.b.copy())
        fields = ((layer, "u"), (layer, "v"), (layer, "s"), (head, "w"), (head, "b"))
        arrays_before = [getattr(owner, attr) for owner, attr in fields]

        # small dims at high learning rates can diverge; the shared loop must then
        # stop in the epoch where the old loop's loss turned non-finite
        with np.errstate(all="ignore"):
            want = oracle_train(ref_layer, ref_head, x, y, config, val=val)
            diverged = first_non_finite(want.loss_trace)
            if diverged is not None:
                with pytest.raises(NumericError, match=rf"in epoch {diverged}$"):
                    train(layer, head, x, y, config, val=val)
                return
            result = train(layer, head, x, y, config, val=val)

        assert result.epochs_run == want.epochs_run == len(result.loss_trace)
        assert same_finite_trace(result.loss_trace, want.loss_trace)
        assert same_bits(result.val_trace, want.val_trace)
        refs = (ref_layer.u, ref_layer.v, ref_layer.s, ref_head.w, ref_head.b)
        for (owner, attr), before, ref in zip(fields, arrays_before, refs):
            assert getattr(owner, attr) is before
            assert same_bits(before, ref), attr

    def test_patience_stops_early_like_oracle(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(0, 1, (30, 6)), rng.integers(0, 2, (30, 2)).astype(np.float64)
        val = (rng.normal(0, 1, (5, 6)), rng.integers(0, 2, (5, 2)).astype(np.float64))
        config = TrainConfig(learning_rate=3.0, batch_size=4, epochs=40, patience=1, seed=2)
        layer, head = init_adapter(6, 2, 0.5, seed=2), init_head(6, 2, seed=2)
        ref_layer, ref_head = init_adapter(6, 2, 0.5, seed=2), init_head(6, 2, seed=2)
        result = train(layer, head, x, y, config, val=val)
        want = oracle_train(ref_layer, ref_head, x, y, config, val=val)
        assert result.epochs_run == want.epochs_run < 40
        assert same_finite_trace(result.loss_trace, want.loss_trace)
        assert same_bits(result.val_trace, want.val_trace)
        assert same_bits(layer.s, ref_layer.s)


# ---------------------------------------------------------------------------
# the loop itself
# ---------------------------------------------------------------------------

class TestFit:
    def test_fields_restored_when_step_raises(self):
        owner = SimpleNamespace(a=np.zeros(3), b=np.ones((2, 2)))
        a, b = owner.a, owner.b

        def step(xb, yb, out):
            assert owner.a.base is not None and owner.a.base is owner.b.base  # one flat buffer
            raise RuntimeError("boom")

        config = SimpleNamespace(learning_rate=0.1, batch_size=2, epochs=1, seed=0)
        with pytest.raises(RuntimeError):
            sgd.fit({"a": (owner, "a"), "b": (owner, "b")}, step,
                    np.zeros((4, 1)), np.zeros(4), config)
        assert owner.a is a and owner.b is b

    def test_one_update_per_batch(self):
        owner = SimpleNamespace(p=np.zeros(2))
        calls = []

        def step(xb, yb, out):
            calls.append(len(xb))
            out["p"][:] = [1.0, -2.0]
            return np.full(len(xb), 0.5)

        config = SimpleNamespace(learning_rate=0.5, batch_size=4, epochs=2, seed=0)
        trace = sgd.fit({"p": (owner, "p")}, step, np.zeros((10, 1)), np.zeros(10), config)
        assert calls == [4, 4, 2] * 2
        assert owner.p.tolist() == [-3.0, 6.0]  # six steps of -0.5 * (1, -2)
        assert trace == pytest.approx([math.log(2.0)] * 2, rel=1e-15)

    def test_diverged_adapter_raises(self):
        """Dim 3, rank 3, alpha 0.9, learning rate 1, batch size 1, 36 unit-norm rows, seed 0."""
        rng = np.random.default_rng(0)
        x = unit_rows(rng, 36, 3)
        y = rng.integers(0, 2, (36, 1)).astype(np.float64)
        config = TrainConfig(learning_rate=1.0, batch_size=1, epochs=10, seed=0)
        layer, head = init_adapter(3, 3, 0.9, seed=0), init_head(3, 1, seed=0)
        u = layer.u
        with np.errstate(all="ignore"):
            want = oracle_train(init_adapter(3, 3, 0.9, seed=0), init_head(3, 1, seed=0),
                                x, y, config)
            with pytest.raises(NumericError, match="in epoch 2$"):
                train(layer, head, x, y, config)
        assert first_non_finite(want.loss_trace) == 2
        assert layer.u is u  # the caller's arrays are put back

    def test_diverged_verifier_raises(self):
        rng = np.random.default_rng(0)
        rows, targets = rng.random((40, 3)), rng.integers(0, 2, 40).astype(np.float64)
        config = MetaTrainConfig(learning_rate=1e300, batch_size=4, epochs=5, seed=0)
        learner = init_meta(psi=3, seed=0)
        w1 = learner.w1
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="in epoch 0$"):
            train_meta(rows, targets, config, learner=learner)
        assert learner.w1 is w1
