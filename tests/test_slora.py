import hashlib
import math

import numpy as np
import pytest

from vulnfuse.errors import EmptyDataset, InvalidParameter, ShapeError
from vulnfuse.slora import (
    AdapterLayer,
    HashedFeatureExtractor,
    ReadoutHead,
    SloraParams,
    active_entry_count,
    adapter_forward,
    batch_loss_and_grads,
    bce_loss,
    classifier_probs,
    flop_count,
    increment_forward_counted,
    init_adapter,
    init_head,
    load_checkpoint,
    lowrank_forward,
    quantize_base,
    save_checkpoint,
    sparse_forward,
    sparsify,
    train,
)


def spaced_sparse_matrix(rng, dim, scale=1.0):
    """|S| values with gaps far wider than any finite-difference step."""
    magnitudes = np.linspace(0.1, 1.0, dim * dim) * scale
    signs = rng.choice([-1.0, 1.0], dim * dim)
    values = rng.permutation(magnitudes) * signs
    return values.reshape(dim, dim)


class TestQuantize:
    def test_zero_matrix(self):
        assert np.array_equal(quantize_base(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_grid_aligned_identity(self):
        # max|W| = 127*scale with a power-of-two scale keeps everything exact
        scale = 1.0 / 32.0
        ints = np.array([[-127, -100, -50, 0, 5],
                         [10, 25, 40, 60, 80],
                         [90, 100, 110, 120, 127],
                         [-5, -10, -20, -30, -40],
                         [1, 2, 3, 4, 6]])
        w = ints * scale
        assert np.array_equal(quantize_base(w), w)

    def test_half(self):
        assert quantize_base(np.array([[0.5]]))[0, 0] == 0.5

    def test_result_readonly(self):
        w_q = quantize_base(np.ones((2, 2)))
        with pytest.raises(ValueError):
            w_q[0, 0] = 2.0

    def test_range_preserved(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, (8, 8))
        w_q = quantize_base(w)
        assert np.abs(w_q - w).max() <= np.abs(w).max() / 127.0 / 2.0 + 1e-15


class TestSparsify:
    def test_full_sparsity(self):
        mask, k = sparsify(np.ones((4, 4)), 1.0)
        assert k == 0 and mask.sum() == 0

    def test_no_sparsity(self):
        mask, k = sparsify(np.ones((4, 4)), 0.0)
        assert k == 16 and mask.sum() == 16

    def test_hand_example(self):
        s = np.array([[1.0, -3.0], [2.0, 0.5]])
        mask, k = sparsify(s, 0.5)
        assert k == 2
        assert np.array_equal(mask, np.array([[0, 1], [1, 0]], dtype=np.uint8))

    def test_popcount_matches_k(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            alpha = float(rng.uniform(0.0, 1.0))
            s = rng.normal(0, 1, (dim, dim))
            mask, k = sparsify(s, alpha)
            assert int(mask.sum()) == k == active_entry_count(alpha, dim * dim)

    def test_float_boundary_alphas(self):
        # floor((1-alpha)*d^2) must be exact even when 1-alpha is inexact
        assert active_entry_count(0.7, 10) == 3
        assert active_entry_count(0.99, 4096) == 40
        assert active_entry_count(0.9, 1024) == 102

    def test_tie_broken_row_major(self):
        s = np.full((2, 2), 0.5)
        mask, k = sparsify(s, 0.5)
        assert k == 2
        assert np.array_equal(mask, np.array([[1, 1], [0, 0]], dtype=np.uint8))

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameter):
            sparsify(np.ones((2, 2)), 1.5)


class TestForward:
    def test_lowrank_zero_u(self):
        x = np.ones((3, 4))
        assert np.array_equal(lowrank_forward(x, np.zeros((4, 2)), np.ones((2, 4))),
                              np.zeros((3, 4)))

    def test_lowrank_hand_example(self):
        x = np.array([[1.0, 1.0]])
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0, 4.0]])
        assert np.array_equal(lowrank_forward(x, u, v), np.array([[9.0, 12.0]]))

    def test_lowrank_identity_input(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(0, 1, (4, 2)), rng.normal(0, 1, (2, 4))
        assert np.allclose(lowrank_forward(np.eye(4), u, v), u @ v, atol=1e-12)

    def test_lowrank_shape_error(self):
        with pytest.raises(ShapeError):
            lowrank_forward(np.ones((2, 3)), np.ones((4, 2)), np.ones((2, 4)))

    def test_sparse_zero_mask(self):
        x = np.ones((2, 3))
        s = np.ones((3, 3))
        assert np.array_equal(sparse_forward(x, s, np.zeros((3, 3), dtype=np.uint8)),
                              np.zeros((2, 3)))

    def test_sparse_full_mask_equals_dense(self):
        rng = np.random.default_rng(2)
        x, s = rng.normal(0, 1, (3, 5)), rng.normal(0, 1, (5, 5))
        got = sparse_forward(x, s, np.ones((5, 5), dtype=np.uint8))
        assert np.allclose(got, x @ s, atol=1e-12)

    def test_sparse_hand_example(self):
        x = np.array([[1.0, 0.0]])
        s = np.array([[1.0, -3.0], [2.0, 0.5]])
        mask, _ = sparsify(s, 0.5)
        assert np.array_equal(sparse_forward(x, s, mask), np.array([[0.0, -3.0]]))

    def test_adapter_disabled_paths(self):
        layer = init_adapter(4, 2, 0.5, seed=3)
        x = np.random.default_rng(4).normal(0, 1, (3, 4))
        layer.u[:] = 0.0
        layer.s[:] = 0.0
        # alpha=0.5 keeps half the (all-zero) S entries; increment is still zero
        assert np.allclose(adapter_forward(x, layer), x @ layer.w_q, atol=1e-12)

    def test_adapter_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            dim = int(rng.integers(3, 12))
            rank = int(rng.integers(1, dim + 1))
            layer = init_adapter(dim, rank, float(rng.uniform(0, 1)), seed=int(rng.integers(1000)))
            layer.u[:] = rng.normal(0, 1, layer.u.shape)
            layer.v[:] = rng.normal(0, 1, layer.v.shape)
            layer.s[:] = rng.normal(0, 1, layer.s.shape)
            x = rng.normal(0, 1, (4, dim))
            mask, _ = sparsify(layer.s, layer.alpha)
            dense_ref = x @ (layer.w_q + layer.u @ layer.v + layer.s * mask)
            assert np.abs(adapter_forward(x, layer) - dense_ref).max() <= 1e-9


class TestFlopCount:
    def test_reference_point(self):
        layer = init_adapter(64, 8, 0.99, seed=0)
        assert flop_count(layer, 1) == 2 * 64 * 8 + 40 == 1064
        assert flop_count(layer, 1) < 64 * 64  # dense cost for n=1

    def test_no_savings_case(self):
        d = 6
        layer = init_adapter(d, d, 0.0, seed=0)
        assert flop_count(layer, 1) == 3 * d * d

    def test_zero_batch(self):
        layer = init_adapter(8, 2, 0.5, seed=0)
        assert flop_count(layer, 0) == 0

    def test_instrumented_matches_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            dim = int(rng.integers(4, 20))
            rank = int(rng.integers(1, 5))
            alpha = float(rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]))
            n = int(rng.integers(1, 6))
            layer = init_adapter(dim, rank, alpha, seed=int(rng.integers(1000)))
            x = rng.normal(0, 1, (n, dim))
            out, count = increment_forward_counted(x, layer)
            assert count == flop_count(layer, n)
            mask, _ = sparsify(layer.s, layer.alpha)
            want = lowrank_forward(x, layer.u, layer.v) + x @ (layer.s * mask)
            assert np.abs(out - want).max() <= 1e-9


class TestBce:
    def test_perfect_prediction(self):
        assert bce_loss([1.0], [1.0 - 1e-7]) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_two_labels(self):
        assert bce_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_single_negative(self):
        assert bce_loss([0.0], [0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            bce_loss([1.0, 0.0], [0.5])

    def test_minimized_at_truth(self):
        y = np.array([1.0, 0.0, 1.0])
        at_truth = bce_loss(y, np.clip(y, 1e-7, 1 - 1e-7))
        assert at_truth < bce_loss(y, [0.9, 0.1, 0.9]) < bce_loss(y, [0.5, 0.5, 0.5])


def fd_gradient(loss_fn, array, step=1e-5):
    grad = np.zeros_like(array)
    flat = array.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        grad.ravel()[i] = (up - down) / (2.0 * step)
    return grad


def relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return np.abs(analytic - numeric) / denom


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            dim = int(rng.integers(4, 17))
            rank = int(rng.integers(1, 5))
            num_labels = int(rng.integers(1, 4))
            alpha = float(rng.uniform(0.2, 0.95))
            layer = init_adapter(dim, rank, alpha, seed=trial)
            layer.u[:] = rng.normal(0, 0.3, layer.u.shape)
            layer.v[:] = rng.normal(0, 0.3, layer.v.shape)
            layer.s[:] = spaced_sparse_matrix(rng, dim)
            head = ReadoutHead(w=rng.normal(0, 0.3, (dim, num_labels)),
                               b=rng.normal(0, 0.1, num_labels))
            x = rng.normal(0, 1, (5, dim))
            y = rng.integers(0, 2, (5, num_labels)).astype(np.float64)
            mask, _ = sparsify(layer.s, layer.alpha)

            def loss():
                l, _ = batch_loss_and_grads(x, y, layer, head, mask)
                return l

            _, grads = batch_loss_and_grads(x, y, layer, head, mask)
            for name, array in (("u", layer.u), ("v", layer.v), ("s", layer.s),
                                ("head_w", head.w), ("head_b", head.b)):
                numeric = fd_gradient(loss, array)
                if name == "s":
                    # masked entries must be flat directions of the loss
                    assert np.abs(numeric[mask == 0]).max() <= 1e-6
                    numeric = numeric * mask
                err = relative_error(grads[name], numeric)
                # ignore cells where both gradients vanish
                active = np.maximum(np.abs(grads[name]), np.abs(numeric)) > 1e-10
                worst = err[active].max() if np.any(active) else 0.0
                assert worst <= 1e-4, f"trial {trial} tensor {name}: rel err {worst}"

    def test_masked_entries_get_zero_gradient(self):
        rng = np.random.default_rng(8)
        layer = init_adapter(10, 2, 0.8, seed=0)
        layer.s[:] = spaced_sparse_matrix(rng, 10)
        head = init_head(10, 3, seed=0)
        x = rng.normal(0, 1, (6, 10))
        y = rng.integers(0, 2, (6, 3)).astype(np.float64)
        mask, _ = sparsify(layer.s, layer.alpha)
        _, grads = batch_loss_and_grads(x, y, layer, head, mask)
        assert np.all(grads["s"][mask == 0] == 0.0)


def storage_hash(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestTrain:
    def _task(self, rng, n=60, dim=8, num_labels=2):
        w_true = rng.normal(0, 1, (dim, num_labels))
        x = rng.normal(0, 1, (n, dim))
        y = (x @ w_true > 0).astype(np.float64)
        return x, y

    def test_zero_learning_rate_freezes_everything(self):
        rng = np.random.default_rng(9)
        x, y = self._task(rng)
        layer = init_adapter(8, 2, 0.5, seed=1)
        head = init_head(8, 2, seed=1)
        before = {n: a.copy() for n, a in
                  (("u", layer.u), ("v", layer.v), ("s", layer.s),
                   ("hw", head.w), ("hb", head.b))}
        result = train(layer, head, x, y, SloraParams(learning_rate=0.0, epochs=4), 2)
        assert np.array_equal(layer.u, before["u"])
        assert np.array_equal(layer.s, before["s"])
        assert np.array_equal(head.w, before["hw"])
        assert max(result.loss_trace) - min(result.loss_trace) <= 1e-15

    def test_base_frozen_through_training(self):
        rng = np.random.default_rng(10)
        x, y = self._task(rng)
        layer = init_adapter(8, 2, 0.5, seed=3)
        head = init_head(8, 2, seed=3)
        before = storage_hash(layer.w_q)
        train(layer, head, x, y, SloraParams(learning_rate=0.1, epochs=5), 4)
        assert storage_hash(layer.w_q) == before

    def test_loss_decreases(self):
        rng = np.random.default_rng(11)
        x, y = self._task(rng, n=120)
        layer = init_adapter(8, 2, 0.5, seed=5)
        head = init_head(8, 2, seed=5)
        result = train(layer, head, x, y, SloraParams(learning_rate=0.1, epochs=30), 6)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_separable_task_reaches_f1(self):
        rng = np.random.default_rng(42)
        dim, num_labels, n = 32, 2, 500
        w_true = rng.normal(0, 1, (dim, num_labels))
        x = rng.normal(0, 1, (n, dim))
        y = (x @ w_true > 0).astype(np.float64)
        layer = init_adapter(dim, 4, 0.9, seed=1)
        head = init_head(dim, num_labels, seed=1)
        train(layer, head, x, y,
              SloraParams(learning_rate=0.1, batch_size=32, epochs=200), 1)
        pred = (classifier_probs(x, layer, head) >= 0.5).astype(np.float64)
        tp = float(np.sum(pred * y))
        fp = float(np.sum(pred * (1 - y)))
        fn = float(np.sum((1 - pred) * y))
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        x, y = self._task(rng)
        traces = []
        for _ in range(2):
            layer = init_adapter(8, 2, 0.5, seed=7)
            head = init_head(8, 2, seed=7)
            result = train(layer, head, x, y,
                           SloraParams(learning_rate=0.05, epochs=6), 8)
            traces.append(result.loss_trace)
        assert traces[0] == traces[1]

    def test_empty_dataset(self):
        layer = init_adapter(4, 1, 0.5, seed=0)
        head = init_head(4, 2, seed=0)
        with pytest.raises(EmptyDataset):
            train(layer, head, np.zeros((0, 4)), np.zeros((0, 2)), SloraParams(), 0)

    def test_early_stopping_respects_patience(self):
        rng = np.random.default_rng(13)
        x, y = self._task(rng)
        layer = init_adapter(8, 2, 0.5, seed=9)
        head = init_head(8, 2, seed=9)
        result = train(layer, head, x[:40], y[:40],
                       SloraParams(learning_rate=0.0, epochs=50, patience=2), 10,
                       val=(x[40:], y[40:]))
        assert result.epochs_run == 3  # first epoch improves on inf, then two stale


class TestFeaturesAndCheckpoint:
    def test_features_deterministic_and_normalized(self):
        extractor = HashedFeatureExtractor(dim=32, seed=5)
        src = "function transfer(address to, uint256 amount) public {}"
        a, b = extractor.extract(src), extractor.extract(src)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-9

    def test_different_seeds_differ(self):
        src = "function transfer(address to) public {}"
        a = HashedFeatureExtractor(dim=32, seed=1).extract(src)
        b = HashedFeatureExtractor(dim=32, seed=2).extract(src)
        assert not np.array_equal(a, b)

    def test_checkpoint_roundtrip(self, tmp_path, taxonomy5):
        layer = init_adapter(8, 2, 0.5, seed=20)
        head = init_head(8, 5, seed=20)
        extractor = HashedFeatureExtractor(dim=8, seed=20)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, layer, head, extractor, taxonomy5)
        layer2, head2, extractor2, tax2 = load_checkpoint(path)
        assert np.array_equal(layer2.w_q, layer.w_q)
        assert np.array_equal(layer2.u, layer.u)
        assert np.array_equal(layer2.s, layer.s)
        assert layer2.alpha == layer.alpha and layer2.rank == layer.rank
        assert np.array_equal(head2.w, head.w)
        assert extractor2.dim == 8 and extractor2.seed == 20
        assert tax2 == taxonomy5
        with pytest.raises(ValueError):
            layer2.w_q[0, 0] = 1.0
