"""Unit tests for activations, softmax, dropout and losses."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients
from repro.tensor import functional as F
from repro.utils.seed import set_seed


def _t(shape, rng, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape).astype(np.float32), requires_grad=True)


class TestActivations:
    def test_relu_forward(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32))
        np.testing.assert_allclose(F.relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_gradients(self, rng):
        x = _t((4, 3), rng)
        check_gradients(lambda: (F.relu(x) ** 2).sum(), [x])

    def test_leaky_relu_negative_slope(self):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(F.leaky_relu(x, 0.1).data, [-0.2, 3.0], rtol=1e-6)

    def test_leaky_relu_gradients(self, rng):
        x = _t((5,), rng)
        check_gradients(lambda: (F.leaky_relu(x, 0.2) ** 2).sum(), [x])

    def test_sigmoid_range(self, rng):
        x = _t((10,), rng, scale=3.0)
        out = F.sigmoid(x).data
        assert np.all((out > 0) & (out < 1))

    def test_sigmoid_gradients(self, rng):
        x = _t((6,), rng)
        check_gradients(lambda: (F.sigmoid(x) ** 2).sum(), [x])

    def test_tanh_gradients(self, rng):
        x = _t((6,), rng)
        check_gradients(lambda: (F.tanh(x) ** 2).sum(), [x])

    def test_elu_continuity_at_zero(self):
        x = Tensor(np.array([-1e-4, 1e-4], dtype=np.float32))
        out = F.elu(x).data
        assert abs(out[0] - out[1]) < 1e-3

    def test_elu_gradients(self, rng):
        x = _t((8,), rng)
        check_gradients(lambda: (F.elu(x) ** 2).sum(), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_elu_matches_the_select_reference_bit_for_bit(self, rng, dtype, alpha):
        """Forward and backward equal ``np.where(x > 0, ...)`` exactly,
        signed zeros, infinities and subnormals included."""
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
                   -info.smallest_subnormal, info.tiny / 4, -info.tiny / 4, info.max, -info.max]
        x = np.concatenate([special, rng.standard_normal(500)]).astype(dtype)
        grad = np.concatenate([[1.0, -1.0, -0.0, 0.0, np.inf, -1.0, 2.0, -2.0, 1.0, -0.0],
                               rng.standard_normal(500)]).astype(dtype)
        fn = F.ELU()
        fn.needs_grad = True
        out = fn.forward(Tensor(x, dtype=dtype), alpha)
        (got_grad,) = fn.backward(grad)
        mask = x > 0
        neg = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
        for got, want in ((out, np.where(mask, x, neg)),
                          (got_grad, np.where(mask, grad, grad * (neg + alpha)))):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_elu_gradients_any_alpha(self, rng, alpha):
        x = _t((8,), rng)
        check_gradients(lambda: (F.elu(x, alpha) ** 2).sum(), [x])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = _t((5, 7), rng, scale=4.0)
        out = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=1e-5)

    def test_stability_with_large_logits(self):
        x = Tensor(np.array([[1e4, 1e4 + 1.0]], dtype=np.float32))
        out = F.softmax(x).data
        assert np.all(np.isfinite(out))

    def test_softmax_gradients(self, rng):
        x = _t((3, 4), rng)
        w = rng.standard_normal((3, 4)).astype(np.float32)
        check_gradients(lambda: (F.softmax(x, axis=-1) * w).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = _t((4, 6), rng, scale=2.0)
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data + 1e-12), atol=1e-4
        )

    def test_log_softmax_gradients(self, rng):
        x = _t((3, 5), rng)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        check_gradients(lambda: (F.log_softmax(x) * w).sum(), [x])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = _t((20, 10), rng)
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_scales_kept_units(self):
        set_seed(0)
        x = Tensor(np.ones((2000, 10), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)
        # roughly half are kept
        assert 0.4 < (out != 0).mean() < 0.6

    def test_zero_probability_is_identity(self, rng):
        x = _t((4, 4), rng)
        np.testing.assert_array_equal(F.dropout(x, 0.0, training=True).data, x.data)

    def test_invalid_probability_raises(self, rng):
        x = _t((2, 2), rng)
        with pytest.raises(ValueError):
            F.dropout(x, 1.5, training=True)

    def test_gradient_uses_same_mask(self):
        set_seed(3)
        x = Tensor(np.ones((50, 4), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.5, training=True)
        mask = (out.data != 0)
        out.sum().backward()
        np.testing.assert_allclose((x.grad != 0), mask)


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = _t((6, 4), rng, scale=2.0)
        labels = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(logits, labels).data
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert np.isclose(loss, expected, rtol=1e-5)

    def test_sum_reduction(self, rng):
        logits = _t((5, 3), rng)
        labels = rng.integers(0, 3, size=5)
        mean_loss = float(F.cross_entropy(logits, labels, reduction="mean").data)
        sum_loss = float(F.cross_entropy(logits, labels, reduction="sum").data)
        assert np.isclose(sum_loss, mean_loss * 5, rtol=1e-5)

    def test_none_reduction_shape(self, rng):
        logits = _t((5, 3), rng)
        labels = rng.integers(0, 3, size=5)
        assert F.cross_entropy(logits, labels, reduction="none").shape == (5,)

    def test_gradients(self, rng):
        logits = _t((7, 5), rng)
        labels = rng.integers(0, 5, size=7)
        check_gradients(lambda: F.cross_entropy(logits, labels), [logits])

    def test_perfect_prediction_low_loss(self):
        labels = np.array([0, 1, 2])
        logits = Tensor(50.0 * np.eye(3, dtype=np.float32))
        assert float(F.cross_entropy(logits, labels).data) < 1e-4

    def test_rejects_bad_shapes(self, rng):
        logits = _t((4, 3), rng)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros(4, dtype=np.int64), reduction="bogus")

    def test_nll_loss_matches_cross_entropy(self, rng):
        logits = _t((6, 4), rng)
        labels = rng.integers(0, 4, size=6)
        ce = float(F.cross_entropy(logits, labels).data)
        nll = float(F.nll_loss(F.log_softmax(logits), labels).data)
        assert np.isclose(ce, nll, rtol=1e-4)


class TestAccuracy:
    def test_accuracy_basic(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]], dtype=np.float32)
        labels = np.array([0, 1, 1])
        assert np.isclose(F.accuracy(logits, labels), 2.0 / 3.0)

    def test_accuracy_empty(self):
        assert np.isnan(F.accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)))
