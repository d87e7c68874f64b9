"""Unit tests for activations, dropout and the cross-entropy loss."""

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

    def test_relu_gradient_is_zero_at_and_below_zero(self):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0], dtype=np.float32), requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_elu_saturates_at_minus_alpha(self, alpha):
        x = Tensor(np.array([-50.0, -1.0], dtype=np.float32))
        out = F.elu(x, alpha).data
        assert np.isclose(out[0], -alpha, atol=1e-6)
        assert np.isclose(out[1], alpha * (np.exp(-1.0) - 1.0), rtol=1e-6)


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

    def test_stable_with_large_logits(self):
        logits = Tensor(np.array([[1e4, 0.0, -1e4], [0.0, 1e4, 1e4]], dtype=np.float32),
                        requires_grad=True)
        loss = F.cross_entropy(logits, np.array([1, 1]))
        loss.backward()
        # row 0 misses by 1e4, row 1 splits its mass between two classes
        assert np.isclose(float(loss.data), (1e4 + np.log(2.0)) / 2, rtol=1e-5)
        assert np.isfinite(logits.grad).all()

    def test_gradient_is_probabilities_minus_one_hot(self, rng):
        logits = _t((6, 4), rng, scale=2.0)
        labels = rng.integers(0, 4, size=6)
        F.cross_entropy(logits, labels).backward()
        exp = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        expected = exp / exp.sum(axis=1, keepdims=True)
        expected[np.arange(6), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, expected / 6, atol=1e-6)
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-6)

    def test_none_reduction_is_the_per_row_loss(self, rng):
        logits = _t((5, 3), rng)
        labels = rng.integers(0, 3, size=5)
        rows = F.cross_entropy(logits, labels, reduction="none").data
        for i in range(5):
            alone = F.cross_entropy(Tensor(logits.data[i:i + 1]), labels[i:i + 1]).data
            assert np.isclose(rows[i], float(alone), rtol=1e-6)

    def test_sum_reduction_gradients(self, rng):
        logits = _t((6, 3), rng)
        labels = rng.integers(0, 3, size=6)
        check_gradients(lambda: F.cross_entropy(logits, labels, reduction="sum"), [logits])

    def test_rejects_bad_shapes(self, rng):
        logits = _t((4, 3), rng)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros(4, dtype=np.int64), reduction="bogus")

