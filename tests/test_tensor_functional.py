"""Unit tests for the cross-entropy loss."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients
from repro.tensor import functional as F


def _t(shape, rng, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape).astype(np.float32), requires_grad=True)


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

