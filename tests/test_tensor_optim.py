"""Tests for the optimizer, the learning-rate schedule, and initializers."""

import numpy as np
import pytest

from repro.tensor import Tensor, init
from repro.tensor.optim import Adam, CosineDecay
from repro.utils.seed import set_seed


def _quadratic_problem():
    """Minimise ||w - target||^2; any sane optimizer converges quickly."""
    target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)

    def loss_fn():
        diff = w + Tensor(-target)
        return (diff * diff).sum()

    return w, target, loss_fn


class TestAdam:
    def test_converges_on_quadratic(self):
        w, target, loss_fn = _quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            loss = loss_fn()
            w.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-2)

    def test_first_step_moves_each_coordinate_by_lr(self):
        # Bias correction makes the first update lr * sign(grad), whatever
        # the gradient's size.
        w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam([w], lr=0.01, eps=0.0)
        w.grad = np.array([1e-3, -5.0, 200.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(w.data, [-0.01, 0.01, -0.01], rtol=1e-5)

    def test_weight_decay_shrinks_parameters(self):
        w = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        opt = Adam([w], lr=0.1, weight_decay=1.0)
        w.grad = np.zeros(4, dtype=np.float32)
        opt.step()
        assert np.all(np.abs(w.data) < 1.0)

    def test_skips_parameters_without_grad(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        u = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = Adam([w, u], lr=0.5)
        u.grad = np.ones(3, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(w.data, 1.0)
        np.testing.assert_array_equal(opt._m[0], 0.0)
        assert np.all(u.data < 1.0)

    def test_invalid_hyperparameters_raise(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([w], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([w], betas=(1.5, 0.9))

    def test_requires_grad_validation(self):
        with pytest.raises(TypeError):
            Adam([Tensor(np.ones(2))], lr=0.1)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestSchedulers:
    def _optimizer(self):
        return Adam([Tensor(np.ones(2), requires_grad=True)], lr=1.0)

    def test_cosine_decay_endpoints(self):
        opt = self._optimizer()
        sched = CosineDecay(opt, total_epochs=10, min_lr=0.1)
        for _ in range(10):
            last = sched.step()
        assert np.isclose(last, 0.1, atol=1e-6)
        assert opt.lr <= 1.0

    def test_cosine_decay_midpoint_is_the_mean_of_the_endpoints(self):
        opt = self._optimizer()
        sched = CosineDecay(opt, total_epochs=10, min_lr=0.2)
        for _ in range(5):
            sched.step()
        assert np.isclose(opt.lr, 0.6)

    def test_cosine_decay_holds_min_lr_past_total_epochs(self):
        opt = self._optimizer()
        sched = CosineDecay(opt, total_epochs=3, min_lr=0.05)
        lrs = [sched.step() for _ in range(6)]
        assert all(a > b for a, b in zip(lrs[:3], lrs[1:3]))
        np.testing.assert_allclose(lrs[2:], 0.05)

    def test_invalid_scheduler_args(self):
        opt = self._optimizer()
        with pytest.raises(ValueError):
            CosineDecay(opt, total_epochs=0)


class TestInitializers:
    def test_xavier_uniform_bounds(self):
        set_seed(0)
        w = init.xavier_uniform((100, 50))
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.all(np.abs(w) <= limit + 1e-6)

    def test_xavier_uniform_gain_scales_limit(self):
        set_seed(0)
        w = init.xavier_uniform((100, 50), gain=3.0)
        limit = 3.0 * np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit + 1e-6)
        assert np.abs(w).max() > np.sqrt(6.0 / 150)

    def test_one_dimensional_shape_uses_its_length_as_both_fans(self):
        set_seed(0)
        w = init.xavier_uniform((24,))
        limit = np.sqrt(6.0 / 48)
        assert np.all(np.abs(w) <= limit + 1e-6)
        assert np.abs(w).max() > 0.5 * limit

    def test_dtype_is_respected(self):
        assert init.xavier_uniform((3, 2), dtype=np.float64).dtype == np.float64
        assert init.zeros((2,), dtype=np.float64).dtype == np.float64
        assert init.ones((2,)).dtype == np.float32

    def test_zeros_ones(self):
        assert init.zeros((3, 3)).sum() == 0
        assert init.ones((3, 3)).sum() == 9

    def test_seed_reproducibility(self):
        set_seed(42)
        first = init.xavier_uniform((5, 5))
        set_seed(42)
        second = init.xavier_uniform((5, 5))
        np.testing.assert_array_equal(first, second)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            init.xavier_uniform(())
