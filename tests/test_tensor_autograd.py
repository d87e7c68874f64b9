"""Tests for the autograd engine mechanics (graph recording, backward, no_grad)."""

import numpy as np
import pytest

from repro.tensor import Tensor, grad_enabled, no_grad
from repro.tensor import functional as F


class TestGraphRecording:
    def test_result_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_no_grad_disables_recording(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert out._ctx is None

    def test_nested_no_grad_restores_the_outer_state(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()
        assert (a * 2.0).requires_grad

    def test_detach_breaks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * 2.0).detach()
        assert not out.requires_grad
        assert out.is_leaf()

    def test_leaf_flag(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert a.is_leaf()
        assert not (a * 1.0).is_leaf()


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_same_tensor_used_twice_in_one_op(self):
        x = Tensor(np.array([4.0], dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0, dtype=np.float32))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_backward_on_non_scalar_without_gradient_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_free_graph_clears_contexts(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        loss = y.sum()
        loss.backward()
        assert loss._ctx is None
        assert y._ctx is None

    def test_backward_through_a_released_node_raises(self):
        """Two losses on one intermediate: the first backward frees the
        shared ``Mul``, so the second must not treat ``y`` as a leaf."""
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        first, second = (y * 3.0).sum(), (y * 5.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="reached Mul.*a second time"):
            second.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))
        assert y.grad is None

    def test_shared_intermediate_with_retained_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        first, second = (y * 3.0).sum(), (y * 5.0).sum()
        first.backward(free_graph=False)
        second.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 16.0))
        assert y.grad is None

    def test_retain_graph_allows_second_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward(free_graph=False)
        loss.backward(free_graph=False)
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_gradients_do_not_flow_into_non_grad_inputs(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=False)
        (a * b).sum().backward()
        assert b.grad is None

    def test_mixed_graph_with_functional_ops(self):
        x = Tensor(np.random.randn(4, 3).astype(np.float32), requires_grad=True)
        w = Tensor(np.random.randn(3, 2).astype(np.float32), requires_grad=True)
        loss = F.cross_entropy((x @ w) ** 2, np.array([0, 1, 0, 1]))
        loss.backward()
        assert x.grad is not None and w.grad is not None
        assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))


class TestTensorBasics:
    def test_float64_input_downcast_to_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_integer_data_preserved(self):
        t = Tensor(np.arange(3))
        assert np.issubdtype(t.dtype, np.integer)

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_accumulate_grad_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            x.accumulate_grad(np.ones((2, 2), dtype=np.float32))

    def test_repr_contains_shape(self):
        t = Tensor(np.ones((2, 5)), requires_grad=True, name="weights")
        text = repr(t)
        assert "(2, 5)" in text and "weights" in text

    def test_item_and_len(self):
        t = Tensor(np.array([3.5], dtype=np.float32))
        assert np.isclose(t.item(), 3.5)
        assert len(Tensor(np.zeros((7, 2)))) == 7

    def test_copy_is_detached_and_independent(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0
        assert not c.requires_grad
