"""Unit tests for the primitive autograd operations."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, ops


def _t(shape, rng, requires_grad=True, positive=False):
    data = rng.standard_normal(shape).astype(np.float32)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=requires_grad)


class TestElementwiseOps:
    def test_add_forward(self, rng):
        a, b = _t((3, 4), rng), _t((3, 4), rng)
        out = a + b
        np.testing.assert_allclose(out.data, a.data + b.data)

    def test_add_broadcast_gradients(self, rng):
        a = _t((3, 4), rng)
        b = _t((4,), rng)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_scalar_add(self, rng):
        a = _t((2, 3), rng)
        out = a + 2.5
        np.testing.assert_allclose(out.data, a.data + 2.5)

    def test_sub_gradients(self, rng):
        a, b = _t((5,), rng), _t((5,), rng)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_rsub(self, rng):
        a = _t((4,), rng)
        out = 1.0 - a
        np.testing.assert_allclose(out.data, 1.0 - a.data)

    def test_mul_gradients(self, rng):
        a, b = _t((3, 2), rng), _t((3, 2), rng)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_row_vector(self, rng):
        a = _t((3, 4), rng)
        b = _t((1, 4), rng)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div_gradients(self, rng):
        a = _t((3, 3), rng)
        b = _t((3, 3), rng, positive=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_neg(self, rng):
        a = _t((3,), rng)
        check_gradients(lambda: (-a).sum(), [a])

    def test_pow_gradients(self, rng):
        a = _t((4,), rng, positive=True)
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_exp_log_roundtrip(self, rng):
        a = _t((4,), rng, positive=True)
        out = a.exp().log()
        np.testing.assert_allclose(out.data, a.data, rtol=1e-5)

    def test_exp_gradients(self, rng):
        a = _t((3, 3), rng)
        check_gradients(lambda: a.exp().sum(), [a])

    def test_log_gradients(self, rng):
        a = _t((5,), rng, positive=True)
        check_gradients(lambda: a.log().sum(), [a])

    def test_sqrt_gradients(self, rng):
        a = _t((5,), rng, positive=True)
        check_gradients(lambda: a.sqrt().sum(), [a])


class TestMatMul:
    def test_forward_matches_numpy(self, rng):
        a, b = _t((4, 3), rng), _t((3, 5), rng)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data, rtol=1e-5)

    def test_gradients_2d(self, rng):
        a, b = _t((4, 3), rng), _t((3, 2), rng)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_gradients_batched_left(self, rng):
        a, b = _t((2, 4, 3), rng), _t((3, 2), rng)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    @pytest.mark.parametrize("a_shape", [(4, 3), (2, 4, 3)])
    @pytest.mark.parametrize("constant", [0, 1], ids=["left", "right"])
    def test_constant_operand(self, rng, a_shape, constant):
        a = _t(a_shape, rng, requires_grad=constant != 0)
        b = _t((3, 2), rng, requires_grad=constant != 1)
        variable = (a, b)[1 - constant]
        check_gradients(lambda: ((a @ b) ** 2).sum(), [variable])
        out = a @ b
        assert out._ctx.needs_input_grad == (constant != 0, constant != 1)
        grads = out._ctx.backward(np.ones_like(out.data))
        assert grads[constant] is None and grads[1 - constant].shape == variable.shape

    def test_rejects_1d_right_operand(self, rng):
        a, b = _t((4, 3), rng), _t((3,), rng)
        with pytest.raises(ValueError):
            _ = a @ b


class TestReductions:
    def test_sum_all(self, rng):
        a = _t((3, 4), rng)
        assert np.isclose(a.sum().data, a.data.sum())

    def test_sum_axis_keepdims(self, rng):
        a = _t((3, 4), rng)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        check_gradients(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_sum_negative_axis(self, rng):
        a = _t((2, 3, 4), rng)
        check_gradients(lambda: (a.sum(axis=-1) ** 2).sum(), [a])

    def test_mean_gradients(self, rng):
        a = _t((4, 5), rng)
        check_gradients(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_mean_all(self, rng):
        a = _t((4, 5), rng)
        assert np.isclose(a.mean().data, a.data.mean())

    def test_max_forward(self, rng):
        a = _t((3, 4), rng)
        np.testing.assert_allclose(a.max(axis=1).data, a.data.max(axis=1))

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        out = a.max(axis=1)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_min_gradients(self, rng):
        a = _t((6,), rng)
        check_gradients(lambda: a.min().sum() if a.min().ndim else a.min(), [a])


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        a = _t((2, 6), rng)
        out = a.reshape(3, 4).reshape(2, 6)
        np.testing.assert_allclose(out.data, a.data)
        check_gradients(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose(self, rng):
        a = _t((2, 3, 4), rng)
        out = a.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        check_gradients(lambda: (a.transpose((2, 0, 1)) ** 2).sum(), [a])

    def test_transpose_default_reverses(self, rng):
        a = _t((2, 5), rng)
        assert a.T.shape == (5, 2)

    def test_concat(self, rng):
        a, b = _t((2, 3), rng), _t((4, 3), rng)
        out = ops.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda: (ops.concat([a, b], axis=0) ** 2).sum(), [a, b])

    def test_slice_rows(self, rng):
        a = _t((5, 3), rng)
        out = a[1:3]
        assert out.shape == (2, 3)
        check_gradients(lambda: (a[1:3] ** 2).sum(), [a])

    def test_boolean_mask_slice(self, rng):
        a = _t((6, 2), rng)
        mask = np.array([True, False, True, False, False, True])
        out = a[mask]
        assert out.shape == (3, 2)
        check_gradients(lambda: (a[mask] ** 2).sum(), [a])

    def test_gather_with_repeats_accumulates(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 0, 2])
        out = ops.gather(a, idx)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(a.grad, [[2, 2], [0, 0], [1, 1]])

    def test_gather_gradcheck(self, rng):
        a = _t((5, 3), rng)
        idx = np.array([4, 0, 0, 2, 3, 1])
        check_gradients(lambda: (ops.gather(a, idx) ** 2).sum(), [a])

    @pytest.mark.parametrize("idx, assigns", [
        ([0, 2, 3, 6], True),           # strictly increasing: scatter by assignment
        ([], True),
        ([5, 1, 3, 0], False),          # unique but unsorted
        ([1, 1, 4, 2, 1], False),       # repeated
        ([0, 2, 4, 4], False),          # non-decreasing with a repeat
        ([-3, 4], False),               # increasing, but -3 and 4 name one row
        ([[0, 1], [1, 2]], False),      # rows increase, but row 1 repeats
    ])
    def test_gather_backward_matches_add_at(self, rng, idx, assigns):
        a = _t((7, 3), rng)
        index = np.array(idx, dtype=np.int64)
        out = ops.gather(a, index)
        assert out._ctx.saved[2] is assigns
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        expected = np.zeros_like(a.data)
        np.add.at(expected, index, grad)
        np.testing.assert_array_equal(a.grad, expected)


class TestUnbroadcast:
    def test_grad_shape_matches_parameter_shape(self, rng):
        weight = _t((1, 4), rng)
        x = _t((8, 4), rng, requires_grad=False)
        out = (x * weight).sum()
        out.backward()
        assert weight.grad.shape == (1, 4)

    def test_scalar_tensor_broadcast(self):
        scale = Tensor(np.array(2.0, dtype=np.float32), requires_grad=True)
        x = Tensor(np.ones((3, 3), dtype=np.float32))
        out = (x * scale).sum()
        out.backward()
        assert scale.grad.shape == ()
        assert np.isclose(scale.grad, 9.0)
