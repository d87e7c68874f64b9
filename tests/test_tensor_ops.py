"""Unit tests for the primitive autograd operations the layers run."""

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

    def test_mul_gradients(self, rng):
        a, b = _t((3, 2), rng), _t((3, 2), rng)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_row_vector(self, rng):
        a = _t((3, 4), rng)
        b = _t((1, 4), rng)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_pow_gradients(self, rng):
        a = _t((4,), rng, positive=True)
        check_gradients(lambda: (a ** 3).sum(), [a])


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


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        a = _t((2, 6), rng)
        out = a.reshape(3, 4).reshape(2, 6)
        np.testing.assert_allclose(out.data, a.data)
        check_gradients(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

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


#: (left, right) operand shapes covering each broadcast the layers rely on: a
#: missing leading axis on either side, a size-1 axis on either side, both at
#: once, and a 0-d operand.
BROADCAST_SHAPES = [
    ((3, 4), (3, 4)),
    ((3, 4), (4,)),
    ((4,), (3, 4)),
    ((3, 4), (1, 4)),
    ((3, 4), (3, 1)),
    ((3, 1), (1, 4)),
    ((2, 3, 4), (3, 4)),
    ((2, 3, 4), (3, 1)),
    ((2, 1, 4), (3, 1)),
    ((), (3, 4)),
]


def _shapes_id(shapes):
    return "x".join("(" + ",".join(map(str, shape)) + ")" for shape in shapes)


class TestBroadcasting:
    @pytest.mark.parametrize("shapes", BROADCAST_SHAPES, ids=_shapes_id)
    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_forward_and_gradients(self, rng, op, shapes):
        """The forward is NumPy's broadcast; each operand's gradient is
        summed back to that operand's own shape."""
        a, b = _t(shapes[0], rng), _t(shapes[1], rng)
        fn, reference = {"add": (ops.add, np.add), "mul": (ops.mul, np.multiply)}[op]
        out = fn(a, b)
        np.testing.assert_array_equal(out.data, reference(a.data, b.data))
        out.backward(np.ones_like(out.data))
        assert a.grad.shape == shapes[0] and b.grad.shape == shapes[1]
        check_gradients(lambda: (fn(a, b) ** 2).sum(), [a, b])

    @pytest.mark.parametrize("expression", [
        lambda a: a + 2.5, lambda a: 2.5 + a, lambda a: a * 2.5, lambda a: 2.5 * a,
    ], ids=["add-right", "add-left", "mul-right", "mul-left"])
    def test_python_scalar_operand(self, rng, expression):
        """A Python scalar on either side keeps the tensor's dtype and gradient."""
        a = _t((3, 2), rng)
        out = expression(a)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, expression(a.data))
        check_gradients(lambda: (expression(a) ** 2).sum(), [a])


class TestPow:
    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, -1.0])
    def test_forward_and_gradients(self, rng, exponent):
        a = _t((3, 4), rng, positive=True)
        np.testing.assert_allclose((a ** exponent).data, a.data ** exponent, rtol=1e-6)
        check_gradients(lambda: (a ** exponent).sum(), [a])


class TestSumAxes:
    @pytest.mark.parametrize("keepdims", [False, True], ids=["drop", "keep"])
    @pytest.mark.parametrize("axis", [None, 0, 1, 2, -1, -2, (0, 2), (1, 2)],
                             ids=["all", "0", "1", "2", "-1", "-2", "0,2", "1,2"])
    def test_forward_and_gradients(self, rng, axis, keepdims):
        a = _t((2, 3, 4), rng)
        out = a.sum(axis=axis, keepdims=keepdims)
        expected = a.data.sum(axis=axis, keepdims=keepdims)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)
        weights = rng.standard_normal(expected.shape).astype(np.float32)
        out.backward(weights)
        # Every input entry receives the upstream entry it was summed into.
        np.testing.assert_array_equal(
            a.grad, np.broadcast_to(
                weights if keepdims or axis is None
                else np.expand_dims(weights, axis), a.shape))
        check_gradients(lambda: (a.sum(axis=axis, keepdims=keepdims) ** 2).sum(), [a])


class TestReshapeTargets:
    @pytest.mark.parametrize("shape", [(12,), (4, 3), (2, 2, 3), (-1, 6), (3, -1), (1, 12)],
                             ids=["flat", "4x3", "2x2x3", "-1x6", "3x-1", "row"])
    def test_forward_and_gradients(self, rng, shape):
        a = _t((3, 4), rng)
        out = a.reshape(shape)
        np.testing.assert_array_equal(out.data, a.data.reshape(shape))
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        np.testing.assert_array_equal(a.grad, grad.reshape(3, 4))


class TestBasicIndexing:
    @pytest.mark.parametrize("key", [
        2, -1, slice(1, 4), slice(None, None, 2), slice(-3, None), slice(None, None, -1),
        (slice(None), 1), (Ellipsis, slice(0, 2)), (None, slice(1, 3)), (1, 2),
    ], ids=["int", "negative-int", "range", "step", "tail", "reversed", "column",
            "ellipsis", "new-axis", "element"])
    def test_forward_and_gradients(self, rng, key):
        """The forward is NumPy's view; the backward writes the upstream
        gradient into the selected entries and zeros everywhere else."""
        a = _t((5, 3), rng)
        out = a[key]
        np.testing.assert_array_equal(out.data, a.data[key])
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        expected = np.zeros_like(a.data)
        expected[key] = grad
        np.testing.assert_array_equal(a.grad, expected)


class TestSingleRowMatMul:
    def test_one_row_equals_its_row_in_a_batch_and_has_gradients(self, rng):
        """A 1-row product stays on gemm, so it equals the same row of a
        larger product bit for bit; its gradients are the 2-D ones."""
        batch = _t((6, 3), rng)
        b = _t((3, 5), rng)
        row = Tensor(batch.data[2:3].copy(), requires_grad=True)
        np.testing.assert_array_equal((row @ b).data, (batch @ b).data[2:3])
        check_gradients(lambda: ((row @ b) ** 2).sum(), [row, b])
