"""Unit and property-based tests for the sparse / segment message-passing ops."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import EdgePlan, Tensor, check_gradients
from repro.tensor.sparse import edge_softmax, neighbor_aggregate, u_mul_e_sum
from reference_kernels import (
    edge_softmax_np,
    segment_max_np,
    segment_mean_np,
    segment_sum_np,
)


@pytest.fixture
def edge_set(rng):
    num_src, num_dst, num_edges = 7, 5, 20
    src = rng.integers(0, num_src, size=num_edges)
    dst = rng.integers(0, num_dst, size=num_edges)
    return src, dst, EdgePlan(src, dst, num_dst, num_src), num_src, num_dst


def _segment_plan(segment_ids, num_segments):
    """The plan summing item ``i`` into segment ``segment_ids[i]``."""
    return EdgePlan(np.arange(len(segment_ids)), segment_ids, num_segments,
                    len(segment_ids))


def _csr_plan(adj):
    """The plan of a sparse adjacency's edges (``adj[d, s] != 0``)."""
    coo = adj.tocoo()
    return EdgePlan(coo.col, coo.row, adj.shape[0], adj.shape[1])


class TestSegmentHelpers:
    def test_segment_sum_matches_loop(self, rng):
        values = rng.standard_normal((10, 3)).astype(np.float32)
        segs = rng.integers(0, 4, size=10)
        out = segment_sum_np(values, segs, 4)
        expected = np.zeros((4, 3), dtype=np.float32)
        for v, s in zip(values, segs):
            expected[s] += v
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_segment_sum_empty_segment_is_zero(self):
        values = np.ones((3, 2), dtype=np.float32)
        out = segment_sum_np(values, np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out[1], 0.0)
        np.testing.assert_allclose(out[3], 0.0)

    def test_segment_mean_divides_by_count(self):
        values = np.array([[2.0], [4.0], [6.0]], dtype=np.float32)
        out = segment_mean_np(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out, [[3.0], [6.0]])

    def test_segment_max_initial_for_empty(self):
        values = np.array([[1.0], [5.0]], dtype=np.float32)
        out = segment_max_np(values, np.array([1, 1]), 3)
        assert out[0, 0] == -np.inf and out[2, 0] == -np.inf
        assert out[1, 0] == 5.0

    def test_segment_count(self):
        counts = _segment_plan(np.array([0, 0, 2, 2, 2]), 4).in_degrees
        np.testing.assert_array_equal(counts, [2, 0, 3, 0])

    @given(st.integers(2, 30), st.integers(1, 60), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_segment_sum_total_is_preserved(self, num_segments, num_items, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((num_items, 2)).astype(np.float64)
        segs = rng.integers(0, num_segments, size=num_items)
        out = segment_sum_np(values, segs, num_segments)
        np.testing.assert_allclose(out.sum(axis=0), values.sum(axis=0), atol=1e-8)

    @given(st.integers(1, 20), st.integers(1, 50), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_edge_softmax_np_sums_to_one_per_destination(self, num_dst, num_edges, seed):
        rng = np.random.default_rng(seed)
        scores = (5 * rng.standard_normal((num_edges, 2))).astype(np.float32)
        dst = rng.integers(0, num_dst, size=num_edges)
        alpha = edge_softmax_np(scores, dst, num_dst)
        sums = segment_sum_np(alpha, dst, num_dst)
        present = np.bincount(dst, minlength=num_dst) > 0
        np.testing.assert_allclose(sums[present], 1.0, rtol=1e-4)


class TestSpMM:
    """``neighbor_aggregate`` is the library's (unweighted) SpMM."""

    def test_forward_matches_dense(self, rng):
        adj = sp.random(6, 8, density=0.4, format="csr", dtype=np.float32, random_state=0)
        x = Tensor(rng.standard_normal((8, 3)).astype(np.float32), requires_grad=True)
        out = neighbor_aggregate(x, _csr_plan(adj))
        expected = (adj != 0).toarray().astype(np.float32) @ x.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_gradients(self, rng):
        adj = sp.random(5, 6, density=0.5, format="csr", dtype=np.float32, random_state=1)
        x = Tensor(rng.standard_normal((6, 2)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (neighbor_aggregate(x, _csr_plan(adj)) ** 2).sum(), [x])

    def test_three_dimensional_features(self, rng):
        adj = sp.random(4, 5, density=0.6, format="csr", dtype=np.float32, random_state=2)
        x = Tensor(rng.standard_normal((5, 2, 3)).astype(np.float32), requires_grad=True)
        plan = _csr_plan(adj)
        out = neighbor_aggregate(x, plan)
        assert out.shape == (4, 2, 3)
        check_gradients(lambda: (neighbor_aggregate(x, plan) ** 2).sum(), [x])

    def test_shape_mismatch_raises(self, rng):
        adj = sp.eye(4, format="csr", dtype=np.float32)
        x = Tensor(rng.standard_normal((5, 2)).astype(np.float32))
        with pytest.raises(ValueError):
            neighbor_aggregate(x, _csr_plan(adj))


class TestDifferentiableSegmentOps:
    """A segment reduction is ``neighbor_aggregate`` over the plan that
    sends item ``i`` to its segment."""

    def test_segment_sum_gradients(self, rng):
        values = Tensor(rng.standard_normal((12, 3)).astype(np.float32), requires_grad=True)
        plan = _segment_plan(rng.integers(0, 5, size=12), 5)
        check_gradients(lambda: (neighbor_aggregate(values, plan) ** 2).sum(), [values])

    def test_segment_mean_gradients(self, rng):
        values = Tensor(rng.standard_normal((10, 2)).astype(np.float32), requires_grad=True)
        plan = _segment_plan(rng.integers(0, 4, size=10), 4)
        check_gradients(lambda: (neighbor_aggregate(values, plan, op="mean") ** 2).sum(),
                        [values])

    def test_segment_mean_empty_segments_zero(self, rng):
        values = Tensor(np.ones((2, 2), dtype=np.float32))
        out = neighbor_aggregate(values, _segment_plan(np.array([3, 3]), 5), op="mean")
        np.testing.assert_allclose(out.data[0], 0.0)


class TestUMulESum:
    def test_forward_matches_loop(self, edge_set, rng):
        src, dst, plan, num_src, num_dst = edge_set
        x = Tensor(rng.standard_normal((num_src, 2, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((len(src), 2)).astype(np.float32))
        out = u_mul_e_sum(x, w, plan).data
        expected = np.zeros((num_dst, 2, 3), dtype=np.float32)
        for e, (s, d) in enumerate(zip(src, dst)):
            expected[d] += w.data[e][:, None] * x.data[s]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_gradients_multi_head(self, edge_set, rng):
        src, dst, plan, num_src, num_dst = edge_set
        x = Tensor(rng.standard_normal((num_src, 2, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((len(src), 2)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (u_mul_e_sum(x, w, plan) ** 2).sum(), [x, w])

    def test_gradients_single_head_2d(self, edge_set, rng):
        src, dst, plan, num_src, num_dst = edge_set
        x = Tensor(rng.standard_normal((num_src, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((len(src),)).astype(np.float32), requires_grad=True)
        out = u_mul_e_sum(x, w, plan)
        assert out.shape == (num_dst, 4)
        check_gradients(lambda: (u_mul_e_sum(x, w, plan) ** 2).sum(), [x, w])


class TestEdgeSoftmax:
    def test_normalization_per_destination(self, edge_set, rng):
        src, dst, plan, num_src, num_dst = edge_set
        scores = Tensor(rng.standard_normal((len(src), 3)).astype(np.float32))
        alpha = edge_softmax(scores, plan).data
        sums = segment_sum_np(alpha, dst, num_dst)
        present = np.bincount(dst, minlength=num_dst) > 0
        np.testing.assert_allclose(sums[present], 1.0, rtol=1e-5)

    def test_gradients(self, edge_set, rng):
        src, dst, plan, num_src, num_dst = edge_set
        scores = Tensor(rng.standard_normal((len(src), 2)).astype(np.float32), requires_grad=True)
        weights = rng.standard_normal((len(src), 2)).astype(np.float32)
        check_gradients(lambda: ((edge_softmax(scores, plan) * weights) ** 2).sum(),
                        [scores])

    def test_large_scores_stay_finite(self):
        scores = Tensor(np.array([[500.0], [501.0], [499.0]], dtype=np.float32))
        alpha = edge_softmax(scores, EdgePlan([0, 1, 2], [0, 0, 0], 1, 3)).data
        assert np.all(np.isfinite(alpha))
        assert np.isclose(alpha.sum(), 1.0, rtol=1e-5)
