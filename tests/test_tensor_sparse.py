"""Unit and property-based tests for the sparse / segment message-passing ops."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import EdgePlan, Tensor, check_gradients
from repro.tensor.sparse import GATAggregation, neighbor_aggregate, pool_aggregate
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
    """``neighbor_aggregate`` is the library's in-degree-normalized SpMM."""

    def test_forward_matches_dense(self, rng):
        adj = sp.random(6, 8, density=0.4, format="csr", dtype=np.float32, random_state=0)
        x = Tensor(rng.standard_normal((8, 3)).astype(np.float32), requires_grad=True)
        out = neighbor_aggregate(x, _csr_plan(adj))
        dense = (adj != 0).toarray().astype(np.float32)
        expected = dense @ x.data / np.maximum(dense.sum(axis=1), 1)[:, None]
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


class TestDifferentiableSegmentOps:
    """A segment mean is ``neighbor_aggregate`` over the plan that sends
    item ``i`` to its segment."""

    def test_segment_mean_gradients(self, rng):
        values = Tensor(rng.standard_normal((10, 2)).astype(np.float32), requires_grad=True)
        plan = _segment_plan(rng.integers(0, 4, size=10), 4)
        check_gradients(lambda: (neighbor_aggregate(values, plan) ** 2).sum(), [values])

    def test_segment_mean_empty_segments_zero(self, rng):
        values = Tensor(np.ones((2, 2), dtype=np.float32))
        out = neighbor_aggregate(values, _segment_plan(np.array([3, 3]), 5))
        np.testing.assert_allclose(out.data[0], 0.0)


class TestGATAggregation:
    """The attention op: softmax over each destination's in-edges, then the
    weighted sum of source rows; ``fused`` changes only what is kept."""

    @pytest.mark.parametrize("fused", [False, True], ids=["kept", "recomputed"])
    def test_forward_matches_loop(self, edge_set, rng, fused):
        src, dst, plan, num_src, num_dst = edge_set
        z = Tensor(rng.standard_normal((num_src, 2, 3)).astype(np.float32))
        sd = rng.standard_normal((num_dst, 2)).astype(np.float32)
        ss = rng.standard_normal((num_src, 2)).astype(np.float32)
        out = GATAggregation.apply(z, Tensor(sd), Tensor(ss), plan, fused).data
        raw = sd[dst] + ss[src]
        alpha = edge_softmax_np(np.where(raw > 0, raw, 0.2 * raw), dst, num_dst)
        expected = np.zeros((num_dst, 2, 3), dtype=np.float32)
        for e, (s, d) in enumerate(zip(src, dst)):
            expected[d] += alpha[e][:, None] * z.data[s]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("fused", [False, True], ids=["kept", "recomputed"])
    def test_gradients(self, edge_set, rng, fused):
        src, dst, plan, num_src, num_dst = edge_set
        z = Tensor(rng.standard_normal((num_src, 2, 3)).astype(np.float32), requires_grad=True)
        sd = Tensor(rng.standard_normal((num_dst, 2)).astype(np.float32), requires_grad=True)
        ss = Tensor(rng.standard_normal((num_src, 2)).astype(np.float32), requires_grad=True)
        check_gradients(
            lambda: (GATAggregation.apply(z, sd, ss, plan, fused) ** 2).sum(), [z, sd, ss])

    def test_coefficients_normalize_per_destination(self, edge_set, rng):
        """Aggregating all-ones rows gives 1 wherever a destination has an in-edge."""
        src, dst, plan, num_src, num_dst = edge_set
        out = GATAggregation.apply(
            Tensor(np.ones((num_src, 3, 2), np.float32)),
            Tensor(rng.standard_normal((num_dst, 3)).astype(np.float32)),
            Tensor(rng.standard_normal((num_src, 3)).astype(np.float32)), plan, True)
        present = np.bincount(dst, minlength=num_dst) > 0
        np.testing.assert_allclose(out.data[present], 1.0, rtol=1e-5)
        np.testing.assert_array_equal(out.data[~present], 0.0)

    def test_large_scores_stay_finite(self):
        plan = EdgePlan([0, 1, 2], [0, 0, 0], 1, 3)
        out = GATAggregation.apply(
            Tensor(np.ones((3, 1, 1), np.float32)), Tensor(np.zeros((1, 1), np.float32)),
            Tensor(np.array([[500.0], [501.0], [499.0]], np.float32)), plan, True)
        assert np.all(np.isfinite(out.data))
        assert np.isclose(out.data.item(), 1.0, rtol=1e-5)


@pytest.mark.parametrize("op,name,space", [
    ("neighbor_aggregate", "x", "sources"),
    ("pool_aggregate", "x", "sources"),
    ("gat_aggregation", "z", "sources"),
    ("gat_aggregation", "score_src", "sources"),
    ("gat_aggregation", "score_dst", "destinations"),
])
@pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
@pytest.mark.parametrize("rows", [1, 4], ids=["short", "tall"])
def test_plan_ops_reject_a_wrong_row_count_at_forward(op, name, space, grad, rows):
    """Every plan-backed op checks each input's height against the plan's
    source or destination count at forward time, with or without autograd."""
    plan = EdgePlan([0, 1, 2, 1], [0, 0, 1, 1], 2, 3)  # 2 destinations, 3 sources

    def ones(num_rows, *trailing):
        return Tensor(np.ones((num_rows,) + trailing, np.float32), requires_grad=grad)

    expected = plan.num_dst if space == "destinations" else plan.num_src
    message = f"{name} has {rows} rows but plan expects {expected} {space}"
    if op == "gat_aggregation":
        inputs = {"z": ones(3, 1, 2), "score_dst": ones(2, 1), "score_src": ones(3, 1)}
        inputs[name] = ones(rows, *inputs[name].shape[1:])
        with pytest.raises(ValueError, match=message):
            GATAggregation.apply(inputs["z"], inputs["score_dst"], inputs["score_src"], plan,
                                 False)
    else:
        fn = neighbor_aggregate if op == "neighbor_aggregate" else pool_aggregate
        with pytest.raises(ValueError, match=message):
            fn(ones(rows, 2), plan)
