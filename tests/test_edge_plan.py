"""Tests for the EdgePlan kernel layer (sort-once/reduce-many message passing).

Every plan-backed kernel is checked against the naive scipy / ``ufunc.at``
reference implementation (``tests/reference_kernels.py``) on adversarial
edge sets (empty segments, parallel edges, isolated sources, multiple
heads), the differentiable ops are gradchecked, and the ``build_counter``
tests prove that a training loop constructs each plan exactly once — the hot
path performs zero per-call sparsity derivation after warm-up.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.core import (
    SAR,
    DistributedGraph,
    RunningSoftmaxAccumulator,
    broadcast_parameters,
    sync_gradients,
)
from repro.distributed import run_distributed
from repro.graph import Graph
from repro.graph.mfg import build_mfg_pipeline
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.tensor import Tensor, edge_plan
from repro.tensor.edge_plan import EdgePlan
from repro.tensor.gradcheck import check_gradients
from repro.tensor.optim import Adam
from repro.tensor.sparse import (
    NEGATIVE_SLOPE,
    GATAggregation,
    leaky_relu_grad_np,
    leaky_relu_np,
    neighbor_aggregate,
    pool_aggregate,
)
from reference_kernels import (
    ReferenceGraph,
    add_block,
    fused_gat_backward_np,
    fused_gat_forward_np,
    segment_max_np,
    segment_sum_np,
)


def _random_edges(rng, num_src, num_dst, num_edges, parallel=False):
    src = rng.integers(0, num_src, num_edges).astype(np.int64)
    dst = rng.integers(0, num_dst, num_edges).astype(np.int64)
    if parallel:
        # Duplicate a third of the edges so parallel edges must accumulate.
        take = rng.integers(0, num_edges, num_edges // 3)
        src = np.concatenate([src, src[take]])
        dst = np.concatenate([dst, dst[take]])
    return src, dst


def _planned_gat(plan, z, sd, ss, grad, fused):
    """Output and ``(z, score_dst, score_src)`` gradients of
    :class:`GATAggregation`'s kernels, in the inputs' own dtype."""
    kernel = GATAggregation()
    kernel.needs_grad = True
    out = kernel.forward(*(Tensor(a, dtype=a.dtype) for a in (z, sd, ss)), plan, fused)
    return out, kernel.backward(grad)


EDGE_CASES = [
    # (num_src, num_dst, num_edges, parallel)
    pytest.param(30, 20, 150, False, id="dense"),
    pytest.param(30, 50, 40, False, id="empty-segments"),
    pytest.param(25, 25, 90, True, id="parallel-edges"),
    pytest.param(10, 10, 0, False, id="no-edges"),
]


class TestPlanKernelsMatchNaive:
    @pytest.mark.parametrize("num_src,num_dst,num_edges,parallel", EDGE_CASES)
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 4)])
    def test_segment_sum(self, rng, num_src, num_dst, num_edges, parallel, trailing):
        src, dst = _random_edges(rng, num_src, num_dst, num_edges, parallel)
        plan = EdgePlan(src, dst, num_dst, num_src)
        vals = rng.standard_normal((len(src),) + trailing).astype(np.float32)
        naive = segment_sum_np(vals, dst, num_dst)
        np.testing.assert_allclose(plan.segment_sum_sorted(plan.sort_edges(vals)), naive,
                                   rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("num_src,num_dst,num_edges,parallel", EDGE_CASES)
    def test_segment_sum_src_is_the_transpose_reduction(self, rng, num_src, num_dst,
                                                        num_edges, parallel):
        src, dst = _random_edges(rng, num_src, num_dst, num_edges, parallel)
        plan = EdgePlan(src, dst, num_dst, num_src)
        vals = rng.standard_normal((len(src), 3)).astype(np.float32)
        np.testing.assert_array_equal(plan.segment_sum_src_sorted(plan.sort_edges(vals)),
                                      _source_major_sum(src, dst, num_src, num_dst, vals))

    @pytest.mark.parametrize("num_src,num_dst,num_edges,parallel", EDGE_CASES)
    def test_aggregate_sum_mean_and_transpose(self, rng, num_src, num_dst,
                                              num_edges, parallel):
        src, dst = _random_edges(rng, num_src, num_dst, num_edges, parallel)
        plan = EdgePlan(src, dst, num_dst, num_src)
        x = rng.standard_normal((num_src, 5)).astype(np.float32)
        g = rng.standard_normal((num_dst, 5)).astype(np.float32)
        np.testing.assert_allclose(plan.aggregate_sum(x),
                                   segment_sum_np(x[src], dst, num_dst),
                                   rtol=1e-5, atol=1e-5)
        counts = np.maximum(np.bincount(dst, minlength=num_dst), 1)[:, None]
        np.testing.assert_allclose(plan.aggregate_mean(x),
                                   segment_sum_np(x[src], dst, num_dst) / counts,
                                   rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(plan.aggregate_sum_t(g),
                                      _source_major_aggregate(src, dst, num_src, g))

    @pytest.mark.parametrize("num_src,num_dst,num_edges,parallel", EDGE_CASES)
    @pytest.mark.parametrize("trailing", [(4,), (), (2, 3)], ids=["2d", "1d", "3d"])
    def test_aggregate_max(self, rng, num_src, num_dst, num_edges, parallel, trailing):
        src, dst = _random_edges(rng, num_src, num_dst, num_edges, parallel)
        plan = EdgePlan(src, dst, num_dst, num_src)
        x = rng.standard_normal((num_src,) + trailing).astype(np.float32)
        np.testing.assert_allclose(plan.aggregate_max(x),
                                   segment_max_np(x[src], dst, num_dst))

    @pytest.mark.parametrize("num_src,num_dst,num_edges,parallel", EDGE_CASES)
    @pytest.mark.parametrize("heads", [1, 4])
    def test_u_mul_e_sum_and_transpose(self, rng, num_src, num_dst, num_edges,
                                       parallel, heads):
        src, dst = _random_edges(rng, num_src, num_dst, num_edges, parallel)
        plan = EdgePlan(src, dst, num_dst, num_src)
        x = rng.standard_normal((num_src, heads, 6)).astype(np.float32)
        w = rng.standard_normal((len(src), heads)).astype(np.float32)
        g = rng.standard_normal((num_dst, heads, 6)).astype(np.float32)
        expected = np.zeros((num_dst, heads, 6), dtype=np.float32)
        for e in range(len(src)):
            expected[dst[e]] += w[e][:, None] * x[src[e]]
        w_sorted = plan.sort_edges(w)
        np.testing.assert_allclose(plan.u_mul_e_sum_sorted(x, w_sorted), expected,
                                   rtol=1e-4, atol=1e-4)
        expected_t = np.zeros((num_src, heads, 6), dtype=np.float32)
        for e in range(len(src)):
            expected_t[src[e]] += w[e][:, None] * g[dst[e]]
        np.testing.assert_allclose(plan.u_mul_e_sum_t_sorted(g, w_sorted), expected_t,
                                   rtol=1e-4, atol=1e-4)

    def test_empty_segments_read_minus_inf(self, rng):
        """Empty segments read ``-inf`` and every non-empty one its true
        maximum, below zero included."""
        src, dst = _random_edges(rng, 20, 10, 60)
        plan = EdgePlan(src, dst, 15, 20)  # destinations 10..14 have no in-edge
        x = -np.abs(rng.standard_normal((20, 3))).astype(np.float32)
        empty = np.bincount(dst, minlength=15) == 0
        expected = segment_max_np(x[src], dst, 15)
        expected[empty] = -np.inf
        np.testing.assert_array_equal(plan.aggregate_max(x), expected)
        np.testing.assert_array_equal(plan.segment_max_sorted(plan.gather_src(x)), expected)

    def test_shape_validation(self, rng):
        src, dst = _random_edges(rng, 10, 10, 30)
        plan = EdgePlan(src, dst, 10, 10)
        with pytest.raises(ValueError):
            plan.segment_sum_sorted(np.zeros((7, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            EdgePlan(src, dst[:-1], 10, 10)


class TestPlanBackedAutogradOps:
    """Gradcheck the differentiable ops with a plan attached."""

    def _graph(self, rng, num_nodes=12, num_edges=40):
        src, dst = _random_edges(rng, num_nodes, num_nodes, num_edges, parallel=True)
        return src, dst, EdgePlan(src, dst, num_nodes, num_nodes)

    @pytest.mark.parametrize("fused", [False, True], ids=["kept", "recomputed"])
    def test_gat_aggregation_gradcheck(self, rng, fused):
        src, dst, plan = self._graph(rng)
        z = Tensor(rng.standard_normal((12, 2, 3)).astype(np.float32), requires_grad=True)
        sd = Tensor(rng.standard_normal((12, 2)).astype(np.float32), requires_grad=True)
        ss = Tensor(rng.standard_normal((12, 2)).astype(np.float32), requires_grad=True)
        scale = Tensor(rng.standard_normal((12, 2, 3)).astype(np.float32))
        check_gradients(
            lambda: (GATAggregation.apply(z, sd, ss, plan, fused) * scale).sum(),
            [z, sd, ss],
        )

    def test_neighbor_aggregate_gradcheck(self, rng):
        src, dst, plan = self._graph(rng)
        x = Tensor(rng.standard_normal((12, 4)).astype(np.float32), requires_grad=True)
        scale = Tensor(rng.standard_normal((12, 4)).astype(np.float32))
        check_gradients(lambda: (neighbor_aggregate(x, plan) * scale).sum(), [x])

    def test_pool_aggregate_plan_matches_naive(self, rng):
        src, dst, plan = self._graph(rng)
        data = rng.standard_normal((12, 4)).astype(np.float32)
        grad_seed = rng.standard_normal((12, 4)).astype(np.float32)
        x = Tensor(data.copy(), requires_grad=True)
        out = pool_aggregate(x, plan)
        out.backward(grad_seed)
        expected = segment_max_np(data[src], dst, 12)
        expected = np.where(np.isfinite(expected), expected, 0.0)
        expected_grad = np.zeros_like(data)
        np.add.at(expected_grad, src, np.where(data[src] == expected[dst], grad_seed[dst], 0.0))
        np.testing.assert_allclose(out.data, expected)
        np.testing.assert_allclose(x.grad, expected_grad, rtol=1e-5, atol=1e-5)

    def test_plan_and_naive_layer_outputs_match(self, rng, sbm_graph):
        """Full GAT/SAGE layers produce the same results on the planned
        kernels and, through :class:`ReferenceGraph`, on the naive ones."""
        x_data = rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32)
        for layer_cls, kwargs in [
            (nn.GATConv, dict(num_heads=2)),
            (nn.FusedGATConv, dict(num_heads=2)),
            (nn.SageConv, dict(aggregator="mean")),
            (nn.SageConv, dict(aggregator="max")),
        ]:
            layer = layer_cls(8, 6, **kwargs)
            x = Tensor(x_data, requires_grad=True)
            out_plan = layer(sbm_graph, x)
            out_plan.backward(np.ones_like(out_plan.data))
            grad_plan = x.grad.copy()
            x.grad = None
            out_naive = layer(ReferenceGraph(sbm_graph), x)
            out_naive.backward(np.ones_like(out_naive.data))
            np.testing.assert_allclose(out_plan.data, out_naive.data,
                                       rtol=1e-4, atol=1e-4)
            np.testing.assert_allclose(grad_plan, x.grad, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("fused", [False, True], ids=["kept", "recomputed"])
    def test_fused_gat_np_kernels_match_naive(self, rng, fused):
        src, dst, plan = self._graph(rng, num_nodes=15, num_edges=60)
        z = rng.standard_normal((15, 2, 4)).astype(np.float32)
        sd = rng.standard_normal((15, 2)).astype(np.float32)
        ss = rng.standard_normal((15, 2)).astype(np.float32)
        grad = rng.standard_normal((15, 2, 4)).astype(np.float32)
        fwd_plan, bwd_plan = _planned_gat(plan, z, sd, ss, grad, fused)
        fwd_naive = fused_gat_forward_np(z, sd, ss, src, dst, 15)
        np.testing.assert_allclose(fwd_plan, fwd_naive, rtol=1e-5, atol=1e-5)
        bwd_naive = fused_gat_backward_np(grad, z, sd, ss, src, dst, 15)
        for a, b in zip(bwd_plan, bwd_naive):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)


class TestMessageFlowMasksWithPlan:
    def test_plan_and_adjacency_masks_agree(self, sbm_graph):
        seeds = np.array([0, 5, 77])
        with_plan = []
        for nodes in build_mfg_pipeline(sbm_graph, seeds, 3).node_lists:
            mask = np.zeros(sbm_graph.num_nodes, dtype=bool)
            mask[nodes] = True
            with_plan.append(mask)
        adj_t = sbm_graph.adjacency(transpose=True)
        current = np.zeros(sbm_graph.num_nodes, dtype=bool)
        current[seeds] = True
        without = [current]
        for _ in range(3):
            current = current | ((adj_t @ current.astype(np.float32)) > 0)
            without.insert(0, current)
        for a, b in zip(with_plan, without):
            np.testing.assert_array_equal(a, b)


class TestPlanCacheStats:
    def test_counters_track_hits_misses_evictions(self):
        cache = edge_plan.PlanCache(capacity=2)
        a = (np.array([0, 1]), np.array([1, 0]))
        b = (np.array([0, 2]), np.array([2, 1]))
        c = (np.array([1, 2]), np.array([0, 0]))
        cache.get(*a, 3, 3)
        cache.get(*a, 3, 3)
        cache.get(*b, 3, 3)
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 2, "evictions": 0, "size": 2, "capacity": 2,
        }
        cache.get(*c, 3, 3)  # third structure evicts the LRU entry (a)
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["size"] == 2
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "capacity": 2,
        }

    def test_shared_cache_exposes_stats(self):
        stats = edge_plan.shared_plan_cache().stats()
        assert set(stats) == {"hits", "misses", "evictions", "size", "capacity"}


class TestBuildCounter:
    def test_graph_plan_is_built_once(self, sbm_graph):
        before = edge_plan.build_counter
        p1 = sbm_graph.plan()
        after_first = edge_plan.build_counter
        p2 = sbm_graph.plan()
        assert p1 is p2
        assert after_first == before + 1
        assert edge_plan.build_counter == after_first

    def test_training_loop_builds_each_plan_exactly_once(self, rng, sbm_graph):
        """3 GAT iterations: warm-up builds the plan, later iterations build none."""
        x = Tensor(rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32))
        model = nn.GATConv(8, 4, num_heads=2)
        opt = Adam(model.parameters(), lr=1e-2)

        def iteration():
            model.zero_grad()
            out = model(sbm_graph, x)
            loss = (out * out).sum()
            loss.backward()
            opt.step()

        iteration()  # warm-up: builds the graph's single plan
        after_warmup = edge_plan.build_counter
        for _ in range(2):
            iteration()
        assert edge_plan.build_counter == after_warmup

    def test_distributed_training_builds_each_block_plan_once(self, small_dataset):
        """A 2-worker SAR GAT loop builds only per-block plans, all in iteration 1."""
        graph = small_dataset.graph
        assignment = partition_graph(graph, 2, seed=0)
        book = PartitionBook(assignment, 2)
        shards = create_shards(graph, book)
        counts = {}

        def worker(rank, comm, shard):
            dist = DistributedGraph(shard, comm, SAR)
            model = nn.GATConv(small_dataset.features.shape[1], 4, num_heads=2)
            broadcast_parameters(model.parameters(), comm)
            opt = Adam(model.parameters(), lr=1e-2)
            feats = Tensor(small_dataset.features[shard.global_node_ids])
            per_iter = []
            for _ in range(3):
                before = edge_plan.build_counter
                dist.begin_step()
                model.zero_grad()
                out = model(dist, feats)
                loss = (out * out).sum()
                loss.backward()
                sync_gradients(model.parameters(), comm)
                opt.step()
                per_iter.append(edge_plan.build_counter - before)
            counts[rank] = per_iter
            comm.barrier()

        run_distributed(worker, 2, worker_args=shards)
        total_first = sum(counts[r][0] for r in counts)
        assert total_first > 0  # warm-up really did build block plans
        for rank, per_iter in counts.items():
            assert per_iter[1] == 0 and per_iter[2] == 0, (
                f"rank {rank} built plans after warm-up: {per_iter}"
            )

    def test_hetero_relation_plans_cached(self):
        hg = Graph.from_relations(6, {
            "a": (np.array([0, 1, 2]), np.array([1, 2, 3])),
            "b": (np.array([3, 4]), np.array([4, 5])),
        })
        before = edge_plan.build_counter
        p1 = hg.relation_plan("a")
        p2 = hg.relation_plan("a")
        p3 = hg.relation_plan("b")
        assert p1 is p2 and p1 is not p3
        assert edge_plan.build_counter == before + 2


# --------------------------------------------------------------------------- #
# destination-sorted edge space (the fused attention kernel's primitives)
# --------------------------------------------------------------------------- #
def _hub_edges(rng):
    """Every edge but a handful lands on destination 3."""
    src = rng.integers(0, 12, 70).astype(np.int64)
    dst = np.full(70, 3, dtype=np.int64)
    dst[:6] = rng.integers(0, 9, 6)
    return src, dst


SORTED_SPACE_BLOCKS = [
    # (num_src, num_dst, builder)
    pytest.param(30, 20, lambda rng: _random_edges(rng, 30, 20, 150), id="dense"),
    pytest.param(10, 10, lambda rng: _random_edges(rng, 10, 10, 0), id="empty-block"),
    pytest.param(30, 50, lambda rng: _random_edges(rng, 30, 50, 40), id="dst-without-in-edge"),
    pytest.param(25, 25, lambda rng: _random_edges(rng, 25, 25, 90, parallel=True),
                 id="parallel-edges"),
    pytest.param(12, 9, _hub_edges, id="one-hub"),
]


def _per_head_spmm(rows, cols, num_rows, num_cols, weights, x):
    """``out[r, h] = Σ_e w[e, h] · x[c_e, h]`` the way it was computed before
    the head-blocked SpMM: per head, one CSR over the stable (row, col)-sorted
    edges, parallel edges stored separately."""
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=num_rows))])
    out = np.empty((num_rows,) + x.shape[1:], dtype=x.dtype)
    for h in range(x.shape[1]):
        adj = sp.csr_matrix((weights[order, h], cols[order], indptr),
                            shape=(num_rows, num_cols))
        out[:, h, :] = adj @ x[:, h, :]
    return out


def _source_major_aggregate(src, dst, num_src, g):
    """``out[s] = Σ_{e:(s→d)} g[d]`` through a source-major CSR: per source in
    ascending destination order, ties in input order."""
    ones = np.ones((len(src), 1), dtype=np.float32)
    return _per_head_spmm(src, dst, num_src, len(g), ones, g[:, None, :])[:, 0]


def _source_major_sum(src, dst, num_src, num_dst, per_edge):
    """``out[s] = Σ_{e:(s→d)} per_edge[e]`` in the source-major CSR's order:
    the per-edge ``(E, K)`` values are the weights of a unit-feature SpMM."""
    unit = np.ones((num_dst, per_edge.shape[1], 1), dtype=per_edge.dtype)
    return _per_head_spmm(src, dst, num_src, num_dst, per_edge, unit)[..., 0]


class TestSortedEdgeSpace:
    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS)
    @pytest.mark.parametrize("heads,dim", [(3, 4), (1, 5), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_primitives_match_the_naive_kernels(self, rng, num_src, num_dst, build,
                                                heads, dim, dtype):
        """``sort_edges`` is the stable (destination, source) sort of the
        input order, and every sorted-space kernel computes what the naive
        input-order kernel does (max bit for bit)."""
        src, dst = build(rng)
        plan = EdgePlan(src, dst, num_dst, num_src)
        per_edge = rng.standard_normal((len(src), heads)).astype(dtype)
        x_src = rng.standard_normal((num_src, heads, dim)).astype(dtype)
        y_dst = rng.standard_normal((num_dst, heads, dim)).astype(dtype)
        sorted_edge = plan.sort_edges(per_edge)

        np.testing.assert_array_equal(sorted_edge, per_edge[np.lexsort((src, dst))])
        np.testing.assert_array_equal(plan.expand_dst(y_dst), plan.sort_edges(y_dst[dst]))
        np.testing.assert_array_equal(plan.gather_src(x_src), plan.sort_edges(x_src[src]))
        np.testing.assert_allclose(plan.segment_sum_sorted(sorted_edge),
                                   segment_sum_np(per_edge, dst, num_dst),
                                   rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(plan.segment_sum_src_sorted(sorted_edge),
                                      _source_major_sum(src, dst, num_src, num_dst, per_edge))
        np.testing.assert_array_equal(plan.segment_max_sorted(sorted_edge),
                                      segment_max_np(per_edge, dst, num_dst))

    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS + [
        pytest.param(7, 4, lambda rng: _random_edges(rng, 7, 4, 0), id="no-edges-rectangular"),
    ])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_expand_dst_is_the_repeat_by_in_degree(self, rng, num_src, num_dst, build,
                                                   trailing, dtype):
        """``expand_dst`` copies what ``np.repeat(x, in_degrees)`` does, bit for
        bit, whatever the trailing shape, with empty segments and no edges."""
        src, dst = build(rng)
        plan = EdgePlan(src, dst, num_dst, num_src)
        x = rng.standard_normal((num_dst,) + trailing).astype(dtype)
        got = plan.expand_dst(x)
        want = np.repeat(x, plan.in_degrees, axis=0)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS + [
        pytest.param(7, 4, lambda rng: _random_edges(rng, 7, 4, 0), id="no-edges-rectangular"),
    ])
    @pytest.mark.parametrize("heads", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_head_blocked_spmm_equals_the_per_head_loop(self, rng, num_src, num_dst, build,
                                                        heads, dtype):
        src, dst = build(rng)
        plan = EdgePlan(src, dst, num_dst, num_src)
        per_edge = rng.standard_normal((len(src), heads)).astype(dtype)
        x_src = rng.standard_normal((num_src, heads, 5)).astype(dtype)
        y_dst = rng.standard_normal((num_dst, heads, 5)).astype(dtype)
        sorted_edge = plan.sort_edges(per_edge)
        forward = plan.u_mul_e_sum_sorted(x_src, sorted_edge)
        transpose = plan.u_mul_e_sum_t_sorted(y_dst, sorted_edge)
        assert forward.dtype == transpose.dtype == dtype
        np.testing.assert_array_equal(
            forward, _per_head_spmm(dst, src, num_dst, num_src, per_edge, x_src))
        np.testing.assert_array_equal(
            transpose, _per_head_spmm(src, dst, num_src, num_dst, per_edge, y_dst))

    def test_head_blocked_structure_is_built_once_per_head_count(self, rng):
        """The forward SpMM and its transpose share one structure per head
        count."""
        src, dst = _random_edges(rng, 25, 25, 90, parallel=True)
        plan = EdgePlan(src, dst, 25, 25)
        w = plan.sort_edges(rng.standard_normal((len(src), 4)))
        plan.u_mul_e_sum_sorted(np.zeros((25, 4, 2)), w)
        plan.u_mul_e_sum_t_sorted(np.zeros((25, 4, 2)), w)
        first = {h: plan._head_blocked(h) for h in (1, 4)}
        assert len({id(b) for b in first.values()}) == 2
        for heads, blocked in first.items():
            assert plan._head_blocked(heads) is blocked
        assert plan._blocked.keys() == {1, 4}
        with pytest.raises(ValueError, match="one per edge"):
            plan.u_mul_e_sum_sorted(np.zeros((25, 4, 2)), np.zeros((len(src) + 1, 4)))

    def test_sar_gat_net_builds_no_structure_after_warmup(self, small_dataset):
        """A two-layer GAT (4 heads, then 1) over two SAR workers: after the
        first epoch neither a plan nor a head-blocked structure is built."""
        graph = small_dataset.graph
        shards = create_shards(graph, PartitionBook(partition_graph(graph, 2, seed=0), 2))
        seen = {}

        def worker(rank, comm, shard):
            dist = DistributedGraph(shard, comm, SAR)
            model = nn.GATNet(small_dataset.features.shape[1], 4, 3, num_layers=2,
                              num_heads=4, dropout=0.0)
            broadcast_parameters(model.parameters(), comm)
            feats = Tensor(small_dataset.features[shard.global_node_ids])
            snapshots = []
            for _ in range(3):
                dist.begin_step()
                model.zero_grad()
                out = model(dist, feats)
                (out * out).sum().backward()
                comm.barrier()
                snapshots.append((edge_plan.build_counter, {
                    (q, key): id(blocked) for q, block in enumerate(shard.blocks)
                    for key, blocked in block.plan()._blocked.items()}))
            seen[rank] = snapshots

        run_distributed(worker, 2, worker_args=shards)
        for rank, (warm, *epochs) in seen.items():
            assert {key for _, key in warm[1]} == {1, 4}
            assert all(epoch == warm for epoch in epochs), f"rank {rank} rebuilt"

    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sddmm_is_the_unblocked_einsum_bit_for_bit(self, rng, monkeypatch, num_src,
                                                       num_dst, build, dtype):
        src, dst = build(rng)
        plan = EdgePlan(src, dst, num_dst, num_src)
        heads, dim = 2, 8
        # A strided view, like the z block unpacked from a fetched payload.
        packed = rng.standard_normal((num_src, heads * dim + heads)).astype(dtype)
        x_src = packed[:, :heads * dim].reshape(num_src, heads, dim)
        y_dst = rng.standard_normal((num_dst, heads, dim)).astype(dtype)
        expected = plan.sort_edges(np.einsum("ehd,ehd->eh", x_src[src], y_dst[dst]))
        row_bytes = 2 * heads * dim * np.dtype(dtype).itemsize
        for edges_per_chunk in (1, 7, 64, 10 ** 6):  # ragged tails, one chunk
            monkeypatch.setattr(edge_plan, "SDDMM_BLOCK_BYTES", edges_per_chunk * row_bytes)
            np.testing.assert_array_equal(plan.sddmm(x_src, y_dst), expected)

    def test_sddmm_rejects_operands_of_the_wrong_shape(self, rng):
        """The chunked gathers clip their indices, so a short operand must be
        refused at entry instead of read as its last row repeated."""
        plan = EdgePlan([0, 1, 2, 3], [0, 0, 1, 1], 2, 4)
        x_src = rng.standard_normal((4, 2, 3))
        y_dst = rng.standard_normal((2, 2, 3))
        assert plan.sddmm(x_src, y_dst).shape == (4, 2)
        for bad_x, bad_y in ((x_src[:2], y_dst), (x_src, y_dst[:1]),
                             (x_src, y_dst[:, :1]), (x_src, y_dst[..., :2]),
                             (x_src[:, 0], y_dst[:, 0])):
            with pytest.raises(ValueError, match="sddmm needs"):
                plan.sddmm(bad_x, bad_y)

    def test_weighted_spmm_rejects_weights_of_another_head_count(self, rng):
        """Both weighted SpMMs read ``H`` from the dense operand: ``(E, H')``
        weights with ``H' != H`` would fill the blocked matrix from the
        flattened weights, mixing heads, instead of raising."""
        plan = EdgePlan([0, 1, 2, 3], [0, 0, 1, 1], 2, 4)
        x = np.arange(16, dtype=np.float64).reshape(4, 2, 2)
        grad = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        weights = np.arange(8, dtype=np.float64).reshape(4, 2)
        assert plan.u_mul_e_sum_sorted(x, weights).shape == (2, 2, 2)
        assert plan.u_mul_e_sum_t_sorted(grad, weights).shape == (4, 2, 2)
        for bad in (np.arange(16.0).reshape(4, 4), weights[:, :1], weights.ravel()):
            with pytest.raises(ValueError, match="one per edge and head"):
                plan.u_mul_e_sum_sorted(x, bad)
            with pytest.raises(ValueError, match="one per edge and head"):
                plan.u_mul_e_sum_t_sorted(grad, bad)

    def test_one_block_sorts_its_edges_once(self, rng, monkeypatch, sbm_graph):
        """A GAT and a max-pooling layer, forward and backward, over one fresh
        block: every kernel, the transposes included, reads the one
        destination-major sort."""
        block = build_mfg_pipeline(sbm_graph, np.arange(0, sbm_graph.num_nodes, 7),
                                   num_layers=1).blocks[0]
        sorts = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, *args, **kwargs):
                sorts.append("argsort")
                return np.argsort(*args, **kwargs)

            def lexsort(self, *args, **kwargs):
                sorts.append("lexsort")
                return np.lexsort(*args, **kwargs)

        monkeypatch.setattr(edge_plan, "np", CountingNumpy())
        x = Tensor(rng.standard_normal((block.num_src_nodes, 8)).astype(np.float32),
                   requires_grad=True)
        for layer in (nn.GATConv(8, 4, num_heads=2), nn.SageConv(8, 4, aggregator="max")):
            layer(block, x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()
        assert sorts == ["argsort"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_helpers_equal_the_select(self, rng, dtype):
        raw = rng.standard_normal((50, 3)).astype(dtype)
        raw[0] = [0.0, -0.0, np.inf]
        raw[1, 0] = -np.inf
        grad = rng.standard_normal(raw.shape).astype(dtype)
        out = leaky_relu_np(raw)
        expected = np.where(raw > 0, raw, NEGATIVE_SLOPE * raw)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)
        grad_in = leaky_relu_grad_np(grad, raw > 0)
        assert grad_in.dtype == dtype
        np.testing.assert_array_equal(grad_in, np.where(raw > 0, grad, NEGATIVE_SLOPE * grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_grad_is_bit_equal_to_the_masked_multiply(self, rng, dtype):
        """The branch-free factor multiply gives the masked multiply's bits,
        signed zeros, infinities and NaNs included, in place or not."""
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        grad = rng.standard_normal((40, 4)).astype(dtype)
        grad[:len(special)] = special[:, None]  # every special under both signs
        positive = rng.standard_normal(grad.shape) > 0
        positive[:len(special), :2] = [True, False]
        expected = grad.copy()
        np.multiply(expected, dtype(NEGATIVE_SLOPE), out=expected, where=~positive)
        got = leaky_relu_grad_np(grad, positive)
        in_place = grad.copy()
        assert leaky_relu_grad_np(in_place, positive, out=in_place) is in_place
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        for out in (got, in_place):
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.view(bits), expected.view(bits))

    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS)
    @pytest.mark.parametrize("heads,dim", [(2, 3), (1, 5), (4, 1)],
                             ids=["2-heads", "1-head", "4-heads-width-1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_gat_kernels_match_naive(self, rng, num_src, num_dst, build, dtype,
                                           heads, dim):
        """The whole one-block attention kernel, planned vs the naive reference,
        at one head, several heads and unit head width; keeping α and
        recomputing it give the same bits."""
        src, dst = build(rng)
        plan = EdgePlan(src, dst, num_dst, num_src)
        z = rng.standard_normal((num_src, heads, dim)).astype(dtype)
        sd = rng.standard_normal((num_dst, heads)).astype(dtype)
        ss = rng.standard_normal((num_src, heads)).astype(dtype)
        grad = rng.standard_normal((num_dst, heads, dim)).astype(dtype)
        tol = (dict(rtol=1e-4, atol=1e-5) if dtype == np.float32
               else dict(rtol=1e-10, atol=1e-12))
        planned, planned_grads = _planned_gat(plan, z, sd, ss, grad, True)
        kept, kept_grads = _planned_gat(plan, z, sd, ss, grad, False)
        np.testing.assert_array_equal(kept, planned)
        for a, b in zip(kept_grads, planned_grads):
            np.testing.assert_array_equal(a, b)
        naive = fused_gat_forward_np(z, sd, ss, src, dst, num_dst)
        assert planned.dtype == naive.dtype
        np.testing.assert_allclose(planned, naive, **tol)
        for a, b in zip(planned_grads,
                        fused_gat_backward_np(grad, z, sd, ss, src, dst, num_dst)):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_allclose(a, b, **tol)

    @pytest.mark.parametrize("num_src,num_dst,build", SORTED_SPACE_BLOCKS)
    @pytest.mark.parametrize("stable", [True, False])
    def test_accumulator_sorted_blocks_equal_reference_blocks(self, rng, num_src, num_dst,
                                                              build, stable):
        """Three blocks into one accumulator; destinations a block does not
        reach keep a running max of −inf through its rescale."""
        heads, dim = 2, 3
        sorted_acc = RunningSoftmaxAccumulator(num_dst, heads, dim, stable=stable)
        reference = RunningSoftmaxAccumulator(num_dst, heads, dim, stable=stable)
        for _ in range(3):
            src, dst = build(rng)
            plan = EdgePlan(src, dst, num_dst, num_src)
            logits = rng.standard_normal((len(src), heads)).astype(np.float32)
            values = rng.standard_normal((num_src, heads, dim)).astype(np.float32)
            sorted_acc.add_block_sorted(plan.sort_edges(logits), values, plan)
            add_block(reference, logits, values, dst, src)
        np.testing.assert_allclose(sorted_acc.finalize(), reference.finalize(),
                                   rtol=1e-5, atol=1e-6)
        (got_max, got_denom), (want_max, want_denom) = sorted_acc.state(), reference.state()
        np.testing.assert_array_equal(got_max, want_max)
        np.testing.assert_allclose(got_denom, want_denom, rtol=1e-5)

    def test_gat_aggregation_backward_does_not_depend_on_sddmm_chunking(self, rng,
                                                                         monkeypatch):
        src, dst = _random_edges(rng, 14, 11, 60, parallel=True)
        plan = EdgePlan(src, dst, 11, 14)
        z = rng.standard_normal((14, 2, 4)).astype(np.float32)
        sd = rng.standard_normal((11, 2)).astype(np.float32)
        ss = rng.standard_normal((14, 2)).astype(np.float32)
        grad = rng.standard_normal((11, 2, 4)).astype(np.float32)
        _, unblocked = _planned_gat(plan, z, sd, ss, grad, True)
        monkeypatch.setattr(edge_plan, "SDDMM_BLOCK_BYTES", 5 * 2 * 2 * 4 * 4)  # 5 edges
        _, blocked = _planned_gat(plan, z, sd, ss, grad, True)
        for a, b in zip(blocked, unblocked):
            np.testing.assert_array_equal(a, b)
