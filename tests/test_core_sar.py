"""Tests for the SAR core: distributed aggregation correctness, communication
behaviour (case 1 vs case 2), memory behaviour (SAR vs vanilla DP), and
gradient synchronization."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import (
    DOMAIN_PARALLEL,
    SAR,
    SARConfig,
    DistributedGraph,
    broadcast_parameters,
    parameters_in_sync,
    sync_gradients,
)
from repro.datasets import make_hetero_sbm_dataset
from repro.distributed import run_distributed
from repro.distributed.mp_backend import run_multiprocess
from repro.partition import (
    PartitionBook,
    create_shards,
    partition_graph,
)
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.utils.seed import set_seed
from reference_kernels import edge_softmax_np

WORLD = 4


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _shards_for(graph, num_parts=WORLD, seed=0):
    assignment = partition_graph(graph, num_parts, seed=seed)
    book = PartitionBook(assignment, num_parts)
    return book, create_shards(graph, book)


def _reference_gat_aggregate(graph, z, sd, ss):
    raw = sd[graph.dst] + ss[graph.src]
    logits = np.where(raw > 0, raw, 0.2 * raw)
    alpha = edge_softmax_np(logits, graph.dst, graph.num_nodes)
    out = np.zeros_like(z)
    for e in range(graph.num_edges):
        out[graph.dst[e]] += alpha[e][:, None] * z[graph.src[e]]
    return out


# --------------------------------------------------------------------------- #
# case 1: mean aggregation
# --------------------------------------------------------------------------- #
class TestDistributedMeanAggregation:
    @pytest.mark.parametrize("world", [WORLD, 2, 3])
    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_matches_single_machine_forward_and_backward(self, sbm_graph, rng, mode, world):
        z_full = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        grad_seed = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        # single-machine reference
        adj = sbm_graph.adjacency(normalization="mean")
        expected = np.asarray(adj @ z_full)
        expected_grad = np.asarray(adj.T @ grad_seed)

        book, shards = _shards_for(sbm_graph, world)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            out = dg.aggregate_neighbors(z, op="mean")
            out.backward(grad_seed[shard.global_node_ids])
            return out.data, z.grad

        result = run_distributed(worker, world, worker_args=shards)
        out_global = book.scatter_to_global([r[0] for r in result.results])
        grad_global = book.scatter_to_global([r[1] for r in result.results])
        np.testing.assert_allclose(out_global, expected, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(grad_global, expected_grad, rtol=1e-3, atol=1e-3)

    def test_case1_has_no_backward_refetch(self, sbm_graph, rng):
        """GraphSage is 'case 1': SAR must not re-fetch features in backward."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR)
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            out = dg.aggregate_neighbors(z, op="mean")
            (out ** 2).sum().backward()
            return dict(comm.stats.received_by_tag)

        result = run_distributed(worker, WORLD, worker_args=shards)
        for tags in result.results:
            assert "backward_refetch" not in tags
            assert "forward_halo" in tags

    def test_sar_and_dp_same_communication_volume_for_case1(self, sbm_graph, rng):
        """Paper §3.2: for mean aggregation SAR introduces no comm overhead."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        volumes = {}
        for mode in ("sar", "dp"):
            def worker(rank, comm, shard, mode=mode):
                dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
                dg.begin_step()
                z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
                (dg.aggregate_neighbors(z, op="mean") ** 2).sum().backward()
                return comm.stats.bytes_sent + comm.stats.bytes_received

            result = run_distributed(worker, WORLD, worker_args=shards)
            volumes[mode] = sum(result.results)
        assert volumes["sar"] == volumes["dp"]


# --------------------------------------------------------------------------- #
# case 2: attention aggregation
# --------------------------------------------------------------------------- #
class TestDistributedGATAggregation:
    @pytest.mark.parametrize("mode,fused", [("sar", False), ("sar", True), ("dp", False)])
    def test_matches_single_machine(self, sbm_graph, rng, mode, fused):
        heads, dim = 2, 3
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        sd_full = rng.standard_normal((n, heads)).astype(np.float32)
        ss_full = rng.standard_normal((n, heads)).astype(np.float32)
        grad_seed = rng.standard_normal((n, heads, dim)).astype(np.float32)
        expected = _reference_gat_aggregate(sbm_graph, z_full, sd_full, ss_full)

        book, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
            dg.begin_step()
            ids = shard.global_node_ids
            z = Tensor(z_full[ids], requires_grad=True)
            sd = Tensor(sd_full[ids], requires_grad=True)
            ss = Tensor(ss_full[ids], requires_grad=True)
            out = dg.gat_aggregate(z, sd, ss, fused=fused)
            out.backward(grad_seed[ids])
            return out.data, z.grad, sd.grad, ss.grad

        result = run_distributed(worker, WORLD, worker_args=shards)
        out_global = book.scatter_to_global([r[0] for r in result.results])
        np.testing.assert_allclose(out_global, expected, rtol=1e-3, atol=1e-3)

        # Gradients must match a single-machine autograd reference.
        z_t = Tensor(z_full, requires_grad=True)
        sd_t = Tensor(sd_full, requires_grad=True)
        ss_t = Tensor(ss_full, requires_grad=True)
        ref_out = sbm_graph.gat_aggregate(z_t, sd_t, ss_t, fused=True)
        ref_out.backward(grad_seed)
        np.testing.assert_allclose(
            book.scatter_to_global([r[1] for r in result.results]), z_t.grad,
            rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            book.scatter_to_global([r[2] for r in result.results]), sd_t.grad,
            rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            book.scatter_to_global([r[3] for r in result.results]), ss_t.grad,
            rtol=1e-3, atol=1e-3)

    def test_sar_refetches_and_dp_does_not(self, sbm_graph, rng):
        """Paper §3.2 case 2: SAR re-fetches remote features during backward."""
        heads, dim = 2, 2
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        tags = {}
        for mode in ("sar", "dp"):
            def worker(rank, comm, shard, mode=mode):
                dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
                dg.begin_step()
                ids = shard.global_node_ids
                z = Tensor(z_full[ids], requires_grad=True)
                sd = Tensor(s_full[ids], requires_grad=True)
                ss = Tensor(s_full[ids], requires_grad=True)
                (dg.gat_aggregate(z, sd, ss) ** 2).sum().backward()
                return dict(comm.stats.received_by_tag)

            result = run_distributed(worker, WORLD, worker_args=shards)
            tags[mode] = result.results
        assert all("backward_refetch" in t for t in tags["sar"])
        assert all("backward_refetch" not in t for t in tags["dp"])

    def test_sar_uses_less_memory_than_dp(self, sbm_graph, rng):
        """The headline claim: SAR's peak per-worker memory is below vanilla DP's."""
        heads, dim = 4, 8
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        peaks = {}
        for mode in ("sar", "dp"):
            def worker(rank, comm, shard, mode=mode):
                dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
                dg.begin_step()
                ids = shard.global_node_ids
                z = Tensor(z_full[ids], requires_grad=True)
                sd = Tensor(s_full[ids], requires_grad=True)
                ss = Tensor(s_full[ids], requires_grad=True)
                (dg.gat_aggregate(z, sd, ss) ** 2).sum().backward()
                return None

            result = run_distributed(worker, WORLD, worker_args=shards)
            peaks[mode] = max(result.peak_memory_bytes)
        assert peaks["sar"] < peaks["dp"]

    def test_prefetch_memory_between_sar_and_dp(self, sbm_graph, rng):
        """Prefetching (§3.4) keeps one extra partition resident: 3/N instead of 2/N."""
        heads, dim = 4, 8
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        peaks = {}
        for name, config in (("sar", SAR), ("prefetch", SARConfig("sar", prefetch=True)),
                             ("dp", DOMAIN_PARALLEL)):
            def worker(rank, comm, shard, config=config):
                dg = DistributedGraph(shard, comm, config)
                dg.begin_step()
                ids = shard.global_node_ids
                z = Tensor(z_full[ids], requires_grad=True)
                sd = Tensor(s_full[ids], requires_grad=True)
                ss = Tensor(s_full[ids], requires_grad=True)
                (dg.gat_aggregate(z, sd, ss) ** 2).sum().backward()
                return None

            result = run_distributed(worker, WORLD, worker_args=shards)
            peaks[name] = max(result.peak_memory_bytes)
        assert peaks["sar"] <= peaks["prefetch"] <= peaks["dp"]


class TestAttentionScoreShapes:
    """Scores must be ``(rows, H)`` for ``z`` of ``H`` heads; a wrong head
    count is named at the call, not found deep in the head-blocked gather."""

    BAD_SCORES = [(1,), (), (2,)]  # trailing shapes for a 4-head z

    @pytest.mark.parametrize("trailing", BAD_SCORES, ids=["1-head", "flat", "2-head"])
    @pytest.mark.parametrize("which", ["score_dst", "score_src"])
    def test_single_machine(self, sbm_graph, rng, which, trailing):
        n = sbm_graph.num_nodes
        inputs = {"z": Tensor(rng.standard_normal((n, 4, 3)).astype(np.float32)),
                  "score_dst": Tensor(np.zeros((n, 4), np.float32)),
                  "score_src": Tensor(np.zeros((n, 4), np.float32))}
        inputs[which] = Tensor(np.zeros((n,) + trailing, np.float32))
        with pytest.raises(ValueError, match=rf"{which} has shape .*expected \(rows, H\) "
                                             rf"= \({n}, 4\)"):
            sbm_graph.gat_aggregate(inputs["z"], inputs["score_dst"], inputs["score_src"])

    @pytest.mark.parametrize("trailing", BAD_SCORES, ids=["1-head", "flat", "2-head"])
    @pytest.mark.parametrize("which", ["score_dst", "score_src"])
    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_distributed(self, sbm_graph, rng, mode, which, trailing):
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4, 3)).astype(np.float32)
        _, shards = _shards_for(sbm_graph, num_parts=2)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
            dg.begin_step()
            n = shard.num_local_nodes
            scores = {"score_dst": np.zeros((n, 4), np.float32),
                      "score_src": np.zeros((n, 4), np.float32)}
            scores[which] = np.zeros((n,) + trailing, np.float32)
            try:
                dg.gat_aggregate(Tensor(z_full[shard.global_node_ids]),
                                 Tensor(scores["score_dst"]), Tensor(scores["score_src"]))
            except ValueError as exc:
                return str(exc), n
            return None, n

        for message, n in run_distributed(worker, 2, worker_args=shards).results:
            assert message == (f"{which} has shape {(n,) + trailing}, "
                               f"expected (rows, H) = ({n}, 4)")


def _sar_step_peaks(dataset, build, world):
    """Each rank's tracked peak and ``tracemalloc`` peak over one SAR training
    step of ``build()`` on ``dataset``, one forked process per rank, tracing
    from the top of the worker (every byte Python allocates, not only
    tracked buffers)."""
    _, shards = _shards_for(dataset.graph, num_parts=world)
    set_seed(3)
    state = build().state_dict()

    def worker(rank, comm, shard):
        tracemalloc.start()
        model = build()
        model.load_state_dict(state)
        dg = DistributedGraph(shard, comm, SAR)
        dg.begin_step()
        ids = shard.global_node_ids
        logits = model(dg, Tensor(dataset.features[ids]))
        train = dataset.train_mask[ids]
        F.cross_entropy(logits[np.flatnonzero(train)], dataset.labels[ids][train]).backward()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    result = run_multiprocess(worker, world, worker_args=shards)
    return result.peak_memory_bytes, result.results


def _gat(dataset):
    return nn.GATNet(dataset.feature_dim, 32, dataset.num_classes, num_layers=2,
                     num_heads=4, dropout=0.0)


def _sage(dataset):
    return nn.GraphSageNet(dataset.feature_dim, 64, dataset.num_classes, num_layers=2,
                           dropout=0.0)


class TestGATBackwardPeak:
    """What a SAR GAT rank holds at its backward peak: one training step of a
    2-layer, 4 × 32 GAT on ``small_dataset`` at world 2."""

    #: tracked peak per rank.  The two ``Mul`` + ``Sum`` score pairs kept
    #: their ``(N, H, D)`` products alive for the backward; the score op
    #: keeps none (568 388 / 567 732 bytes before it).  Since parent edges
    #: stopped holding input tensors and saved arrays count, it read
    #: 394 928 on both ranks (441 668 / 441 012 before); since the layer
    #: epilogue is one node, no BatchNorm output tensor and no ELU branch is
    #: alive beside its input, and it reads 281 268 / 280 948.
    TRACKER_PEAKS = [281_268, 280_948]
    #: the larger rank's ``tracemalloc`` peak before the cut (packed payload,
    #: out-of-place attention backward, 2 MiB SDDMM chunks), and the saving
    #: measured after it (its peak read 1 548 463 bytes, to ±0.5 kB)
    TRACED_PEAK_BEFORE = 3_077_840
    TRACED_SAVING = 1_529_000

    def test_the_cut_holds(self, small_dataset):
        trackers, traced = _sar_step_peaks(small_dataset, lambda: _gat(small_dataset), 2)
        assert trackers == self.TRACKER_PEAKS
        assert max(traced) < self.TRACED_PEAK_BEFORE - self.TRACED_SAVING // 2


class TestSARStepPeaks:
    """Per-rank peaks of one SAR training step — a 2-layer GraphSage (hidden
    64) and a 2-layer, 4 × 32 GAT, dropout 0, on ``small_dataset`` — at world
    2 and 4, on forked processes.  The autograd graph links nodes through
    their ``Function``s, so an intermediate no node saved is freed when the
    forward moves on; the tracker counts the arrays nodes save."""

    #: tracked peak per rank (the partition splits the nodes evenly, and the
    #: peak falls where no halo block is resident).  Before the layer
    #: epilogue was one node — BatchNorm's output tensor and ReLU's mask or
    #: ELU's branch alive beside its input — they read 121 360 and 65 680
    #: (SAGE), 394 928 and 203 888 (GAT) on every rank.
    TRACKER_PEAKS = {
        ("sage", 2): [112_656] * 2,
        ("sage", 4): [60_816] * 4,
        ("gat", 2): [281_268, 280_948],
        ("gat", 4): [146_628, 146_468, 146_588, 146_308],
    }
    #: the larger rank's ``tracemalloc`` peak while parent edges held every
    #: input tensor, and the saving measured since (to ±1 kB)
    TRACED_PEAK_BEFORE = {
        ("sage", 2): 520_214,
        ("sage", 4): 305_311,
        ("gat", 2): 1_542_735,
        ("gat", 4): 1_097_910,
    }
    TRACED_SAVING = {
        ("sage", 2): 160_100,
        ("sage", 4): 78_800,
        ("gat", 2): 185_800,
        ("gat", 4): 89_700,
    }

    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_step_peaks(self, small_dataset, kind, world):
        build = {"sage": _sage, "gat": _gat}[kind]
        trackers, traced = _sar_step_peaks(small_dataset, lambda: build(small_dataset), world)
        assert trackers == self.TRACKER_PEAKS[kind, world]
        assert (max(traced) < self.TRACED_PEAK_BEFORE[kind, world]
                - self.TRACED_SAVING[kind, world] // 2)


# --------------------------------------------------------------------------- #
# case 2: relational aggregation
# --------------------------------------------------------------------------- #
class TestDistributedRGCNAggregation:
    @pytest.fixture
    def hetero_setup(self, rng):
        dataset = make_hetero_sbm_dataset(
            "test-mag", num_nodes=160, num_classes=4, feature_dim=6,
            relation_specs={
                "a": {"p_in": 0.1, "p_out": 0.01},
                "b": {"p_in": 0.05, "p_out": 0.02},
            }, seed=4,
        )
        hetero = dataset.graph
        assignment = partition_graph(dataset.graph, WORLD, seed=0)
        book = PartitionBook(assignment, WORLD)
        shards = create_shards(hetero, book)
        return hetero, book, shards

    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_matches_single_machine_layer(self, hetero_setup, rng, mode):
        hetero, book, shards = hetero_setup
        set_seed(9)
        layer = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2)
        x_full = rng.standard_normal((hetero.num_nodes, 6)).astype(np.float32)
        expected = layer(hetero, Tensor(x_full)).data
        state = layer.state_dict()

        def worker(rank, comm, shard):
            replica = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2)
            replica.load_state_dict(state)
            dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
            dg.begin_step()
            x = Tensor(x_full[shard.global_node_ids], requires_grad=True)
            out = replica(dg, x)
            (out ** 2).sum().backward()
            grads = [p.grad.copy() for p in replica.parameters()]
            return out.data, grads, dict(comm.stats.received_by_tag)

        result = run_distributed(worker, WORLD, worker_args=shards)
        out_global = book.scatter_to_global([r[0] for r in result.results])
        np.testing.assert_allclose(out_global, expected, rtol=1e-3, atol=1e-3)

        # Parameter gradients: sum of per-worker contributions == single machine.
        x_ref = Tensor(x_full, requires_grad=True)
        layer.zero_grad()
        (layer(hetero, x_ref) ** 2).sum().backward()
        for index, param in enumerate(layer.parameters()):
            total = sum(r[1][index] for r in result.results)
            np.testing.assert_allclose(total, param.grad, rtol=2e-3, atol=2e-3)

        # Case 2 communication behaviour.
        refetches = ["backward_refetch" in r[2] for r in result.results]
        assert all(refetches) if mode == "sar" else not any(refetches)

    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_outputs_and_gradients_are_pinned(self, hetero_setup, mode):
        """Per rank, the layer's output and the input and parameter gradients
        are fixed bit for bit — the same under SAR and DP, whose block order
        and reductions agree."""
        hetero, _, shards = hetero_setup
        x_full = np.random.default_rng(0).standard_normal((hetero.num_nodes, 6)).astype(np.float32)
        set_seed(9)
        state = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2).state_dict()

        def worker(rank, comm, shard):
            replica = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2)
            replica.load_state_dict(state)
            dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
            dg.begin_step()
            x = Tensor(x_full[shard.global_node_ids], requires_grad=True)
            out = replica(dg, x)
            (out ** 2).sum().backward()
            return [out.data, x.grad] + [p.grad for p in replica.parameters()]

        sha = hashlib.sha256()
        for arrays in run_distributed(worker, WORLD, worker_args=shards).results:
            for array in arrays:
                sha.update(np.ascontiguousarray(array, dtype="<f4").tobytes())
        assert sha.hexdigest()[:16] == "21364ce6609e7072"


# --------------------------------------------------------------------------- #
# gradient synchronization helpers
# --------------------------------------------------------------------------- #
class TestGradSync:
    def test_sync_gradients_sums_and_scales(self):
        def worker(rank, comm):
            p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
            p.grad = np.full(3, float(rank + 1), dtype=np.float32)
            sync_gradients([p], comm, scale=0.5)
            return p.grad.copy()

        result = run_distributed(worker, 3)
        for grads in result.results:
            np.testing.assert_allclose(grads, 0.5 * (1 + 2 + 3))

    def test_sync_handles_missing_grads(self):
        def worker(rank, comm):
            p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
            if rank == 0:
                p.grad = np.ones(2, dtype=np.float32)
            sync_gradients([p], comm)
            return p.grad.copy()

        result = run_distributed(worker, 2)
        for grads in result.results:
            np.testing.assert_allclose(grads, 1.0)

    def test_broadcast_parameters_and_sync_check(self):
        def worker(rank, comm):
            p = Tensor(np.full(4, float(rank), dtype=np.float32), requires_grad=True)
            in_sync_before = parameters_in_sync([p], comm)
            broadcast_parameters([p], comm, source_rank=1)
            in_sync_after = parameters_in_sync([p], comm)
            return in_sync_before, in_sync_after, p.data.copy()

        result = run_distributed(worker, 3)
        assert all(not before for before, _, _ in result.results)
        assert all(after for _, after, _ in result.results)
        for _, _, data in result.results:
            np.testing.assert_allclose(data, 1.0)

    def test_empty_parameter_list_is_noop(self):
        def worker(rank, comm):
            sync_gradients([], comm)
            return True

        assert run_distributed(worker, 2).results == [True, True]
