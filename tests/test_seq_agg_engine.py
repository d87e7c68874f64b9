"""Tests for the unified sequential-aggregation engine.

Covers the behaviour the engine refactor must preserve and the features it
adds: SAR ↔ vanilla-DP parity (outputs, gradients, communication volumes) for
every kernel under ``prefetch=False`` and ``prefetch=True``, the max pooling
aggregator (a genuine case-2 workload), the resident-halo-block
bound of the prefetch pipeline, end-to-end pooling-SAGE training, and the
split sent/received per-tag communication accounting.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.core import (
    DOMAIN_PARALLEL,
    SAR,
    SARConfig,
    DistributedGraph,
    broadcast_parameters,
    sync_gradients,
)
from repro.core.gat_dist import GATKernel
from repro.core.halo import HaloExchange
from repro.datasets import make_hetero_sbm_dataset
from repro.distributed import run_distributed
from repro.partition import (
    PartitionBook,
    create_shards,
    partition_graph,
)
from repro.partition.shard import EdgeBlock
from repro.tensor import Tensor
from repro.graph import Graph
from repro.tensor import functional as F
from repro.tensor.optim import Adam
from repro.training import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.seed import set_seed
from reference_kernels import fused_gat_backward_np, fused_gat_forward_np

WORLD = 4

SAR_PREFETCH = SARConfig("sar", prefetch=True)
ENGINE_CONFIGS = [SAR, SAR_PREFETCH, DOMAIN_PARALLEL]
ENGINE_CONFIG_IDS = ["sar", "sar-prefetch", "dp"]


def _shards_for(graph, num_parts=WORLD, seed=0):
    assignment = partition_graph(graph, num_parts, seed=seed)
    book = PartitionBook(assignment, num_parts)
    return book, create_shards(graph, book)


# --------------------------------------------------------------------------- #
# single-machine pooling op
# --------------------------------------------------------------------------- #
class TestPoolAggregationSingleMachine:
    def test_forward_matches_bruteforce(self, sbm_graph, rng):
        z = rng.standard_normal((sbm_graph.num_nodes, 5)).astype(np.float32)
        out = sbm_graph.aggregate_neighbors(Tensor(z), op="max")
        expected = np.full_like(z, -np.inf)
        for s, d in zip(sbm_graph.src, sbm_graph.dst):
            expected[d] = np.maximum(expected[d], z[s])
        expected = np.where(np.isfinite(expected), expected, 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-6)

    def test_isolated_destination_aggregates_to_zero(self):
        # Node 2 has no incoming edges.
        src = np.array([0, 1])
        dst = np.array([1, 0])
        z = Tensor(np.array([[3.0], [-2.0], [5.0]], dtype=np.float32),
                   requires_grad=True)
        out = Graph(3, src, dst).aggregate_neighbors(z, op="max")
        np.testing.assert_allclose(out.data, [[-2.0], [3.0], [0.0]])
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(z.grad, [[1.0], [1.0], [0.0]])

    def test_backward_routes_to_maximal_sources(self, sbm_graph, rng):
        z_data = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        grad_seed = rng.standard_normal(z_data.shape).astype(np.float32)
        z = Tensor(z_data, requires_grad=True)
        out = sbm_graph.aggregate_neighbors(z, op="max")
        out.backward(grad_seed)
        expected = np.zeros_like(z_data)
        for s, d in zip(sbm_graph.src, sbm_graph.dst):
            mask = z_data[s] == out.data[d]
            expected[s] += np.where(mask, grad_seed[d], 0.0)
        np.testing.assert_allclose(z.grad, expected, rtol=1e-5, atol=1e-5)


# --------------------------------------------------------------------------- #
# distributed pooling (the new case-2 kernel)
# --------------------------------------------------------------------------- #
class TestDistributedPooling:
    @pytest.mark.parametrize("world", [WORLD, 2, 3])
    @pytest.mark.parametrize("config", ENGINE_CONFIGS, ids=ENGINE_CONFIG_IDS)
    def test_matches_single_machine(self, sbm_graph, rng, config, world):
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, 6)).astype(np.float32)
        grad_seed = rng.standard_normal((n, 6)).astype(np.float32)
        z_ref = Tensor(z_full, requires_grad=True)
        ref_out = sbm_graph.aggregate_neighbors(z_ref, op="max")
        ref_out.backward(grad_seed)

        book, shards = _shards_for(sbm_graph, world)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, config)
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            out = dg.aggregate_neighbors(z, op="max")
            out.backward(grad_seed[shard.global_node_ids])
            return out.data, z.grad

        result = run_distributed(worker, world, worker_args=shards)
        np.testing.assert_allclose(
            book.scatter_to_global([r[0] for r in result.results]), ref_out.data,
            rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(
            book.scatter_to_global([r[1] for r in result.results]), z_ref.grad,
            rtol=1e-5, atol=1e-5)

    def test_pooling_is_case_2(self, sbm_graph, rng):
        """Pooling gradients need neighbour values: SAR re-fetches, DP does not,
        and SAR's total communication exceeds DP's by the re-fetch volume."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        tags, volumes = {}, {}
        for mode in ("sar", "dp"):
            def worker(rank, comm, shard, mode=mode):
                dg = DistributedGraph(shard, comm, SARConfig(mode=mode))
                dg.begin_step()
                z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
                (dg.aggregate_neighbors(z, op="max") ** 2).sum().backward()
                return dict(comm.stats.received_by_tag)

            result = run_distributed(worker, WORLD, worker_args=shards)
            tags[mode] = result.results
            volumes[mode] = sum(sum(t.values()) for t in result.results)
        assert all("backward_refetch" in t for t in tags["sar"])
        assert all("backward_refetch" not in t for t in tags["dp"])
        assert volumes["sar"] > volumes["dp"]

    @pytest.mark.parametrize("config", ENGINE_CONFIGS, ids=ENGINE_CONFIG_IDS)
    def test_sage_layer_parity(self, sbm_graph, rng, config):
        """A full SageConv with pooling matches the single-machine layer."""
        set_seed(5)
        layer = nn.SageConv(8, 5, aggregator="max")
        x_full = rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32)
        expected = layer(sbm_graph, Tensor(x_full)).data
        state = layer.state_dict()
        book, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            replica = nn.SageConv(8, 5, aggregator="max")
            replica.load_state_dict(state)
            dg = DistributedGraph(shard, comm, config)
            dg.begin_step()
            x = Tensor(x_full[shard.global_node_ids], requires_grad=True)
            out = replica(dg, x)
            (out ** 2).sum().backward()
            return out.data, [p.grad.copy() for p in replica.parameters()]

        result = run_distributed(worker, WORLD, worker_args=shards)
        out_global = book.scatter_to_global([r[0] for r in result.results])
        np.testing.assert_allclose(out_global, expected, rtol=1e-4, atol=1e-4)

        x_ref = Tensor(x_full, requires_grad=True)
        layer.zero_grad()
        (layer(sbm_graph, x_ref) ** 2).sum().backward()
        for index, param in enumerate(layer.parameters()):
            total = sum(r[1][index] for r in result.results)
            np.testing.assert_allclose(total, param.grad, rtol=2e-3, atol=2e-3)


# --------------------------------------------------------------------------- #
# the prefetch pipeline
# --------------------------------------------------------------------------- #
class TestPrefetchPipeline:
    def test_prefetch_changes_neither_results_nor_volume(self, sbm_graph, rng):
        """The pipeline only overlaps fetches; bytes and math are unchanged."""
        heads, dim = 2, 3
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        outputs, volumes = {}, {}
        for prefetch in (False, True):
            def worker(rank, comm, shard, prefetch=prefetch):
                dg = DistributedGraph(shard, comm, SARConfig("sar", prefetch=prefetch))
                dg.begin_step()
                ids = shard.global_node_ids
                z = Tensor(z_full[ids], requires_grad=True)
                sd = Tensor(s_full[ids], requires_grad=True)
                ss = Tensor(s_full[ids], requires_grad=True)
                out = dg.gat_aggregate(z, sd, ss)
                (out ** 2).sum().backward()
                return out.data, z.grad, comm.stats.total_bytes

            result = run_distributed(worker, WORLD, worker_args=shards)
            outputs[prefetch] = result.results
            volumes[prefetch] = sum(r[2] for r in result.results)
        for no_pf, pf in zip(outputs[False], outputs[True]):
            np.testing.assert_allclose(pf[0], no_pf[0], rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(pf[1], no_pf[1], rtol=1e-6, atol=1e-6)
        assert volumes[True] == volumes[False]

    @pytest.mark.parametrize("config,expectation", [
        (SAR, "one"), (SAR_PREFETCH, "two"), (DOMAIN_PARALLEL, "all"),
    ], ids=ENGINE_CONFIG_IDS)
    def test_resident_remote_blocks_bound(self, sbm_graph, rng, config, expectation):
        """SAR keeps one remote halo block resident, prefetching at most two,
        vanilla DP all of them — the paper's 2/N vs 3/N memory accounting."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, config)
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            (dg.aggregate_neighbors(z, op="max") ** 2).sum().backward()
            remote_blocks = sum(
                1 for q, b in enumerate(shard.blocks)
                if q != rank and b.num_edges > 0
            )
            return dg.engine.max_resident_remote_blocks, remote_blocks

        result = run_distributed(worker, WORLD, worker_args=shards)
        for peak, remote_blocks in result.results:
            assert remote_blocks >= 2  # otherwise the bound is vacuous
            if expectation == "one":
                assert peak == 1
            elif expectation == "two":
                assert 1 <= peak <= 2
            else:
                assert peak == remote_blocks

    def test_prefetched_fetch_error_fails_the_run(self, sbm_graph, rng):
        """A halo fetch failing on the prefetch thread reaches the caller,
        and the peers blocked on the failed rank are released at once."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 4)).astype(np.float32)
        _, shards = _shards_for(sbm_graph, num_parts=3)

        def worker(rank, comm, shard):
            if rank == 1:
                def broken_fetch(*args, **kwargs):
                    raise ConnectionError("halo fetch failed")

                comm.fetch = broken_fetch
            dg = DistributedGraph(shard, comm, SAR_PREFETCH)
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            (dg.aggregate_neighbors(z, op="max") ** 2).sum().backward()
            return True

        assert any(b.num_edges for q, b in enumerate(shards[1].blocks) if q != 1)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="halo fetch failed"):
            run_distributed(worker, 3, worker_args=shards, timeout_s=60)
        assert time.monotonic() - start < 10

    def test_prefetch_parity_mean_and_rgcn(self, sbm_graph, rng):
        """Case-1 (mean) and the multi-pass R-GCN kernel are prefetch-safe."""
        z_full = rng.standard_normal((sbm_graph.num_nodes, 5)).astype(np.float32)
        grad_seed = rng.standard_normal(z_full.shape).astype(np.float32)
        adj = sbm_graph.adjacency(normalization="mean")
        book, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR_PREFETCH)
            dg.begin_step()
            z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
            out = dg.aggregate_neighbors(z, op="mean")
            out.backward(grad_seed[shard.global_node_ids])
            return out.data, z.grad

        result = run_distributed(worker, WORLD, worker_args=shards)
        np.testing.assert_allclose(
            book.scatter_to_global([r[0] for r in result.results]),
            np.asarray(adj @ z_full), rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            book.scatter_to_global([r[1] for r in result.results]),
            np.asarray(adj.T @ grad_seed), rtol=1e-3, atol=1e-3)

        # R-GCN: one engine pass per relation, under the prefetch pipeline.
        dataset = make_hetero_sbm_dataset(
            "engine-mag", num_nodes=160, num_classes=4, feature_dim=6,
            relation_specs={
                "a": {"p_in": 0.1, "p_out": 0.01},
                "b": {"p_in": 0.05, "p_out": 0.02},
            }, seed=4,
        )
        hetero = dataset.graph
        assignment = partition_graph(dataset.graph, WORLD, seed=0)
        hbook = PartitionBook(assignment, WORLD)
        hshards = create_shards(hetero, hbook)
        set_seed(9)
        layer = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2)
        x_full = rng.standard_normal((hetero.num_nodes, 6)).astype(np.float32)
        expected = layer(hetero, Tensor(x_full)).data
        state = layer.state_dict()

        def hetero_worker(rank, comm, shard):
            replica = nn.RelGraphConv(6, 5, ["a", "b"], num_bases=2)
            replica.load_state_dict(state)
            dg = DistributedGraph(shard, comm, SAR_PREFETCH)
            dg.begin_step()
            x = Tensor(x_full[shard.global_node_ids], requires_grad=True)
            out = replica(dg, x)
            (out ** 2).sum().backward()
            return out.data

        hresult = run_distributed(hetero_worker, WORLD, worker_args=hshards)
        np.testing.assert_allclose(
            hbook.scatter_to_global(hresult.results), expected, rtol=1e-3, atol=1e-3)


# --------------------------------------------------------------------------- #
# end-to-end pooling-SAGE training through the engine
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestPoolingSageTrainsEndToEnd:
    def test_max_pool_sage_trains_under_sar(self, small_dataset):
        dataset = small_dataset
        dataset.attach_to_graph()
        assignment = partition_graph(dataset.graph, WORLD, seed=0)
        book = PartitionBook(assignment, WORLD)
        shards = create_shards(dataset.graph, book)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR_PREFETCH)
            model = nn.GraphSageNet(dataset.feature_dim, 16, dataset.num_classes,
                                    num_layers=2, dropout=0.0, use_batch_norm=False,
                                    aggregator="max")
            broadcast_parameters(model.parameters(), comm)
            optimizer = Adam(model.parameters(), lr=0.05)
            feats = shard.node_data["feat"]
            labels = shard.node_data["label"]
            train_mask = shard.node_data["train_mask"].astype(bool)
            losses = []
            for _ in range(5):
                dg.begin_step()
                logits = model(dg, Tensor(feats))
                if train_mask.any():
                    loss = F.cross_entropy(logits[train_mask], labels[train_mask],
                                           reduction="sum")
                else:
                    loss = logits.sum() * 0.0
                model.zero_grad()
                loss.backward()
                global_count = comm.allreduce_scalar(float(train_mask.sum()))
                sync_gradients(model.parameters(), comm,
                               scale=1.0 / max(global_count, 1.0))
                optimizer.step()
                losses.append(comm.allreduce_scalar(float(loss.data)) / global_count)
            return losses, dg.engine.max_resident_remote_blocks

        result = run_distributed(worker, WORLD, worker_args=shards, timeout_s=300)
        losses = [r[0] for r in result.results]
        # Workers run replicas: every worker sees the same global loss curve.
        for other in losses[1:]:
            np.testing.assert_allclose(other, losses[0], rtol=1e-5)
        assert all(np.isfinite(losses[0]))
        assert losses[0][-1] < losses[0][0]
        # SAR memory behaviour: never more than two remote halo blocks
        # (the computing block plus the prefetched one) were resident.
        for _, peak in result.results:
            assert peak <= 2


# --------------------------------------------------------------------------- #
# communication accounting
# --------------------------------------------------------------------------- #
class TestCommAccounting:
    def test_per_tag_totals_are_booked_by_the_receiver(self, sbm_graph, rng):
        """A halo fetch is booked by its reader alone, as the rows it moved.

        The forward fetches each remote row of ``z`` and of the source
        scores once per worker, and case 2's backward re-fetches exactly the
        same rows; the collectives (the error exchange, setup) book their
        bytes on both sides.
        """
        heads, dim = 2, 2
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR)
            dg.begin_step()
            ids = shard.global_node_ids
            z = Tensor(z_full[ids], requires_grad=True)
            sd = Tensor(s_full[ids], requires_grad=True)
            ss = Tensor(s_full[ids], requires_grad=True)
            (dg.gat_aggregate(z, sd, ss) ** 2).sum().backward()
            return None

        result = run_distributed(worker, WORLD, worker_args=shards)
        sent = {}
        for stats in result.comm_stats:
            for tag, nbytes in stats.sent_by_tag.items():
                sent[tag] = sent.get(tag, 0) + nbytes
        received = result.total_received_by_tag()
        halo_bytes = sum(shard.halo_size for shard in shards) * (heads * dim + heads) * 4
        assert received["forward_halo"] == received["backward_refetch"] == halo_bytes > 0
        assert not {"forward_halo", "backward_refetch"} & set(sent)
        # collectives book each side: what one rank sends, its peers receive
        assert "backward_error" in sent
        for tag in sent:
            assert sent[tag] == received[tag] > 0, tag


# --------------------------------------------------------------------------- #
# the sorted-edge-space attention kernel behind the engine
# --------------------------------------------------------------------------- #
def _gat_step(config, fused, z_full, s_full, grad_seed):
    """Worker: one forward + backward of ``gat_aggregate`` on the local shard."""
    def worker(rank, comm, shard):
        dg = DistributedGraph(shard, comm, config)
        dg.begin_step()
        ids = shard.global_node_ids
        z = Tensor(z_full[ids], requires_grad=True)
        sd = Tensor(s_full[ids], requires_grad=True)
        ss = Tensor(-s_full[ids], requires_grad=True)
        out = dg.gat_aggregate(z, sd, ss, fused=fused)
        out.backward(grad_seed[ids])
        return (out.data, z.grad, sd.grad, ss.grad), dg.engine.max_resident_remote_blocks
    return worker


def _naive_gat_reference(graph, z_full, s_full, grad_seed):
    """Output and ``(z, score_dst, score_src)`` gradients of the naive
    full-graph fused-GAT reference for :func:`_gat_step`'s inputs."""
    args = (z_full, s_full, -s_full, graph.src, graph.dst, graph.num_nodes)
    return (fused_gat_forward_np(*args),) + fused_gat_backward_np(grad_seed, *args)


class TestSortedSpaceAttentionKernel:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS, ids=ENGINE_CONFIG_IDS)
    @pytest.mark.parametrize("fused", [False, True], ids=["standard", "fused"])
    @pytest.mark.parametrize("heads,dim", [(3, 4), (1, 6)], ids=["3-heads", "1-head"])
    def test_planned_kernel_matches_the_naive_reference(self, sbm_graph, rng, config, fused,
                                                        heads, dim):
        """Every rank's output and all three gradients equal the naive
        full-graph attention reference on its rows, at one head and several,
        and SAR keeps at most one remote block resident (two with prefetch)."""
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, heads, dim)).astype(np.float32)
        s_full = rng.standard_normal((n, heads)).astype(np.float32)
        grad_seed = rng.standard_normal((n, heads, dim)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        worker = _gat_step(config, fused, z_full, s_full, grad_seed)
        result = run_distributed(worker, WORLD, worker_args=shards)
        want = _naive_gat_reference(sbm_graph, z_full, s_full, grad_seed)
        for shard, (got, resident) in zip(shards, result.results):
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b[shard.global_node_ids], rtol=1e-4, atol=1e-5)
            if not config.is_domain_parallel:
                assert resident <= (2 if config.prefetch else 1)

    @pytest.mark.parametrize("fused", [False, True], ids=["gat", "gat_fused"])
    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("prefetch", [False, True], ids=["no-prefetch", "prefetch"])
    def test_sar_dp_and_single_machine_losses_agree(self, small_dataset, fused, world,
                                                    prefetch):
        dataset = small_dataset
        config = TrainingConfig(num_epochs=3, lr=0.01, eval_every=0, lr_schedule="none")
        set_seed(21)
        state = nn.GATNet(dataset.feature_dim, 4, dataset.num_classes, num_heads=2,
                          dropout=0.0, fused=fused).state_dict()

        def factory(in_features):
            model = nn.GATNet(in_features, 4, dataset.num_classes, num_heads=2,
                              dropout=0.0, fused=fused)
            model.load_state_dict(state)
            return model

        single = FullBatchTrainer(factory(dataset.feature_dim), dataset, config).train()
        for sar_config in (SARConfig("sar", prefetch=prefetch), DOMAIN_PARALLEL):
            run = DistributedTrainer(dataset, factory, num_workers=world,
                                     sar_config=sar_config, config=config).run()
            np.testing.assert_allclose(run.training.losses(), single.losses(),
                                       rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_sar_final_loss_tracks_single_machine(self, small_dataset, seed):
        """SAR and one machine sum ``z``'s gradient terms in different orders;
        after a few epochs of a 2-layer, 4-head GAT the final losses still
        agree to 1e-5."""
        dataset = small_dataset
        config = TrainingConfig(num_epochs=5, lr=0.01, eval_every=0, lr_schedule="none",
                                seed=seed)
        set_seed(100 + seed)
        state = nn.GATNet(dataset.feature_dim, 8, dataset.num_classes, num_layers=2,
                          num_heads=4, dropout=0.0).state_dict()

        def factory(in_features):
            model = nn.GATNet(in_features, 8, dataset.num_classes, num_layers=2,
                              num_heads=4, dropout=0.0)
            model.load_state_dict(state)
            return model

        single = FullBatchTrainer(factory(dataset.feature_dim), dataset, config).train()
        run = DistributedTrainer(dataset, factory, num_workers=2, sar_config=SAR,
                                 config=config).run()
        assert abs(run.training.losses()[-1] - single.losses()[-1]) <= 1e-5

    def test_local_block_is_the_payload_and_stays_untouched(self, sbm_graph, rng, monkeypatch):
        """Every node has a self-loop, so the local block needs every local
        row: the engine hands the kernel the payload itself, and a forward +
        backward pass over it must not write to it."""
        n = sbm_graph.num_nodes
        z_full = rng.standard_normal((n, 2, 3)).astype(np.float32)
        s_full = rng.standard_normal((n, 2)).astype(np.float32)
        grad_seed = rng.standard_normal((n, 2, 3)).astype(np.float32)
        _, shards = _shards_for(sbm_graph)
        seen = []
        forward_block, backward_block = GATKernel.forward_block, GATKernel.backward_block

        def spy(original):
            def block(self, p, q, blk, feats):
                if q == self.shard.rank:
                    seen.append(feats is self._payload)
                return original(self, p, q, blk, feats)
            return block

        payload = GATKernel.payload

        def payload_with_copy(self):
            self._pristine = payload(self)
            return tuple(part.copy() for part in self._pristine)

        def check_untouched(self):
            for part, pristine in zip(self._payload, self._pristine, strict=True):
                np.testing.assert_array_equal(part, pristine)
            return backward_finalize(self)

        backward_finalize = GATKernel.backward_finalize
        monkeypatch.setattr(GATKernel, "forward_block", spy(forward_block))
        monkeypatch.setattr(GATKernel, "backward_block", spy(backward_block))
        monkeypatch.setattr(GATKernel, "payload", payload_with_copy)
        monkeypatch.setattr(GATKernel, "backward_finalize", check_untouched)
        for config in (SAR, DOMAIN_PARALLEL):
            run_distributed(_gat_step(config, False, z_full, s_full, grad_seed),
                            WORLD, worker_args=shards)
        assert len(seen) == 2 * 2 * WORLD and all(seen)


class TestUniqueRowScatters:
    def test_edge_block_rejects_a_row_set_that_is_not_strictly_increasing(self):
        for rows in ([0, 2, 2], [3, 1], [-1, 0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                EdgeBlock(src_rank=0, dst_rank=0, num_dst=4,
                          required_src_local=np.array(rows, dtype=np.int64),
                          src_index=np.zeros(1, dtype=np.int64),
                          dst_local=np.zeros(1, dtype=np.int64))

    def test_halo_exchange_rejects_duplicate_peer_rows(self, sbm_graph):
        _, shards = _shards_for(sbm_graph, num_parts=2)

        def worker(rank, comm, shard):
            blocks = list(shard.blocks)
            peer = 1 - rank
            # Bypass EdgeBlock's own check: a peer could send anything.
            object.__setattr__(blocks[peer], "required_src_local",
                               np.array([1, 1], dtype=np.int64))
            with pytest.raises(ValueError, match="strictly increasing"):
                HaloExchange(comm, blocks, name="dup")
            return True

        assert all(run_distributed(worker, 2, worker_args=shards).results)

    def test_error_scatter_accumulates_like_add_at(self, sbm_graph, rng):
        """Local-block and peer error rows land where ``np.add.at`` put them."""
        _, shards = _shards_for(sbm_graph, num_parts=2)

        def worker(rank, comm, shard):
            halo = HaloExchange(comm, shard.blocks, name="scatter")
            rows = halo.rows_needed_by_peer[1 - rank]
            errors = rng.standard_normal((len(rows), 3)).astype(np.float32)
            start = rng.standard_normal((shard.num_local_nodes, 3)).astype(np.float32)
            expected = start.copy()
            np.add.at(expected, rows, errors)
            got = halo.scatter_add_errors(start.copy(), {1 - rank: errors})
            np.testing.assert_array_equal(got, expected)
            return True

        assert all(run_distributed(worker, 2, worker_args=shards).results)
