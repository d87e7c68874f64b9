"""Tests for the GNN layers: SageConv, GATConv, FusedGATConv, RelGraphConv, models."""

import numpy as np
import pytest

from repro import nn
from repro.graph import Graph, build_mfg_pipeline
from repro.nn.gat import AttentionScores
from repro.tensor import MemoryTracker, Tensor, check_gradients, ops, track_memory
from repro.utils.seed import set_seed
from reference_kernels import mean, sage_reference_forward


@pytest.fixture
def features(sbm_graph, rng):
    return Tensor(rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32),
                  requires_grad=True)


class TestSageConv:
    def test_matches_reference_implementation(self, sbm_graph, features):
        layer = nn.SageConv(8, 5, aggregator="mean")
        out = layer(sbm_graph, features)
        expected = sage_reference_forward(
            sbm_graph, features, layer.neighbor_linear.weight,
            layer.self_linear.weight, layer.self_linear.bias, aggregator="mean",
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_gradients(self, tiny_graph, rng):
        x = Tensor(rng.standard_normal((tiny_graph.num_nodes, 4)).astype(np.float32),
                   requires_grad=True)
        layer = nn.SageConv(4, 3)
        check_gradients(lambda: mean(layer(tiny_graph, x) ** 2),
                        [x] + layer.parameters(), atol=2e-2, rtol=2e-2)

    def test_invalid_aggregator(self):
        with pytest.raises(ValueError):
            nn.SageConv(4, 3, aggregator="median")

    def test_wrong_feature_rows(self, tiny_graph, rng):
        layer = nn.SageConv(4, 3)
        with pytest.raises(ValueError):
            layer(tiny_graph, Tensor(np.zeros((2, 4), dtype=np.float32)))


class TestGATConv:
    def _pair(self, in_f=8, out_f=4, heads=2):
        set_seed(5)
        standard = nn.GATConv(in_f, out_f, num_heads=heads)
        fused = nn.FusedGATConv(in_f, out_f, num_heads=heads)
        fused.load_state_dict(standard.state_dict())
        return standard, fused

    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("on_mfg", [False, True], ids=["graph", "mfg"])
    def test_fused_matches_standard(self, sbm_graph, features, heads, on_mfg):
        """One attention op: keeping α or recomputing it gives the same output
        and gradients, bit for bit."""
        graph = build_mfg_pipeline(sbm_graph, np.arange(0, 120, 7), 1).blocks[0] \
            if on_mfg else sbm_graph
        standard, fused = self._pair(heads=heads)
        results = []
        for layer in (standard, fused):
            features.grad = None
            out = layer(graph, features[np.arange(graph.num_nodes)])
            mean(out ** 2).backward()
            results.append({"out": out.data, "x": features.grad.copy(),
                            **{n: p.grad for n, p in layer.named_parameters()}})
        assert results[0].keys() == results[1].keys()
        for name, value in results[0].items():
            np.testing.assert_array_equal(results[1][name], value, err_msg=name)

    def test_standard_gradcheck(self, tiny_graph, rng):
        x = Tensor(rng.standard_normal((tiny_graph.num_nodes, 4)).astype(np.float32),
                   requires_grad=True)
        layer = nn.GATConv(4, 3, num_heads=2)
        check_gradients(lambda: mean(layer(tiny_graph, x) ** 2),
                        [x] + layer.parameters(), atol=3e-2, rtol=3e-2)

    def test_fused_gradcheck(self, tiny_graph, rng):
        x = Tensor(rng.standard_normal((tiny_graph.num_nodes, 4)).astype(np.float32),
                   requires_grad=True)
        layer = nn.FusedGATConv(4, 3, num_heads=2)
        check_gradients(lambda: mean(layer(tiny_graph, x) ** 2),
                        [x] + layer.parameters(), atol=3e-2, rtol=3e-2)

    def test_output_shape_multi_head(self, sbm_graph, features):
        layer = nn.GATConv(8, 4, num_heads=3)
        assert layer(sbm_graph, features).shape == (sbm_graph.num_nodes, 12)

    def test_attention_normalization_single_head_uniform_scores(self, tiny_graph):
        """With identical attention scores, GAT must reduce to mean aggregation
        (plus the bias, zero at initialisation)."""
        layer = nn.GATConv(4, 4, num_heads=1)
        np.testing.assert_array_equal(layer.bias.data, 0.0)
        layer.attn_l.data[...] = 0.0
        layer.attn_r.data[...] = 0.0
        x = Tensor(np.random.randn(tiny_graph.num_nodes, 4).astype(np.float32))
        out = layer(tiny_graph, x).data
        z = x.data @ layer.fc.weight.data
        deg = np.maximum(tiny_graph.in_degrees(), 1).astype(np.float32)
        expected = np.zeros_like(z)
        np.add.at(expected, tiny_graph.dst, z[tiny_graph.src])
        expected /= deg[:, None]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_fused_kernel_uses_less_forward_memory(self, sbm_graph):
        """Paper Figure 2: the standard layer keeps the ``(E, H)`` attention
        coefficients for the backward pass, the fused one keeps nothing
        edge-sized — so its tracked forward peak is lower, by at least one
        ``(E, H)`` float32 tensor, and the gap grows with the head count."""
        set_seed(0)
        x = Tensor(np.random.randn(sbm_graph.num_nodes, 16).astype(np.float32),
                   requires_grad=True)

        def peak(layer):
            tracker = MemoryTracker("gat")
            with track_memory(tracker):
                out = layer(sbm_graph, x)
                peak_bytes = tracker.peak_bytes
                del out
            return peak_bytes

        gaps = []
        for heads in (2, 4, 8):
            standard, fused = self._pair(in_f=16, out_f=8, heads=heads)
            gap = peak(standard) - peak(fused)
            assert gap >= sbm_graph.num_edges * heads * 4, heads
            gaps.append(gap)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_kernel_flags(self):
        assert nn.GATConv(4, 4).uses_fused_kernel is False
        assert nn.FusedGATConv(4, 4).uses_fused_kernel is True


class TestAttentionScores:
    """``GATConv.project``'s score op against the two ``Mul`` + ``Sum`` pairs
    it replaces."""

    @staticmethod
    def _inputs(rng, rows=50, heads=4, dim=16):
        return [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                for shape in ((rows, heads, dim), (heads, dim), (heads, dim))]

    def test_forward_is_the_mul_sum_composition(self, rng):
        z, attn_l, attn_r = self._inputs(rng)
        scores = AttentionScores.apply(z, attn_l, attn_r)
        np.testing.assert_array_equal(scores.data[0], (z.data * attn_l.data).sum(-1))
        np.testing.assert_array_equal(scores.data[1], (z.data * attn_r.data).sum(-1))

    def test_gradients_match_the_mul_sum_composition(self, rng):
        """The attention vectors' gradients are the composition's bits; ``z``'s
        sums the same two terms, so it may differ by the order only."""
        grads = rng.standard_normal((2, 50, 4)).astype(np.float32)
        z, attn_l, attn_r = self._inputs(rng)
        rz, rl, rr = (Tensor(t.data.copy(), requires_grad=True) for t in (z, attn_l, attn_r))
        scores = AttentionScores.apply(z, attn_l, attn_r)
        ((scores[0] * Tensor(grads[0])).sum() + (scores[1] * Tensor(grads[1])).sum()).backward()
        ((rz * rl).sum(axis=-1) * Tensor(grads[0]) + (rz * rr).sum(axis=-1)
         * Tensor(grads[1])).sum().backward()
        np.testing.assert_array_equal(attn_l.grad, rl.grad)
        np.testing.assert_array_equal(attn_r.grad, rr.grad)
        np.testing.assert_array_max_ulp(z.grad, rz.grad, maxulp=1)

    def test_saves_only_its_inputs(self, rng):
        """Nothing ``(N, H, D)``-sized but ``z`` itself stays alive for the
        backward pass."""
        inputs = self._inputs(rng)
        scores = AttentionScores.apply(*inputs)
        assert len(scores._ctx.saved) == 3
        assert all(saved is t.data for saved, t in zip(scores._ctx.saved, inputs))

    def test_row_subset_scores_are_the_full_rows(self, rng):
        """Layer-wise inference projects one block's rows at a time; its scores
        must be the full projection's rows bit for bit."""
        z, attn_l, attn_r = self._inputs(rng, rows=300, dim=32)
        full = AttentionScores.apply(z, attn_l, attn_r).data
        rows = np.sort(rng.choice(300, size=97, replace=False))
        part = AttentionScores.apply(Tensor(z.data[rows]), attn_l, attn_r).data
        np.testing.assert_array_equal(part, full[:, rows])


class TestFirstLayerInputGradient:
    """A first layer's input features need no gradient: every ``MatMul`` with
    such a left operand returns ``None`` for it, without running the GEMM."""

    @pytest.fixture
    def matmul_calls(self, monkeypatch):
        calls = []
        original = ops.MatMul.backward

        def spy(fn, grad_out):
            grads = original(fn, grad_out)
            calls.append((fn.needs_input_grad, grads))
            return grads

        monkeypatch.setattr(ops.MatMul, "backward", spy)
        return calls

    @pytest.mark.parametrize("make_layer", [
        lambda: nn.SageConv(8, 16),  # aggregates first: both GEMMs read x-derived rows
        lambda: nn.SageConv(8, 4),
        lambda: nn.GATConv(8, 4, num_heads=2),
        lambda: nn.FusedGATConv(8, 4, num_heads=2),
    ], ids=["sage_aggregate_first", "sage_project_first", "gat", "gat_fused"])
    @pytest.mark.parametrize("on_mfg", [False, True], ids=["graph", "mfg"])
    def test_input_gemm_skipped(self, sbm_graph, rng, matmul_calls, make_layer, on_mfg):
        layer = make_layer()
        graph = build_mfg_pipeline(sbm_graph, np.arange(0, 120, 7), 1).blocks[0] \
            if on_mfg else sbm_graph
        x = Tensor(rng.standard_normal((graph.num_nodes, 8)).astype(np.float32))
        mean(layer(graph, x) ** 2).backward()
        skipped = [grads for needs, grads in matmul_calls if not needs[0]]
        assert skipped and len(skipped) == len(matmul_calls)
        assert all(grad_a is None and grad_b is not None for grad_a, grad_b in skipped)
        assert all(p.grad is not None for p in layer.parameters())


class TestRelGraphConv:
    @pytest.fixture
    def hetero(self, sbm_graph):
        half = sbm_graph.num_edges // 2
        return Graph.from_relations(sbm_graph.num_nodes, {
            "a": (sbm_graph.src[:half], sbm_graph.dst[:half]),
            "b": (sbm_graph.src[half:], sbm_graph.dst[half:]),
        })

    def test_output_shape(self, hetero, features):
        layer = nn.RelGraphConv(8, 6, ["a", "b"], num_bases=2)
        assert layer(hetero, features).shape == (hetero.num_nodes, 6)

    def test_basis_decomposition_reduces_parameters(self):
        full = nn.RelGraphConv(8, 6, ["a", "b", "c", "d"], num_bases=None)
        basis = nn.RelGraphConv(8, 6, ["a", "b", "c", "d"], num_bases=2)
        assert basis.num_parameters() < full.num_parameters()

    def test_num_bases_validation(self):
        with pytest.raises(ValueError):
            nn.RelGraphConv(4, 4, ["a"], num_bases=3)
        with pytest.raises(ValueError):
            nn.RelGraphConv(4, 4, [])

    def test_gradients_with_bases(self, tiny_graph, rng):
        hetero = Graph.from_relations(tiny_graph.num_nodes, {
            "a": (tiny_graph.src[:10], tiny_graph.dst[:10]),
            "b": (tiny_graph.src[10:], tiny_graph.dst[10:]),
        })
        x = Tensor(rng.standard_normal((tiny_graph.num_nodes, 4)).astype(np.float32),
                   requires_grad=True)
        layer = nn.RelGraphConv(4, 3, ["a", "b"], num_bases=2)
        check_gradients(lambda: mean(layer(hetero, x) ** 2),
                        [x] + layer.parameters(), atol=3e-2, rtol=3e-2)

    def test_gradients_without_bases(self, tiny_graph, rng):
        hetero = Graph.from_relations(tiny_graph.num_nodes, {
            "a": (tiny_graph.src, tiny_graph.dst),
        })
        x = Tensor(rng.standard_normal((tiny_graph.num_nodes, 4)).astype(np.float32),
                   requires_grad=True)
        layer = nn.RelGraphConv(4, 3, ["a"], num_bases=None)
        check_gradients(lambda: mean(layer(hetero, x) ** 2),
                        [x] + layer.parameters(), atol=3e-2, rtol=3e-2)

    def test_relation_weight_shapes(self):
        layer = nn.RelGraphConv(5, 3, ["a", "b"], num_bases=2)
        assert layer.relation_weights().shape == (2, 15)


class TestModels:
    def test_graphsage_net_shapes(self, sbm_graph, rng):
        model = nn.GraphSageNet(8, 16, 5, num_layers=3)
        x = Tensor(rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32))
        model.eval()
        assert model(sbm_graph, x).shape == (sbm_graph.num_nodes, 5)
        assert model.num_layers == 3

    @pytest.mark.parametrize("on_mfg", [False, True], ids=["graph", "mfg"])
    def test_gat_net_fused_and_standard_equivalent(self, sbm_graph, rng, on_mfg):
        """Outputs (eval and train mode) and every gradient are the same bits."""
        graph = build_mfg_pipeline(sbm_graph, np.arange(0, 120, 7), 3) \
            if on_mfg else sbm_graph
        rows = graph.input_nodes if on_mfg else np.arange(sbm_graph.num_nodes)
        x_data = rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32)[rows]
        set_seed(3)
        standard = nn.GATNet(8, 4, 5, num_heads=2, dropout=0.0)
        fused = nn.GATNet(8, 4, 5, num_heads=2, dropout=0.0, fused=True)
        fused.load_state_dict(standard.state_dict())
        results = []
        for model in (standard, fused):
            model.eval()
            logits = model(graph, Tensor(x_data)).data
            model.train()
            x = Tensor(x_data, requires_grad=True)
            mean(model(graph, x) ** 2).backward()
            results.append({"eval": logits, "x": x.grad,
                            **{n: p.grad for n, p in model.named_parameters()}})
        assert results[0].keys() == results[1].keys()
        for name, value in results[0].items():
            np.testing.assert_array_equal(results[1][name], value, err_msg=name)

    def test_rgcn_net_forward(self, sbm_graph, rng):
        hetero = Graph.from_relations(sbm_graph.num_nodes, {
            "a": (sbm_graph.src, sbm_graph.dst),
            "b": (sbm_graph.dst, sbm_graph.src),
        })
        model = nn.RGCNNet(8, 16, 4, ["a", "b"], num_layers=2)
        model.eval()
        x = Tensor(rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32))
        assert model(hetero, x).shape == (sbm_graph.num_nodes, 4)

    def test_batch_norm_can_be_disabled(self, sbm_graph, rng):
        model = nn.GraphSageNet(8, 16, 3, use_batch_norm=False)
        assert len(model.norms) == 0
        x = Tensor(rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32))
        model.eval()
        assert model(sbm_graph, x).shape == (sbm_graph.num_nodes, 3)

    def test_set_comm_attaches_to_all_norms(self):
        model = nn.GraphSageNet(8, 16, 3)
        sentinel = object()
        model.set_comm(sentinel)
        assert all(norm.comm is sentinel for norm in model.norms)
