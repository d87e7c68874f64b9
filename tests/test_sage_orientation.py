"""GraphSAGE's orientation rule and the gemm property its parity rests on.

:class:`~repro.nn.sage.SageConv` aggregates first and projects the
aggregated destination rows when its aggregator is linear and the layer does
not narrow (``in_features <= out_features``); otherwise it projects every
source row and aggregates the projection.  Every single-machine execution
path — the full graph, an MFG block, layer-wise inference, the local server —
must then still produce bit-identical logits, which holds because each
destination reduces its complete in-neighbourhood in original edge order and
a gemm row does not depend on how many other rows share the call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.mfg import block_from_in_edges
from repro.nn.models import GraphSageNet
from repro.sample import LayerWiseInference
from repro.serving import create_server
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

#: (in_features, out_features, aggregator, aggregates first?)
CASES = [
    (4, 8, "mean", True),
    (6, 6, "mean", True),
    (8, 4, "mean", False),
    (4, 8, "max", False),
    (6, 6, "max", False),
    (8, 4, "max", False),
]


def _case_id(case):
    in_f, out_f, aggregator, _ = case
    return f"{aggregator}-{in_f}to{out_f}"


def _one_layer_model(in_f, out_f, aggregator):
    set_seed(0)
    model = GraphSageNet(in_f, out_f, out_f, num_layers=1, dropout=0.0,
                         use_batch_norm=False, aggregator=aggregator)
    model.eval()
    return model


def _gemm_rows(monkeypatch, conv):
    """Record the row count of every neighbour-projection call of ``conv``."""
    rows = []
    linear = conv.neighbor_linear
    forward = type(linear).forward

    def counting(x):
        rows.append(x.shape[0])
        return forward(linear, x)

    monkeypatch.setattr(linear, "forward", counting)
    return rows


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_orientation_bit_parity_across_paths(monkeypatch, sbm_graph, rng, case):
    in_f, out_f, aggregator, aggregates_first = case
    graph = sbm_graph
    features = rng.standard_normal((graph.num_nodes, in_f)).astype(np.float32)
    model = _one_layer_model(in_f, out_f, aggregator)
    conv = model.convs[0]
    assert conv.aggregate_first is aggregates_first
    gemm_rows = _gemm_rows(monkeypatch, conv)

    with no_grad():
        reference = model(graph, Tensor(features)).data
        index = graph.in_edge_index()
        # A 1-destination block (its gemm is a 1-row product when the layer
        # aggregates first), a scattered one and a consecutive range.
        for dst in (np.array([17]), np.array([0, 3, 4, 50]), np.arange(90, 120)):
            block = block_from_in_edges(index, dst)
            assert block.num_dst_nodes < block.num_src_nodes
            gemm_rows.clear()
            out = model(block, Tensor(features[block.src_nodes])).data
            np.testing.assert_array_equal(out, reference[dst])
            # The side the neighbour GEMM ran on.
            expected = block.num_dst_nodes if aggregates_first else block.num_src_nodes
            assert gemm_rows == [expected]

        for batch_size in (1, 7, graph.num_nodes):
            engine = LayerWiseInference(model, graph, batch_size=batch_size)
            np.testing.assert_array_equal(engine.run(features), reference)

    with create_server(model, graph, features) as server:
        for ids in ([5], [3, 1, 4, 1, 5], list(range(40))):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])


def _blas_vendor() -> str:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


@pytest.mark.parametrize("k,n", [(12, 16), (100, 256)])
def test_gemm_rows_do_not_depend_on_batch_size(rng, k, n):
    # Every bit-parity test between execution paths assumes this: row i of
    # ``X @ W`` is the same whether X has 1, 2, 3 or 17 rows (1-row products
    # are padded onto gemm by MatMul).  A BLAS that breaks it fails here, by
    # name, before it fails dozens of parity cells.
    weight = Tensor(rng.standard_normal((k, n)).astype(np.float32))
    for m in (1, 2, 3, 17):
        x = rng.standard_normal((m, k)).astype(np.float32)
        batched = (Tensor(x) @ weight).data
        alone = np.concatenate([(Tensor(x[i:i + 1]) @ weight).data for i in range(m)])
        assert np.array_equal(batched, alone), (
            f"gemm rows depend on the batch size (M={m}, K={k}, N={n}) "
            f"under BLAS {_blas_vendor()}"
        )
