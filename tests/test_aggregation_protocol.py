"""The aggregation protocol: every graph type speaks it, no layer dispatches.

A GNN layer calls ``aggregate_neighbors`` / ``gat_aggregate`` /
``rgcn_aggregate`` and ``gather_dst`` on whatever graph it is handed
(:mod:`repro.graph.aggregation`).  These tests pin both halves of that
contract: the three graph types expose the methods, and the layer modules
cannot tell them apart — they import nothing from ``repro.graph`` and call
no ``isinstance``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import SAR, DistributedGraph
from repro.distributed import run_distributed
from repro.graph import MFGBlock, build_mfg_pipeline
from repro.graph.graph import Graph
from repro.partition import PartitionBook, create_shards
from repro.tensor import Tensor, ops
from repro.tensor.sparse import neighbor_aggregate

GRAPH_TYPES = (Graph, MFGBlock, DistributedGraph)
LAYER_MODULES = ("sage.py", "gat.py", "gat_fused.py", "rgcn.py")


@pytest.mark.parametrize("graph_type", GRAPH_TYPES, ids=lambda t: t.__name__)
def test_graph_types_speak_the_protocol(graph_type):
    for method in ("aggregate_neighbors", "gat_aggregate", "rgcn_aggregate", "gather_dst"):
        assert callable(getattr(graph_type, method, None)), f"{graph_type.__name__}.{method}"


def test_gather_dst_is_the_identity_except_on_mfg_blocks(tiny_graph):
    hetero = Graph.from_relations(tiny_graph.num_nodes, {"r": (tiny_graph.src, tiny_graph.dst)})
    x = Tensor(np.arange(2.0 * tiny_graph.num_nodes).reshape(-1, 2))
    assert tiny_graph.gather_dst(x) is x
    assert hetero.gather_dst(x) is x
    block = build_mfg_pipeline(tiny_graph, [0], num_layers=1).blocks[0]
    rows = Tensor(np.arange(2.0 * block.num_src_nodes).reshape(-1, 2))
    np.testing.assert_array_equal(block.gather_dst(rows).data,
                                  rows.data[block.dst_in_src])
    hblock = build_mfg_pipeline(hetero, [0], num_layers=1).blocks[0]
    np.testing.assert_array_equal(hblock.gather_dst(rows).data,
                                  rows.data[hblock.dst_in_src])

    book = PartitionBook(np.arange(tiny_graph.num_nodes) % 2, 2)

    def worker(rank, comm, shards):
        shard, hshard = shards
        local = Tensor(np.zeros((shard.num_local_nodes, 2)))
        return (DistributedGraph(shard, comm, SAR).gather_dst(local) is local
                and DistributedGraph(hshard, comm, SAR).gather_dst(local) is local)

    shards = list(zip(create_shards(tiny_graph, book), create_shards(hetero, book)))
    assert all(run_distributed(worker, 2, worker_args=shards).results)


@pytest.mark.parametrize("module", LAYER_MODULES)
def test_layers_never_dispatch_on_graph_type(module):
    path = Path(nn.__file__).parent / module
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("repro.graph"), \
                f"{module} imports {node.module}"
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro.graph") for a in node.names), module
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "isinstance", f"{module}:{node.lineno} calls isinstance"


def test_rgcn_forms_the_relation_weights_once(sbm_graph, rng):
    """The layer hands ``rgcn_aggregate`` one ``coefficients @ basis``
    product.  Against the same sum formed with one product per relation, the
    output and the ``x`` / ``coefficients`` gradients are bit-identical; only
    the ``basis`` gradient sums its per-relation terms in another order
    (measured ~1e-7 of its largest entry)."""
    half = sbm_graph.num_edges // 2
    hetero = Graph.from_relations(sbm_graph.num_nodes, {
        "a": (sbm_graph.src[:half], sbm_graph.dst[:half]),
        "b": (sbm_graph.src[half:], sbm_graph.dst[half:]),
        "c": (sbm_graph.dst, sbm_graph.src),
    })
    layer = nn.RelGraphConv(6, 5, ["a", "b", "c"], num_bases=2)
    x_data = rng.standard_normal((hetero.num_nodes, 6)).astype(np.float32)
    grad = rng.standard_normal((hetero.num_nodes, 5)).astype(np.float32)

    def run(forward):
        layer.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        out = forward(x)
        out.backward(grad)
        return out.data, x.grad, layer.coefficients.grad.copy(), layer.basis.grad.copy()

    def per_relation(x):
        out = None
        for index, relation in enumerate(layer.relation_names):
            w_r = ops.slice_(layer.coefficients @ layer.basis, index).reshape(6, 5)
            term = neighbor_aggregate(x @ w_r, hetero.relation_plan(relation))
            out = term if out is None else out + term
        return out + layer.self_linear(x) + layer.bias

    got, want = run(lambda x: layer(hetero, x)), run(per_relation)
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(a, b)
    # Relative to the gradient's scale: single entries can cancel to ~0.
    assert np.abs(got[3] - want[3]).max() <= 1e-6 * np.abs(want[3]).max()
