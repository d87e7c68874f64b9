"""Blocks born in plan order: the edge-order contract of every compacted block.

Every block is compacted by :func:`repro.graph.mfg.compact_block`, whichever
path asks for it — :func:`~repro.graph.mfg.block_from_in_edges`,
:func:`~repro.graph.mfg.build_mfg_pipeline`, ``NeighborSampler.compact``
with and without replacement, and the serving walks over a graph or its
shards.  Each block it returns must

* list each relation's edges in non-decreasing ``(dst, src)`` order;
* hold the same multiset of global ``(src, dst)`` pairs, and the same row
  spaces, as the order-preserving relabel it replaced
  (``tests/reference_kernels.py::relabel_block_np``);
* have plans whose forward edge permutation is the identity.

Every call is recorded on its way through ``compact_block`` and checked
against the relabel of its own input.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from repro.graph import Graph, build_mfg_pipeline
from repro.graph import mfg as mfg_mod
from repro.graph.mfg import block_from_in_edges
from repro.nn.models import GraphSageNet
from repro.partition import PartitionBook, create_shards
from repro.sample import NeighborSampler
from repro.sample import neighbor as neighbor_mod
from repro.serving import ServingConfig, create_server
from repro.utils.seed import set_seed
from mfg_helpers import adversarial_graph
from reference_kernels import relabel_block_np


@contextlib.contextmanager
def recorded_compactions():
    """Every ``compact_block`` call made inside, as ``(args, block)``."""
    calls = []
    inner = mfg_mod.compact_block

    def recording(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    with mock.patch.object(mfg_mod, "compact_block", recording), \
            mock.patch.object(neighbor_mod, "compact_block", recording):
        yield calls


def _global_pairs(src_nodes, dst_nodes, src, dst) -> np.ndarray:
    pairs = np.stack([src_nodes[src], dst_nodes[dst]])
    return pairs[:, np.lexsort(pairs[::-1])]


def assert_born_in_plan_order(args, block) -> None:
    edges, dst_nodes = args[0], args[1]
    src_nodes, relabelled, dst_in_src = relabel_block_np(*args)
    np.testing.assert_array_equal(block.src_nodes, src_nodes)
    np.testing.assert_array_equal(block.dst_in_src, dst_in_src)
    assert list(block.relation_edges) == list(edges)
    for name, (src, dst) in block.relation_edges.items():
        keys = dst * block.num_src_nodes + src
        assert np.all(np.diff(keys) >= 0), f"relation {name!r} is not in (dst, src) order"
        np.testing.assert_array_equal(_global_pairs(src_nodes, dst_nodes, src, dst),
                                      _global_pairs(src_nodes, dst_nodes, *relabelled[name]))
        identity = np.arange(len(src))
        np.testing.assert_array_equal(block.relation_plan(name).sort_edges(identity), identity)


@st.composite
def graphs(draw):
    """A homogeneous or relational graph with parallel edges, self-loops and
    (at that density) isolated nodes."""
    num_nodes = draw(st.integers(2, 24))
    node = st.integers(0, num_nodes - 1)

    def edge_list():
        pairs = draw(st.lists(st.tuples(node, node), max_size=50))
        pairs += [(v, v) for v in draw(st.lists(node, max_size=4))]  # self-loops
        pairs += pairs[:draw(st.integers(0, len(pairs)))]             # parallel edges
        pairs = np.array(draw(st.permutations(pairs)), dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    if draw(st.booleans()):
        return Graph(num_nodes, *edge_list())
    none = np.empty(0, dtype=np.int64)
    return Graph.from_relations(num_nodes, {"cites": edge_list(), "writes": edge_list(),
                                            "empty": (none, none)})


@given(graphs(), st.data())
def test_every_compacted_block_is_born_in_plan_order(graph, data):
    node = st.integers(0, graph.num_nodes - 1)
    seeds = np.unique(data.draw(st.lists(node, min_size=1, max_size=8)))
    assignment = np.array(data.draw(st.lists(st.integers(0, 1), min_size=graph.num_nodes,
                                             max_size=graph.num_nodes)))
    assignment[:2] = [0, 1]  # no empty part
    fanouts = data.draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
    book = PartitionBook(assignment, 2)
    with recorded_compactions() as calls:
        block_from_in_edges(graph.in_edge_index(), seeds)
        build_mfg_pipeline(graph, seeds, 2)
        for replace in (False, True):
            NeighborSampler(graph, fanouts, replace=replace, seed=7).sample(seeds)
        # the shard walk's build: local destination rows, global ids
        for shard in create_shards(graph, book):
            own = seeds[assignment[seeds] == shard.rank]
            if own.size:
                block_from_in_edges(shard.in_edge_index(), book.to_local(own)[1], own)
    assert len(calls) == 1 + 2 + 2 * len(fanouts) + len(np.unique(assignment[seeds]))
    for args, block in calls:
        assert_born_in_plan_order(args, block)


def test_served_blocks_are_born_in_plan_order():
    """The serving walks' blocks, on one machine and on thread shards."""
    graph = adversarial_graph()
    features = np.random.default_rng(2).standard_normal((graph.num_nodes, 6)).astype(np.float32)
    set_seed(0)
    model = GraphSageNet(6, 8, 3, num_layers=2, dropout=0.0)
    model.eval()
    shards = create_shards(graph, PartitionBook(np.arange(graph.num_nodes) % 2, 2))
    for served, backend in ((graph, "local"), (shards, "distributed")):
        with recorded_compactions() as calls:
            with create_server(model, served, features,
                               ServingConfig(backend=backend, window_ms=0.0)) as server:
                for ids in ([7], [0, 3, 9], list(range(graph.num_nodes))):
                    server.predict(ids)
        assert len(calls) >= 6
        for args, block in calls:
            assert_born_in_plan_order(args, block)
