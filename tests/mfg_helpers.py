"""Shared helpers for the receptive-field (MFG) tests.

* :func:`adversarial_graph` — a shuffled edge list with a hub, self-loops,
  parallel edges and in-degree-0 nodes, the graph every exactness check
  stresses;
* :func:`assert_same_block` — two blocks are the same receptive field when
  their row spaces match and each destination reads the same sources in the
  same order; the global order of a block's edge list is free (edge plans sort
  by ``(row, col)``), so it is not compared;
* :func:`distributed_mfg_grids` — a worker's MFG block grids, built the way
  the distributed trainer builds them: the cooperative sampler at every
  fan-out ``-1`` over the seed set.
"""

from __future__ import annotations

import numpy as np

from repro.graph import Graph
from repro.sample.distributed import DistributedNeighborSampler

#: nodes of :func:`adversarial_graph` with no edge at all / out-edges only.
ISOLATED = [1, 2]
SOURCE_ONLY = 3


def adversarial_graph(num_nodes: int = 40) -> Graph:
    """Random body + a hub adjacent to it + self-loops + parallel edges + in-degree-0 nodes.

    The edge list is shuffled, so the original edge order is far from
    destination-sorted — per-destination reduction order is what must survive.
    """
    rng = np.random.default_rng(5)
    body = np.arange(4, num_nodes)
    src = [rng.choice(body, size=3 * len(body)), np.full(5, SOURCE_ONLY)]
    dst = [rng.choice(body, size=3 * len(body)), body[:5]]
    src += [np.zeros(len(body), dtype=np.int64), body]  # hub 0 <-> every body node
    dst += [body, np.zeros(len(body), dtype=np.int64)]
    src += [body[::4], np.array([0])]  # self-loops, the hub's included
    dst += [body[::4], np.array([0])]
    src, dst = np.concatenate(src), np.concatenate(dst)
    src = np.concatenate([src, src[:20], src[:20]])  # parallel edges, twice over
    dst = np.concatenate([dst, dst[:20], dst[:20]])
    order = rng.permutation(len(src))
    return Graph(num_nodes, src[order], dst[order])


def assert_same_block(block, expected):
    """Same row spaces, and per destination the same sources in the same order."""
    np.testing.assert_array_equal(block.src_nodes, expected.src_nodes)
    np.testing.assert_array_equal(block.dst_nodes, expected.dst_nodes)
    np.testing.assert_array_equal(block.dst_in_src, expected.dst_in_src)
    assert list(block.relation_edges) == list(expected.relation_edges)
    for relation, (src, dst) in block.relation_edges.items():
        exp_src, exp_dst = expected.relation_edges[relation]
        assert len(src) == len(exp_src)
        for row in range(block.num_dst_nodes):
            # each destination's sources, in original edge order
            np.testing.assert_array_equal(src[dst == row], exp_src[exp_dst == row])


def distributed_mfg_grids(shard, comm, seeds, num_layers: int):
    """This worker's per-layer MFG block grids over ``seeds`` (collective)."""
    sampler = DistributedNeighborSampler(shard, comm, [-1] * num_layers)
    grids = sampler.sample(seeds)
    comm.barrier()  # every rank has consumed the last frontier payload
    sampler.release()
    return grids
