"""Sort-free relabelling: the per-thread rank table behind every block compaction.

``repro.graph.mfg.unique_ranks`` replaces ``np.unique`` + ``np.searchsorted``
in :func:`~repro.graph.mfg.compact_block`, both samplers' frontier unions and
``NeighborSampler.compact``.  Two contracts are checked here:

* a block compacted through the table equals the sort-based relabel computed
  in the test — values *and* dtype of ``src_nodes``, every relation's
  relabelled ``src`` and ``dst_in_src`` — on empty, single-id, all-duplicate,
  widely spread and partly empty relational inputs;
* the table is per thread: four threads sampling, building MFG pipelines and
  sweeping layer-wise inference over one ``Graph`` at once reproduce the
  serial results bit for bit.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
from hypothesis import example, given, strategies as st

from repro.datasets import ogbn_products_mini
from repro.graph.mfg import build_mfg_pipeline, compact_block, unique_ranks
from repro.nn.models import GraphSageNet
from repro.sample import LayerWiseInference, NeighborSampler


def _ids(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


@st.composite
def block_edges(draw):
    """``(edges, dst_nodes)``: ``{relation: (src ids, dst rows)}`` over ascending ``dst_nodes``."""
    high = draw(st.sampled_from([1, 40, 10**6]))
    node = st.integers(0, high - 1)
    dst_nodes = np.unique(np.array(draw(st.lists(node, max_size=12)), dtype=np.int64))
    edges = {}
    for name in draw(st.sampled_from([(None,), ("cites", "writes")])):
        size = draw(st.integers(0, 40)) if dst_nodes.size else 0
        src = draw(st.lists(node, min_size=size, max_size=size))
        dst = draw(st.lists(st.integers(0, max(dst_nodes.size - 1, 0)),
                            min_size=size, max_size=size))
        edges[name] = (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    return edges, dst_nodes


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@given(block_edges())
@example(({None: (_ids(), _ids())}, _ids()))                              # empty
@example(({None: (_ids(7), _ids(0))}, _ids(7)))                           # a single id
@example(({None: (_ids(5, 5, 5, 5), _ids(0, 0, 0, 0))}, _ids(5)))         # all duplicates
@example(({None: (_ids(999_999, 0, 500_000, 0), _ids(0, 1, 1, 0))},
          _ids(12, 999_998)))                                              # spread over [0, 1e6)
@example(({"cites": (_ids(4, 9, 4), _ids(0, 0, 0)), "writes": (_ids(), _ids())},
          _ids(2)))                                                        # one empty relation
@example(({None: (_ids(8, 8), _ids(1, 1))}, _ids(1, 3)))                  # node 1 has no in-edges
@example(({"cites": (_ids(), _ids()), "writes": (_ids(), _ids())},
          _ids(2, 4)))                                                     # no destination has any
def test_compaction_equals_the_sort_based_relabel(case):
    edges, dst_nodes = case
    src_nodes = np.unique(np.concatenate([src for src, _ in edges.values()] + [dst_nodes]))
    for block in (compact_block(edges, dst_nodes), compact_block(edges, dst_nodes, src_nodes)):
        _assert_same(block.src_nodes, src_nodes)
        assert list(block.relation_edges) == list(edges)
        for name, (src, dst) in edges.items():
            _assert_same(block.relation_edges[name][0], np.searchsorted(src_nodes, src))
            assert block.relation_edges[name][1] is dst
        _assert_same(block.dst_in_src, np.searchsorted(src_nodes, dst_nodes))


# --------------------------------------------------------------------------- #
# one table per thread
# --------------------------------------------------------------------------- #
THREADS = 4
ROUNDS = 3


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(array.dtype.str.encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _pipeline_digest(pipeline) -> str:
    return _digest(*[array for block in pipeline.blocks
                     for array in (block.src_nodes, block.dst_nodes, block.dst_in_src,
                                   *(a for edges in block.relation_edges.values() for a in edges))])


def test_concurrent_compaction_equals_serial():
    dataset = ogbn_products_mini(0.5)
    graph, features = dataset.graph, dataset.features
    model = GraphSageNet(features.shape[1], 16, dataset.num_classes, num_layers=2, dropout=0.0)
    model.eval()
    seeds = np.arange(0, graph.num_nodes, 3)
    jobs = {
        "sample": lambda: _pipeline_digest(
            NeighborSampler(graph, [5, 10], seed=11).sample(seeds, epoch=1, batch_index=2)),
        "mfg": lambda: _pipeline_digest(build_mfg_pipeline(graph, seeds, 2)),
        "layerwise": lambda: _digest(
            LayerWiseInference(model, graph, batch_size=200).run(features)),
    }
    serial = {name: job() for name, job in jobs.items()}

    # This thread's table already spans far more ids than the graph has.
    unique_ranks([_ids(0, 10**6)])

    start = threading.Barrier(THREADS)
    results = [[] for _ in range(THREADS)]
    errors = []

    def worker(rank: int) -> None:
        try:
            order = list(jobs)[rank % len(jobs):] + list(jobs)[:rank % len(jobs)]
            start.wait()
            for _ in range(ROUNDS):
                results[rank] += [(name, jobs[name]()) for name in order]
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(rank,)) for rank in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for got in results:
        assert len(got) == ROUNDS * len(jobs)
        for name, digest in got:
            assert digest == serial[name], name
