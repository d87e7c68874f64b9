"""Bit-parity and branch coverage for the neighbour-selection kernels.

The contract under test (see :mod:`repro.sample.kernels`): which kernel runs
— bucketed vs. all-candidates sorted, composite argsort vs. lexsort — never
changes which edges are selected, only what selecting them costs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph
from repro.sample import InEdgeIndex, sample_in_edges
from repro.sample import kernels
from repro.sample.kernels import (
    bottomk_bucketed,
    bottomk_sorted,
    candidate_positions,
    segmented_key_order,
)
from repro.utils.seed import hash_u64, mix_seed


def _slices(index: InEdgeIndex, nodes: np.ndarray):
    starts = index.indptr[nodes]
    counts = index.indptr[nodes + 1] - starts
    return starts, counts


@pytest.fixture
def skewed_graph(rng) -> Graph:
    """A few hub destinations with hundreds of in-edges next to leaf nodes."""
    hub_dst = np.repeat(np.arange(4), 300)
    hub_src = rng.integers(4, 200, hub_dst.size)
    leaf_dst = rng.integers(4, 200, 400)
    leaf_src = rng.integers(0, 200, 400)
    return Graph(200, np.concatenate([hub_src, leaf_src]),
                 np.concatenate([hub_dst, leaf_dst]))


class TestBottomKParity:
    @pytest.mark.parametrize("fanout", [1, 2, 3, 5, 10, 37, 299])
    def test_bucketed_matches_sorted_bitwise(self, skewed_graph, fanout):
        index = skewed_graph.in_edge_index()[None]
        nodes = np.arange(skewed_graph.num_nodes)
        starts, counts = _slices(index, nodes)
        key = mix_seed(5, 0, 0, fanout)
        ref = bottomk_sorted(index.eids, starts, counts, fanout, key)
        got = bottomk_bucketed(index.eids, starts, counts, fanout, key)
        np.testing.assert_array_equal(ref, got)

    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("fanout", [1, 3, 7])
    def test_dispatcher_methods_agree(self, sbm_graph, replace, fanout):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        ref = sample_in_edges(index, nodes, fanout, replace, key=31, method="sorted")
        got = sample_in_edges(index, nodes, fanout, replace, key=31, method="bucketed")
        np.testing.assert_array_equal(ref, got)

    def test_isolated_and_low_degree_nodes(self):
        # Nodes 1..4 feed node 0; node 5 is isolated; node 6 has one in-edge.
        src = np.array([1, 2, 3, 4, 2])
        dst = np.array([0, 0, 0, 0, 6])
        index = Graph(7, src, dst).in_edge_index()[None]
        nodes = np.arange(7)
        for fanout in (1, 2, 3):
            ref = sample_in_edges(index, nodes, fanout, False, key=9, method="sorted")
            got = sample_in_edges(index, nodes, fanout, False, key=9, method="bucketed")
            np.testing.assert_array_equal(ref, got)
        assert sample_in_edges(index, np.array([5]), 2, False, key=9).size == 0

    def test_hetero_relations_agree_per_relation(self, rng):
        relations = {
            "dense": (rng.integers(0, 40, 400), rng.integers(0, 40, 400)),
            "sparse": (rng.integers(0, 40, 25), rng.integers(0, 40, 25)),
            "empty": (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
        }
        graph = Graph.from_relations(40, relations)
        nodes = np.arange(40)
        for rel_index, name in enumerate(graph.relation_names):
            src, dst = graph.relation_edges[name]
            index = InEdgeIndex(src, dst, 40)
            key = mix_seed(7, 1, 0, 0) ^ np.uint64(rel_index).item()
            for fanout in (1, 4):
                ref = sample_in_edges(index, nodes, fanout, False, key=key,
                                      method="sorted")
                got = sample_in_edges(index, nodes, fanout, False, key=key,
                                      method="bucketed")
                np.testing.assert_array_equal(ref, got)

    def test_escalation_path_is_exact(self, skewed_graph, monkeypatch):
        """With the threshold forced to 0, every segment underfills its bucket
        and escalates to its full candidate list — the result must still be
        the exact bottom-k."""
        monkeypatch.setattr(kernels, "_BUCKET_SAFETY", 0)
        index = skewed_graph.in_edge_index()[None]
        nodes = np.arange(skewed_graph.num_nodes)
        starts, counts = _slices(index, nodes)
        ref = bottomk_sorted(index.eids, starts, counts, 3, 17)
        got = bottomk_bucketed(index.eids, starts, counts, 3, 17)
        np.testing.assert_array_equal(ref, got)

    def test_huge_fanout_routes_to_sorted_kernel(self, sbm_graph):
        # Fanouts at/above _BUCKET_FANOUT_LIMIT would overflow the bucketed
        # threshold arithmetic; the dispatcher must route them safely (here
        # they exceed every degree, so they take the full neighbourhood).
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        huge = kernels._BUCKET_FANOUT_LIMIT
        ref = sample_in_edges(index, nodes, -1, False, key=3)
        got = sample_in_edges(index, nodes, huge, False, key=3, method="bucketed")
        np.testing.assert_array_equal(index.eids[ref], index.eids[got])


class TestSegmentedOrder:
    def test_lexsort_fallback_matches_composite(self, skewed_graph, monkeypatch):
        """Beyond the composite-key segment limit the kernel falls back to
        np.lexsort; both branches must produce the identical permutation
        (stability included)."""
        index = skewed_graph.in_edge_index()[None]
        nodes = np.arange(skewed_graph.num_nodes)
        starts, counts = _slices(index, nodes)
        pos, seg = candidate_positions(starts, counts)
        keys = hash_u64(index.eids[pos], 23) >> np.uint64(24)
        # Inject duplicate keys so the tie-break (ascending position) matters.
        keys[seg == 0] = keys[seg == 0] % np.uint64(4)
        composite = segmented_key_order(keys, seg, len(counts))
        monkeypatch.setattr(kernels, "_COMPOSITE_SEGMENT_LIMIT", 1)
        fallback = segmented_key_order(keys, seg, len(counts))
        np.testing.assert_array_equal(composite, fallback)

    def test_selection_identical_across_sort_branches(self, sbm_graph, monkeypatch):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        ref = sample_in_edges(index, nodes, 4, False, key=77)
        monkeypatch.setattr(kernels, "_COMPOSITE_SEGMENT_LIMIT", 1)
        got = sample_in_edges(index, nodes, 4, False, key=77)
        np.testing.assert_array_equal(ref, got)
        for method in ("bucketed", "sorted"):
            again = sample_in_edges(index, nodes, 4, False, key=77, method=method)
            np.testing.assert_array_equal(ref, again)
