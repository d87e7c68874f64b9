"""Seeded neighbour sampling: GraphSAGE-style mini-batch block chains.

A :class:`NeighborSampler` draws, for a set of *seed* nodes, a per-layer
sampled neighbourhood (DGL/GraphBolt-style "message flow graph" sampling) and
compacts it into the exact same :class:`~repro.graph.mfg.MFGBlock` /
:class:`~repro.graph.mfg.MFGHeteroBlock` chains the deterministic MFG
pipeline uses — so every nn layer, kernel, and edge plan that already runs
the full-neighbourhood restricted path runs sampled mini-batches unchanged.

Determinism guarantee
---------------------
All sampler randomness is routed through :mod:`repro.utils.seed` and is
**counter-based**, never sequential:

* the sampler's base seed is taken from the library-wide generator
  (:func:`repro.utils.seed.get_rng`) at construction unless given explicitly,
  so one :func:`repro.utils.seed.set_seed` call pins every sample drawn;
* each ``(epoch, batch, layer)`` derives an independent 64-bit key via
  :func:`repro.utils.seed.mix_seed`, and the per-edge / per-node draws under
  that key are pure hashes (:func:`repro.utils.seed.hash_u64`) of stable
  *global* identifiers (edge ids, node ids).

Because a draw depends only on ``(base seed, epoch, batch, layer, id)`` — not
on which thread asks, in what order, or how work is split across workers —
the same seed reproduces the same batches bit-for-bit across the data
loader's thread-pool prefetch path, across re-iterations of an epoch, and
between a single machine and a set of distributed workers sampling the same
graph cooperatively.

Structural parity
-----------------
``fanout=-1`` selects a node's complete in-neighbourhood.  With every layer
at ``fanout=-1``, :meth:`NeighborSampler.sample` reproduces
:func:`repro.graph.mfg.build_mfg_pipeline` exactly — same node orderings,
same edge order (ascending original edge id) — so the sampled forward pass is
bit-identical to the full-neighbourhood MFG pipeline, which
``tests/test_sampling.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.graph import Graph
from repro.graph.hetero import HeteroGraph
from repro.graph.in_edges import InEdgeIndex, candidate_positions
from repro.graph.mfg import MFGBlock, MFGHeteroBlock, MFGPipeline
from repro.sample.kernels import (
    _BUCKET_FANOUT_LIMIT,
    bottomk_bucketed,
    bottomk_sorted,
    replacement_draws,
)
from repro.utils.seed import get_rng, mix_seed, splitmix64
from repro.utils.validation import check_1d_int_array

#: per-layer fanout specification: an int, or (hetero) a mapping per relation.
FanoutSpec = Union[int, Mapping[str, int]]


def sample_in_edges(
    index: InEdgeIndex,
    nodes: np.ndarray,
    fanout: int,
    replace: bool,
    key: int,
    key_ids: Optional[np.ndarray] = None,
    method: str = "bucketed",
) -> np.ndarray:
    """Deterministically sample in-edges of ``nodes`` from ``index``.

    Returns positions into ``index.eids`` / ``index.src`` / ``index.dst``,
    sorted by ascending edge id (the order every downstream reduction runs
    in).  ``fanout=-1`` (or any negative value) takes the full neighbourhood;
    ``fanout=0`` takes nothing.  Without replacement a node with degree below
    the fanout keeps all of its in-edges; with replacement exactly ``fanout``
    draws are made per non-isolated node (duplicates accumulate, as in
    GraphSAGE).  Isolated nodes simply contribute no edges.

    Draws are pure functions of ``(key, edge id)`` — without replacement —
    or ``(key, key_ids[node], slot)`` — with replacement — so any partition
    of ``nodes`` over workers or threads samples the same edges.
    ``key_ids`` defaults to ``nodes`` and exists so distributed callers can
    pass global node ids while addressing the index with local ids.

    ``method`` picks the without-replacement kernel from
    :mod:`repro.sample.kernels`: ``"bucketed"`` (the default — sorts only
    probable survivors) or ``"sorted"`` (the all-candidates reference).
    Both select identical edges; the switch exists for the parity tests.
    """
    if method not in ("bucketed", "sorted"):
        raise ValueError(f"method must be 'bucketed' or 'sorted', got {method!r}")
    nodes = np.asarray(nodes, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if nodes.size == 0:
        return empty
    starts = index.indptr[nodes]
    counts = index.indptr[nodes + 1] - starts
    if fanout == 0 or int(counts.sum()) == 0:
        return empty

    take_all = fanout < 0 or (not replace and fanout >= int(counts.max()))
    if take_all:
        pos, _ = candidate_positions(starts, counts)
        selected = pos
    elif not replace:
        # Per-segment bottom-k over per-edge hash keys: order-independent and
        # identical however the segments are split across workers.  At
        # extreme fanouts the bucketed threshold arithmetic would overflow
        # (and bucketing buys nothing), so route those to the sorted kernel.
        if method == "bucketed" and fanout < _BUCKET_FANOUT_LIMIT:
            selected = bottomk_bucketed(index.eids, starts, counts, fanout, key)
        else:
            selected = bottomk_sorted(index.eids, starts, counts, fanout, key)
    else:
        key_base = nodes if key_ids is None else np.asarray(key_ids, dtype=np.int64)
        selected = replacement_draws(starts, counts, fanout, key, key_base)

    return selected[np.argsort(index.eids[selected], kind="stable")]


def _layer_key(seed: int, epoch: int, batch_index: int, layer: int) -> int:
    """The 64-bit sampling key of one layer of one batch (shared with the
    distributed sampler so both draw identical edges)."""
    return mix_seed(seed, epoch, batch_index, layer)


@dataclass
class SampledStructure:
    """The raw output of neighbour sampling, before compaction.

    ``node_lists`` holds one sorted-unique global-id array per node layer
    (``num_layers + 1`` entries, input layer first); ``edge_sets`` holds the
    sampled ``(src, dst)`` global-id pairs per conv layer — for
    heterogeneous graphs a ``relation name -> (src, dst)`` mapping instead.
    Produced by :meth:`NeighborSampler.sample_structure` and consumed by
    :meth:`NeighborSampler.compact`; :meth:`NeighborSampler.sample` is the
    two in sequence.
    """

    node_lists: List[np.ndarray]
    edge_sets: List[Union[Tuple[np.ndarray, np.ndarray], Dict[str, Tuple[np.ndarray, np.ndarray]]]]
    hetero: bool


class NeighborSampler:
    """Layered neighbour sampler emitting compacted MFG block chains.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.graph.Graph` or
        :class:`~repro.graph.hetero.HeteroGraph`.
    fanouts:
        One entry per conv layer, ordered input layer → output layer (the
        DGL convention).  Each entry is an ``int`` — ``-1`` meaning the full
        neighbourhood — or, for heterogeneous graphs, optionally a mapping
        ``relation name -> int`` naming **every** relation (``0`` explicitly
        skips one; a bare int is broadcast to every relation).
    replace:
        Sample with replacement (exactly ``fanout`` draws per non-isolated
        node; duplicate edges accumulate) instead of without (at most
        ``fanout`` distinct in-edges per node).
    seed:
        Base seed for all draws.  ``None`` (the default) draws one from the
        library-wide generator, tying reproducibility to
        :func:`repro.utils.seed.set_seed`; see the module docstring for the
        full determinism guarantee.
    """

    def __init__(
        self,
        graph: Union[Graph, HeteroGraph],
        fanouts: Sequence[FanoutSpec],
        replace: bool = False,
        seed: Optional[int] = None,
    ):
        if not len(fanouts):
            raise ValueError("fanouts must name at least one layer")
        self.graph = graph
        self.replace = bool(replace)
        self.seed = int(seed) if seed is not None else int(get_rng().integers(0, 2**63))
        self.is_hetero = isinstance(graph, HeteroGraph)
        if self.is_hetero:
            self._relation_names = list(graph.relation_names)
            self._indexes: Dict[str, InEdgeIndex] = graph.in_edge_index()
            self.fanouts: List[Dict[str, int]] = [
                self._normalize_hetero_fanout(spec) for spec in fanouts
            ]
        else:
            self._index = graph.in_edge_index()
            self.fanouts = [self._normalize_fanout(spec) for spec in fanouts]

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def __repr__(self) -> str:
        return (
            f"NeighborSampler(num_layers={self.num_layers}, fanouts={self.fanouts}, "
            f"replace={self.replace}, hetero={self.is_hetero})"
        )

    @staticmethod
    def _normalize_fanout(spec: FanoutSpec) -> int:
        if isinstance(spec, Mapping):
            raise ValueError("per-relation fanouts require a HeteroGraph")
        fanout = int(spec)
        if fanout < -1:
            raise ValueError(f"fanout must be >= -1 (-1 = full neighbourhood), got {fanout}")
        return fanout

    def _normalize_hetero_fanout(self, spec: FanoutSpec) -> Dict[str, int]:
        if isinstance(spec, Mapping):
            unknown = [name for name in spec if name not in self._relation_names]
            if unknown:
                raise KeyError(f"Unknown relations {unknown}; available: {self._relation_names}")
            missing = [name for name in self._relation_names if name not in spec]
            if missing:
                # Omission must be explicit (fanout 0), or an entire relation
                # would silently vanish from training.
                raise ValueError(
                    f"Per-relation fanouts must name every relation; missing {missing} "
                    f"(use 0 to skip a relation, -1 for its full neighbourhood)"
                )
            per_relation = {name: int(spec[name]) for name in self._relation_names}
        else:
            per_relation = {name: int(spec) for name in self._relation_names}
        for name, fanout in per_relation.items():
            if fanout < -1:
                raise ValueError(
                    f"fanout must be >= -1 (-1 = full neighbourhood), "
                    f"got {fanout} for relation {name!r}"
                )
        return per_relation

    # ------------------------------------------------------------------ #
    def sample(self, seeds, epoch: int = 0, batch_index: int = 0) -> MFGPipeline:
        """Sample one mini-batch around ``seeds``.

        Returns an :class:`~repro.graph.mfg.MFGPipeline` whose
        ``output_nodes`` are the (deduplicated, ascending) seeds and whose
        layer blocks carry the sampled edges in ascending original edge-id
        order.  ``epoch`` and ``batch_index`` select the batch's independent
        random stream; calling twice with the same arguments returns
        identical structures.
        """
        return self.compact(self.sample_structure(seeds, epoch, batch_index))

    def sample_structure(self, seeds, epoch: int = 0, batch_index: int = 0) -> SampledStructure:
        """The neighbour-sampling half of :meth:`sample`: walk the layered neighbourhood.

        Draws the per-layer edge sets and node lists for one mini-batch
        without building blocks — the (cheaper) relabelling happens in
        :meth:`compact`.  ``sample`` is exactly the composition of the two;
        apart, each can be timed on its own.
        """
        seeds = check_1d_int_array(seeds, "seeds", max_value=self.num_nodes)
        if seeds.size == 0:
            raise ValueError("seeds must contain at least one node")
        if self.is_hetero:
            return self._structure_hetero(np.unique(seeds), epoch, batch_index)
        return self._structure_homogeneous(np.unique(seeds), epoch, batch_index)

    def compact(self, structure: SampledStructure) -> MFGPipeline:
        """The block-compaction half of :meth:`sample`: relabel a structure into MFG blocks."""
        if structure.hetero:
            return self._compact_hetero(structure)
        return self._compact_homogeneous(structure)

    # -- homogeneous ----------------------------------------------------- #
    def _structure_homogeneous(
        self, seeds: np.ndarray, epoch: int, batch_index: int
    ) -> SampledStructure:
        num_layers = self.num_layers
        node_lists: List[np.ndarray] = [None] * (num_layers + 1)  # type: ignore[list-item]
        edge_sets: List[Tuple[np.ndarray, np.ndarray]]
        edge_sets = [None] * num_layers  # type: ignore[list-item]
        current = seeds
        node_lists[num_layers] = current
        # Conv layer l consumes layer-(l) inputs and produces layer-(l+1)
        # rows; sampling walks output → input, fanouts[l] applying to layer l.
        for layer in range(num_layers - 1, -1, -1):
            key = _layer_key(self.seed, epoch, batch_index, layer)
            positions = sample_in_edges(
                self._index, current, self.fanouts[layer], self.replace, key
            )
            src = self._index.src[positions]
            dst = self._index.dst[positions]
            edge_sets[layer] = (src, dst)
            current = np.union1d(current, src)
            node_lists[layer] = current
        return SampledStructure(node_lists, edge_sets, hetero=False)

    def _compact_homogeneous(self, structure: SampledStructure) -> MFGPipeline:
        node_lists, edge_sets = structure.node_lists, structure.edge_sets
        blocks: List[MFGBlock] = []
        for layer in range(len(edge_sets)):
            # Relabel via searchsorted over the sorted-unique node lists so
            # per-batch work scales with the sample, not with num_nodes.
            src_nodes, dst_nodes = node_lists[layer], node_lists[layer + 1]
            src, dst = edge_sets[layer]
            blocks.append(
                MFGBlock(
                    src_nodes,
                    dst_nodes,
                    np.searchsorted(src_nodes, src),
                    np.searchsorted(dst_nodes, dst),
                    dst_in_src=np.searchsorted(src_nodes, dst_nodes),
                )
            )
        return MFGPipeline(blocks)

    # -- heterogeneous --------------------------------------------------- #
    def _structure_hetero(
        self, seeds: np.ndarray, epoch: int, batch_index: int
    ) -> SampledStructure:
        num_layers = self.num_layers
        node_lists: List[np.ndarray] = [None] * (num_layers + 1)  # type: ignore[list-item]
        edge_sets: List[Dict[str, Tuple[np.ndarray, np.ndarray]]]
        edge_sets = [None] * num_layers  # type: ignore[list-item]
        current = seeds
        node_lists[num_layers] = current
        for layer in range(num_layers - 1, -1, -1):
            sampled: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
            reached = [current]
            for rel_index, name in enumerate(self._relation_names):
                # Every (layer, relation) pair draws from its own key so
                # relations sample independently.
                key = _layer_key(self.seed, epoch, batch_index, layer) ^ splitmix64(rel_index)
                index = self._indexes[name]
                positions = sample_in_edges(
                    index, current, self.fanouts[layer][name], self.replace, key
                )
                src = index.src[positions]
                sampled[name] = (src, index.dst[positions])
                reached.append(src)
            edge_sets[layer] = sampled
            current = np.unique(np.concatenate(reached))
            node_lists[layer] = current
        return SampledStructure(node_lists, edge_sets, hetero=True)

    def _compact_hetero(self, structure: SampledStructure) -> MFGPipeline:
        node_lists, edge_sets = structure.node_lists, structure.edge_sets
        blocks: List[MFGHeteroBlock] = []
        for layer in range(len(edge_sets)):
            src_nodes, dst_nodes = node_lists[layer], node_lists[layer + 1]
            relation_edges = {
                name: (np.searchsorted(src_nodes, src), np.searchsorted(dst_nodes, dst))
                for name, (src, dst) in edge_sets[layer].items()
            }
            blocks.append(
                MFGHeteroBlock(
                    src_nodes,
                    dst_nodes,
                    relation_edges,
                    dst_in_src=np.searchsorted(src_nodes, dst_nodes),
                )
            )
        return MFGPipeline(blocks)
