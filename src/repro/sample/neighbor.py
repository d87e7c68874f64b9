"""Seeded neighbour sampling: GraphSAGE-style mini-batch block chains.

A :class:`NeighborSampler` draws, for a set of *seed* nodes, a per-layer
sampled neighbourhood (DGL/GraphBolt-style "message flow graph" sampling) and
compacts it into the exact same :class:`~repro.graph.mfg.MFGBlock` chains
the deterministic MFG pipeline uses — so every nn layer, kernel, and edge plan that already runs
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
:func:`repro.graph.mfg.build_mfg_pipeline` — same node orderings and, per
destination, the same edges.  Both end in
:func:`~repro.graph.mfg.compact_block`, which lists every block's edges in
``(dst, src)`` order — the order its edge plan reduces in — so the sampled
forward and backward passes are bit-identical to the full-neighbourhood MFG
pipeline, which ``tests/test_sampling.py`` asserts.

A homogeneous :class:`~repro.graph.graph.Graph` is the one relation ``None``
(DGL's convention): one walk over ``graph.in_edge_index()``, ``{relation:
InEdgeIndex}``, and one compaction (:func:`repro.graph.mfg.compact_block`)
serve homogeneous and relational graphs alike.  Both samplers — this
module's and :class:`~repro.sample.distributed.DistributedNeighborSampler`
— check their fanouts with :func:`normalize_fanouts` and draw every layer
with :func:`draw_layer`, so a worker draws exactly the single machine's
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.graph import Graph
from repro.graph.in_edges import InEdgeIndex, candidate_positions
from repro.graph.mfg import MFGPipeline, compact_block, unique_ranks
from repro.sample.kernels import (
    _BUCKET_FANOUT_LIMIT,
    bottomk_bucketed,
    bottomk_sorted,
    replacement_draws,
)
from repro.utils.seed import get_rng, mix_seed, splitmix64
from repro.utils.validation import check_1d_int_array

#: per-layer fanout specification: an int, or (relational graph) a mapping per relation.
FanoutSpec = Union[int, Mapping[str, int]]


def sample_in_edges(
    index: InEdgeIndex,
    nodes: np.ndarray,
    fanout: int,
    replace: bool,
    key: int,
    key_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Deterministically sample in-edges of ``nodes`` from ``index``.

    Returns positions into ``index.eids`` / ``index.src`` / ``index.dst``,
    grouped by destination in the order of ``nodes``.  Within a destination
    the order is the kernel's and means nothing:
    :func:`~repro.graph.mfg.compact_block` lists a block's edges in
    ``(dst, src)`` order whatever order they arrive in.  ``fanout=-1`` (or
    any negative value) takes the full neighbourhood; ``fanout=0`` takes
    nothing.  Without replacement a node with degree below the fanout keeps
    all of its in-edges; with replacement exactly ``fanout`` draws are made
    per non-isolated node (duplicates accumulate, as in GraphSAGE).
    Isolated nodes simply contribute no edges.

    Draws are pure functions of ``(key, edge id)`` — without replacement —
    or ``(key, key_ids[node], slot)`` — with replacement — so any partition
    of ``nodes`` over workers or threads samples the same edges.
    ``key_ids`` defaults to ``nodes`` and exists so distributed callers can
    pass global node ids while addressing the index with local ids.
    """
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
        return candidate_positions(starts, counts)[0]
    if not replace:
        # Per-segment bottom-k over per-edge hash keys: order-independent and
        # identical however the segments are split across workers.  At
        # extreme fanouts the bucketed threshold arithmetic would overflow
        # (and bucketing buys nothing), so route those to the sorted kernel.
        kernel = bottomk_bucketed if fanout < _BUCKET_FANOUT_LIMIT else bottomk_sorted
        return kernel(index.eids, starts, counts, fanout, key)
    key_base = nodes if key_ids is None else np.asarray(key_ids, dtype=np.int64)
    return replacement_draws(starts, counts, fanout, key, key_base)


def _layer_key(seed: int, epoch: int, batch_index: int, layer: int) -> int:
    """The 64-bit sampling key of one layer of one batch (shared with the
    distributed sampler so both draw identical edges)."""
    return mix_seed(seed, epoch, batch_index, layer)


def draw_layer(
    indexes: Mapping[Optional[str], InEdgeIndex],
    rows: np.ndarray,
    fanouts: Mapping[Optional[str], int],
    replace: bool,
    layer_key: int,
    key_ids: Optional[np.ndarray] = None,
) -> Dict[Optional[str], Tuple[np.ndarray, np.ndarray]]:
    """One layer's draw over every relation: ``{relation: (src, dst)}``.

    ``rows``, ``key_ids`` and the returned ids are as in
    :func:`sample_in_edges`; ``fanouts`` is one :func:`normalize_fanouts`
    entry.  The relation ``None`` draws under ``layer_key``, a named
    relation under ``layer_key ^ splitmix64(rel_index)`` (its position in
    ``indexes``, a graph's and its shards' relation order), so relations
    sample independently.
    """
    edges = {}
    for rel_index, (name, index) in enumerate(indexes.items()):
        key = layer_key if name is None else layer_key ^ splitmix64(rel_index)
        positions = sample_in_edges(index, rows, fanouts[name], replace, key, key_ids)
        edges[name] = (index.src[positions], index.dst[positions])
    return edges


def check_fanout(spec, what: str = "fanout") -> int:
    """One fanout entry as an ``int`` >= -1 — the check both samplers apply.

    Accepts ``int`` and ``np.integer``; rejects ``bool``, floats (``2.7`` is
    not silently fanout 2) and strings.
    """
    if isinstance(spec, bool) or not isinstance(spec, (int, np.integer)):
        raise ValueError(f"{what} must be an integer >= -1 (-1 = full neighbourhood), "
                         f"got {spec!r}")
    if spec < -1:
        raise ValueError(f"{what} must be >= -1 (-1 = full neighbourhood), got {spec}")
    return int(spec)


def _normalize_fanout(spec: FanoutSpec, relations: List[Optional[str]]) -> Dict[Optional[str], int]:
    if not isinstance(spec, Mapping):
        fanout = check_fanout(spec)
        return {name: fanout for name in relations}
    if None in relations:
        raise ValueError("per-relation fanouts require a relational Graph")
    unknown = [name for name in spec if name not in relations]
    if unknown:
        raise KeyError(f"Unknown relations {unknown}; available: {relations}")
    missing = [name for name in relations if name not in spec]
    if missing:
        # Omission must be explicit (fanout 0), or an entire relation would
        # silently vanish from training.
        raise ValueError(
            f"Per-relation fanouts must name every relation; missing {missing} "
            f"(use 0 to skip a relation, -1 for its full neighbourhood)"
        )
    return {name: check_fanout(spec[name], f"fanout of relation {name!r}")
            for name in relations}


def normalize_fanouts(
    fanouts: Sequence[FanoutSpec], relations: Sequence[Optional[str]],
) -> Tuple[List[Dict[Optional[str], int]], List[FanoutSpec]]:
    """Both samplers' fanout check: ``(per_relation, public)``.

    ``per_relation`` holds the ``{relation: int}`` per layer that
    :func:`draw_layer` takes, ``public`` what ``sampler.fanouts`` shows —
    an ``int`` per layer over the relation ``None``.
    """
    if not len(fanouts):
        raise ValueError("fanouts must name at least one layer")
    relations = list(relations)
    per_relation = [_normalize_fanout(spec, relations) for spec in fanouts]
    return per_relation, ([f[None] for f in per_relation] if None in relations
                          else per_relation)


@dataclass
class SampledStructure:
    """The raw output of neighbour sampling, before compaction.

    ``node_lists`` holds one sorted-unique global-id array per node layer
    (``num_layers + 1`` entries, input layer first); ``edge_sets`` holds, per
    conv layer, the sampled ``(src, dst)`` global-id pairs of each relation —
    ``{None: (src, dst)}`` for a homogeneous graph.
    Produced by :meth:`NeighborSampler.sample_structure` and consumed by
    :meth:`NeighborSampler.compact`; :meth:`NeighborSampler.sample` is the
    two in sequence.
    """

    node_lists: List[np.ndarray]
    edge_sets: List[Dict[Optional[str], Tuple[np.ndarray, np.ndarray]]]


class NeighborSampler:
    """Layered neighbour sampler emitting compacted MFG block chains.

    Parameters
    ----------
    graph:
        A homogeneous or relational :class:`~repro.graph.graph.Graph`.
    fanouts:
        One entry per conv layer, ordered input layer → output layer (the
        DGL convention).  Each entry is an ``int`` — ``-1`` meaning the full
        neighbourhood — or, for relational graphs, optionally a mapping
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
        graph: Graph,
        fanouts: Sequence[FanoutSpec],
        replace: bool = False,
        seed: Optional[int] = None,
    ):
        self.graph = graph
        self.replace = bool(replace)
        self.seed = int(seed) if seed is not None else int(get_rng().integers(0, 2**63))
        self._indexes: Mapping[Optional[str], InEdgeIndex] = graph.in_edge_index()
        #: per layer, an ``int`` for a homogeneous graph, a ``{relation: int}``
        #: for a relational one
        self._fanouts, self.fanouts = normalize_fanouts(fanouts, self._indexes)

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
            f"replace={self.replace})"
        )

    # ------------------------------------------------------------------ #
    def sample(self, seeds, epoch: int = 0, batch_index: int = 0) -> MFGPipeline:
        """Sample one mini-batch around ``seeds``.

        Returns an :class:`~repro.graph.mfg.MFGPipeline` whose
        ``output_nodes`` are the (deduplicated, ascending) seeds and whose
        layer blocks list the sampled edges in ``(dst, src)`` order
        (:func:`~repro.graph.mfg.compact_block`).  ``epoch`` and
        ``batch_index`` select the batch's independent random stream;
        calling twice with the same arguments returns identical structures.
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
        current, _ = unique_ranks([seeds])
        node_lists, edge_sets = [current], []
        # Conv layer l consumes layer-(l) inputs and produces layer-(l+1)
        # rows; sampling walks output → input, fanouts[l] applying to layer l.
        for layer in reversed(range(self.num_layers)):
            sampled = draw_layer(self._indexes, current, self._fanouts[layer], self.replace,
                                 _layer_key(self.seed, epoch, batch_index, layer))
            edge_sets.append(sampled)
            current, _ = unique_ranks([current] + [src for src, _ in sampled.values()])
            node_lists.append(current)
        return SampledStructure(node_lists[::-1], edge_sets[::-1])

    def compact(self, structure: SampledStructure) -> MFGPipeline:
        """The block-compaction half of :meth:`sample`: relabel a structure into MFG blocks."""
        node_lists = structure.node_lists
        blocks = []
        for layer, edges in enumerate(structure.edge_sets):
            # Relabel by a gather from the thread's rank table over the
            # ascending node list (graph.mfg.unique_ranks): per-batch work
            # scales with the sample, not with num_nodes.
            dst_nodes = node_lists[layer + 1]
            _, ranks = unique_ranks([dst_nodes])
            rows = {name: (src, ranks[dst]) for name, (src, dst) in edges.items()}
            blocks.append(compact_block(rows, dst_nodes, node_lists[layer]))
        return MFGPipeline(blocks)
