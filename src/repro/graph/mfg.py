"""Message-Flow-Graph (MFG) computation restriction (paper Appendix B).

In node-classification tasks the loss only touches a (possibly small) set of
labelled *seed* nodes.  Working backwards from the seeds, layer ``l`` of an
``L``-layer GNN only has to produce output features for the nodes that are at
most ``L - l`` hops away from a seed (following in-edges).  The paper uses
DGL's MFGs to skip the remaining rows.

One builder derives that receptive field.  :func:`block_from_in_edges` turns a
set of destinations into the block over their complete in-neighbourhoods,
read from the graph's cached in-edge index in O(sum of their in-degrees);
:func:`build_mfg_pipeline` chains it ``L`` times from the seeds, each block's
source nodes becoming the next level's destinations — the full-neighbour case
of DGL's sampler, and of :class:`~repro.sample.neighbor.NeighborSampler` at
``fanout=-1``.  :func:`message_flow_masks`, :func:`required_node_counts` and
:func:`mfg_savings` are views of the pipeline's per-level node lists.

Each conv layer becomes one compacted bipartite :class:`MFGBlock` holding
the graph's ``{relation: (src, dst)}`` edge sets — a homogeneous graph's
being the one relation ``None`` — the layer's edges relabelled into the
compact row spaces of its required source and destination nodes, each
relation owning a lazily built :class:`~repro.tensor.edge_plan.EdgePlan`.
Consecutive blocks chain exactly (layer ``l``'s destination nodes are layer
``l+1``'s source nodes), so a model forwards layer by layer over shrinking
feature matrices.  :func:`compact_block` does that relabelling for every
block, built or sampled, as gathers from a per-thread node-indexed rank
table (:func:`unique_ranks`) that sorts only the unique ids.

A block holds every required destination's complete in-neighbourhood, each
destination's edges in ascending original edge id, relabelled
order-preservingly.  Edge plans sort every orientation by ``(row, col)``,
breaking ties by input position, so any edge order that keeps per-destination
edge-id order reduces identically: kernels over the block reduce exactly the
same values in exactly the same order as the full graph, making seed-node
outputs bit-identical — not merely close.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.aggregation import NeighborAggregation
from repro.graph.graph import Graph
from repro.graph.in_edges import InEdgeIndex, candidate_positions
from repro.tensor import ops
from repro.tensor.edge_plan import EdgePlan, cached_plan
from repro.utils.validation import check_1d_int_array, check_positive_int


def message_flow_masks(graph: Graph, seed_nodes,
                       num_layers: int) -> List[np.ndarray]:
    """Per-layer boolean masks of nodes whose features must be computed.

    Returns a list of ``num_layers + 1`` masks: entry ``l`` marks the nodes
    whose layer-``l`` activations are required (entry ``0`` is the input
    layer, entry ``num_layers`` the output layer and equals the seed set).
    On a relational graph the receptive field expands along every relation
    at once, as R-GCN layers aggregate over all of them.
    """
    masks = []
    for nodes in build_mfg_pipeline(graph, seed_nodes, num_layers).node_lists:
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[nodes] = True
        masks.append(mask)
    return masks


def required_node_counts(graph: Graph, seed_nodes,
                         num_layers: int) -> List[int]:
    """Number of nodes whose features must be computed at each layer."""
    return build_mfg_pipeline(graph, seed_nodes, num_layers).required_node_counts()


def mfg_savings(graph: Graph, seed_nodes, num_layers: int) -> float:
    """Fraction of node-feature computations avoided thanks to the MFG restriction.

    ``0.0`` means no savings (every node needed at every layer), values close
    to ``1.0`` mean almost all per-layer updates can be skipped.
    """
    counts = required_node_counts(graph, seed_nodes, num_layers)
    # Layers 1..L perform aggregation; the input layer (index 0) is free.
    needed = sum(counts[1:])
    full = graph.num_nodes * num_layers
    return 1.0 - needed / full if full else 0.0


# --------------------------------------------------------------------------- #
# compacted per-layer blocks (the MFG execution pipeline)
# --------------------------------------------------------------------------- #
class MFGBlock(NeighborAggregation):
    """One conv layer's compacted bipartite edge sets, ``{relation: (src, dst)}``.

    ``src_nodes``/``dst_nodes`` are the original (global) ids of the block's
    required source and destination nodes, in ascending order.  Every
    destination is also a source (``dst_nodes ⊆ src_nodes``), and
    :attr:`dst_in_src` maps each destination row to its row in the source
    space — the row gather every layer's self/residual term runs through
    (:meth:`gather_dst`, which overrides the protocol's identity).

    :attr:`relation_edges` holds, per relation of the graph, the edges
    feeding a required destination, relabelled into the compact
    source/destination row spaces; each destination's edges keep their
    original order.  A homogeneous graph's block is the one relation
    ``None``, read by :attr:`src`/:attr:`dst`/:meth:`plan`.  The block speaks
    the graph's aggregation protocol; the aggregation output has
    :attr:`num_dst_nodes` rows.
    """

    def __init__(self, src_nodes: np.ndarray, dst_nodes: np.ndarray,
                 relation_edges: Dict[Optional[str], Tuple[np.ndarray, np.ndarray]],
                 dst_in_src: np.ndarray):
        self.src_nodes = src_nodes
        self.dst_nodes = dst_nodes
        self.relation_edges = relation_edges
        self.dst_in_src = dst_in_src
        self._plans: Dict[Optional[str], EdgePlan] = {}

    @property
    def src(self) -> np.ndarray:
        return self.relation_edges[None][0]

    @property
    def dst(self) -> np.ndarray:
        return self.relation_edges[None][1]

    @property
    def num_src_nodes(self) -> int:
        return len(self.src_nodes)

    @property
    def num_dst_nodes(self) -> int:
        return len(self.dst_nodes)

    @property
    def num_nodes(self) -> int:
        """Rows of the block's *input* feature matrix (the nn layers' shape check)."""
        return self.num_src_nodes

    @property
    def num_edges(self) -> int:
        return sum(len(src) for src, _ in self.relation_edges.values())

    def __repr__(self) -> str:
        return (
            f"MFGBlock(src_nodes={self.num_src_nodes}, dst_nodes={self.num_dst_nodes}, "
            f"num_edges={self.num_edges}, relations={list(self.relation_edges)})"
        )

    def gather_dst(self, x):
        """Destination rows of a source-space per-node tensor (differentiable)."""
        return ops.gather(x, self.dst_in_src)

    def relation_plan(self, relation: Optional[str]) -> EdgePlan:
        """One relation's lazily built edge plan.

        Plans are resolved through the shared structural cache
        (:func:`repro.tensor.edge_plan.cached_plan`): two blocks with the same
        relabelled edge set — e.g. the same consecutive-id inference batch
        rebuilt by a second engine — share one plan instead of re-sorting.
        """
        plan = self._plans.get(relation)
        if plan is None:
            src, dst = self._edges_of(relation)
            plan = self._plans[relation] = cached_plan(src, dst, self.num_dst_nodes,
                                                       self.num_src_nodes)
        return plan


class MFGPipeline:
    """Per-layer compacted blocks for an ``L``-layer model over a seed set.

    Passed to a model in place of the graph, the model dispatches conv layer
    ``l`` onto :meth:`layer_block` ``(l)``; the input feature matrix holds the
    rows of :attr:`input_nodes` and the output rows are exactly
    :attr:`output_nodes` (the seed set, in ascending id order).
    """

    def __init__(self, blocks: List[MFGBlock]):
        self.blocks = blocks

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose input features the restricted forward pass reads."""
        return self.blocks[0].src_nodes

    @property
    def output_nodes(self) -> np.ndarray:
        """Global ids of the output rows (the seed set, ascending)."""
        return self.blocks[-1].dst_nodes

    @property
    def node_lists(self) -> List[np.ndarray]:
        """Per level, the ascending global ids whose activations are computed
        (``num_layers + 1`` arrays, input level first)."""
        return [block.src_nodes for block in self.blocks] + [self.output_nodes]

    def layer_block(self, index: int) -> MFGBlock:
        if not 0 <= index < len(self.blocks):
            raise IndexError(
                f"MFG pipeline has {len(self.blocks)} layer blocks, asked for {index}"
            )
        return self.blocks[index]

    def gather_inputs(self, features: np.ndarray) -> np.ndarray:
        """Rows of a full-graph per-node array the pipeline's layer 0 consumes."""
        return features[self.input_nodes]

    def required_node_counts(self) -> List[int]:
        return [len(nodes) for nodes in self.node_lists]

    def __repr__(self) -> str:
        return (
            f"MFGPipeline(num_layers={self.num_layers}, "
            f"counts={self.required_node_counts()})"
        )


def build_mfg_pipeline(graph: Graph, seed_nodes,
                       num_layers: int) -> MFGPipeline:
    """Derive the compacted per-layer blocks executing the MFG restriction.

    Parameters
    ----------
    graph:
        The full :class:`~repro.graph.graph.Graph`; its blocks hold its
        relations over the union of their in-neighbours.
    seed_nodes:
        Node ids whose layer-``num_layers`` outputs are required.
    num_layers:
        Depth of the model the pipeline will drive.

    Walks output → input: the output block is :func:`block_from_in_edges`
    over the ascending unique seeds, and each lower block's destinations are
    the source nodes of the block above it.
    """
    num_layers = check_positive_int(num_layers, "num_layers")
    nodes = np.unique(check_1d_int_array(seed_nodes, "seed_nodes", max_value=graph.num_nodes))
    index = graph.in_edge_index()
    blocks: List[MFGBlock] = []
    for _ in range(num_layers):
        blocks.append(block_from_in_edges(index, nodes))
        nodes = blocks[-1].src_nodes
    return MFGPipeline(blocks[::-1])


# --------------------------------------------------------------------------- #
# one block over known destinations (every receptive-field walk)
# --------------------------------------------------------------------------- #
def block_from_in_edges(
    index: Mapping[Optional[str], InEdgeIndex],
    dst_rows: np.ndarray,
    dst_nodes: Optional[np.ndarray] = None,
) -> MFGBlock:
    """The block over the complete in-neighbourhoods of ascending destinations.

    ``dst_rows`` address ``index``'s destination space; ``dst_nodes``
    (default: the same array) are the ids those rows carry in the index's
    *source* id space — they differ on a shard, whose index
    (:meth:`ShardedGraph.in_edge_index
    <repro.partition.shard.ShardedGraph.in_edge_index>`) buckets local
    destinations over global sources.  ``index`` is a ``{relation:
    InEdgeIndex}`` mapping (:meth:`Graph.in_edge_index
    <repro.graph.graph.Graph.in_edge_index>`); the block holds those
    relations over the union of their in-neighbours.

    Edges are enumerated bucket by bucket — per destination in original edge
    order — and handed to :func:`compact_block`, so an ``EdgePlan`` over the
    block reduces each destination exactly as the full graph does.  Costs
    O(sum of the destinations' in-degrees).
    """
    if dst_nodes is None:
        dst_nodes = dst_rows
    edges = {}
    for name, relation in index.items():
        starts = relation.indptr[dst_rows]
        positions, dst = candidate_positions(starts, relation.indptr[dst_rows + 1] - starts)
        edges[name] = (relation.src[positions], dst)
    return compact_block(edges, dst_nodes)


def compact_block(
    edges: Mapping[Optional[str], Tuple[np.ndarray, np.ndarray]],
    dst_nodes: np.ndarray,
    src_nodes: Optional[np.ndarray] = None,
) -> MFGBlock:
    """Relabel one layer's ``{relation: (src, dst)}`` in-edges into a block.

    ``src`` are ids in ``dst_nodes``' id space, ``dst`` rows of the ascending
    ``dst_nodes``.  ``src_nodes`` (default: the union of every source and
    destination) is the ascending source row space and must hold every
    source and destination.  Edges keep their input order.  Each relabel is
    one gather from the thread's rank table (:func:`unique_ranks`), so the
    cost is O(edges + nodes) plus one sort of the unique ids.
    """
    if src_nodes is None:
        src_nodes, ranks = unique_ranks([src for src, _ in edges.values()] + [dst_nodes])
    else:
        _, ranks = unique_ranks([src_nodes])
    edges = {name: (ranks[src], dst) for name, (src, dst) in edges.items()}
    return MFGBlock(src_nodes, dst_nodes, edges, ranks[dst_nodes])


#: each thread's node-indexed rank table (:func:`unique_ranks`)
_scratch = threading.local()


def unique_ranks(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The ascending unique ids of ``arrays`` and a node-indexed rank table.

    Returns ``(uniq, table)`` with ``table[uniq] == arange(len(uniq))``, so
    relabelling ids into ``uniq``'s rows is the gather ``table[ids]`` — the
    values and ``int64`` dtype of ``np.searchsorted(uniq, ids)``.  Only the
    unique ids are sorted: every position is scattered into ``table[ids]``,
    and the ids whose entry reads back their own position are kept — exactly
    one occurrence per id, whichever write won.

    The table belongs to the calling thread and is reused by its next call:
    grown to the largest id seen (8 B per id) and never cleared, since
    every entry read here was written in the same call.  Entries of ids not
    in ``uniq`` are stale.
    """
    ids = np.concatenate(arrays)
    size = int(ids.max()) + 1 if ids.size else 0
    table = getattr(_scratch, "table", None)
    if table is None or table.size < size:
        table = _scratch.table = np.empty(size, dtype=np.int64)
    positions = np.arange(ids.size, dtype=np.int64)
    table[ids] = positions
    uniq = np.sort(ids[table[ids] == positions])
    table[uniq] = np.arange(uniq.size, dtype=np.int64)
    return uniq, table
