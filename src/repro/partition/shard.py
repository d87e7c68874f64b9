"""Per-worker graph shards and the block subgraphs ``G_{p,q}``.

Following Section 3.2 of the paper, worker ``p`` owns the vertices ``V_p`` of
its partition and, for every partition ``q`` (including its own), a block
subgraph ``G_{p,q}`` containing all edges from partition ``q`` into partition
``p``.  During aggregation, worker ``p`` iterates over the blocks: for the
local block the source features are already resident, for remote blocks the
(deduplicated) required source rows are fetched from worker ``q``.

:class:`EdgeBlock` stores a remote block in the compact form the
communicator needs: the *local-to-q* ids of the required source nodes plus
per-edge indices into that compact list.

:class:`ShardedGraph` holds one block grid per relation of the graph, a
homogeneous graph's shard the one relation ``None``.
:func:`edge_blocks` cuts every grid: the shards' (one split loop per relation
in :func:`create_shards`) and the sampled and MFG grids of
:class:`~repro.sample.distributed.DistributedNeighborSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.graph.graph import Graph
from repro.graph.in_edges import InEdgeIndex
from repro.partition.book import PartitionBook
from repro.tensor.edge_plan import EdgePlan
from repro.utils.validation import check_strictly_increasing


@dataclass
class EdgeBlock:
    """Edges from partition ``src_rank`` into partition ``dst_rank`` (``G_{p,q}``)."""

    src_rank: int
    dst_rank: int
    num_dst: int
    #: local ids (on worker ``src_rank``) of the unique source nodes this block needs
    required_src_local: np.ndarray
    #: per-edge index into :attr:`required_src_local`
    src_index: np.ndarray
    #: per-edge destination id, local to worker ``dst_rank``
    dst_local: np.ndarray
    #: per-edge *global* edge position in the original graph's edge arrays
    #: (``None`` for block grids that never need it, e.g. sampled and MFG grids).
    #: Carried so per-worker code can recover the original edge order — the
    #: reduction order that makes restricted outputs bit-identical to the
    #: single-machine pipeline (see :meth:`ShardedGraph.in_edge_index`).
    edge_pos: Optional[np.ndarray] = None
    #: lazily built edge plan this block's kernels execute through
    _plan: Optional[EdgePlan] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # The engine scatter-adds error rows with ``target[rows] += error``
        # and takes ``len(rows) == len(payload)`` to mean "every row, in
        # order"; both rest on this (it is ``np.unique`` output everywhere).
        check_strictly_increasing(self.required_src_local, "required_src_local")

    @property
    def num_edges(self) -> int:
        return len(self.src_index)

    @property
    def num_required_src(self) -> int:
        return len(self.required_src_local)

    def plan(self) -> EdgePlan:
        """This block's :class:`~repro.tensor.edge_plan.EdgePlan` (lazy, cached).

        The plan is built over the block's *compact* edge list — per-edge
        indices into :attr:`required_src_local` and local destination ids —
        so the SAR kernels aggregate fetched feature rows through it without
        any per-call sparsity construction.
        """
        self._plan = self._plan or EdgePlan(self.src_index, self.dst_local,
                                            self.num_dst, self.num_required_src)
        return self._plan


class ShardedGraph:
    """Worker ``rank``'s view of a partitioned graph: one ``G_{p,q}`` grid per relation.

    :attr:`relation_blocks` maps each relation to this worker's
    ``num_parts``-long row of :class:`EdgeBlock` s and
    :attr:`relation_in_degrees` to its nodes' global in-degrees over that
    relation.  A homogeneous graph's shard holds the one relation ``None``,
    which :attr:`blocks` and :attr:`local_in_degrees` read; a relational
    graph's names its relations.  :meth:`in_edge_index` and
    :meth:`with_blocks` are keyed by relation too.
    """

    def __init__(self, rank: int, book: PartitionBook,
                 relation_blocks: Dict[Optional[str], List[EdgeBlock]],
                 relation_in_degrees: Dict[Optional[str], np.ndarray],
                 node_data: Optional[Dict[str, np.ndarray]] = None):
        self.rank = rank
        self.num_parts = book.num_parts
        self.book = book
        self.global_node_ids = book.nodes_of(rank)
        self.num_local_nodes = len(self.global_node_ids)
        self.num_total_nodes = book.num_nodes
        self.node_data: Dict[str, np.ndarray] = dict(node_data or {})
        self.relation_blocks = relation_blocks
        self.relation_in_degrees = {k: np.asarray(v, dtype=np.int64)
                                    for k, v in relation_in_degrees.items()}
        self._in_edge_index: Optional[Dict[Optional[str], InEdgeIndex]] = None

    @property
    def blocks(self) -> List[EdgeBlock]:
        """The block row of the relation ``None`` (a homogeneous graph's shard)."""
        return self.relation_blocks[None]

    @property
    def local_in_degrees(self) -> np.ndarray:
        """Global in-degrees of the local nodes over the relation ``None``."""
        return self.relation_in_degrees[None]

    def in_edge_index(self) -> Dict[Optional[str], InEdgeIndex]:
        """Per relation, its per-local-destination in-edge buckets in
        ascending *global* edge order.

        Builds (once, cached) one :class:`~repro.graph.in_edges.InEdgeIndex`
        per relation over this worker's incoming edges: destinations are
        local ids, while sources and edge ids (a relation's edge positions)
        stay global.  Because every bucket lists a destination's complete
        in-neighbourhood in the original edge order, blocks rebuilt from
        these buckets reduce per destination exactly as the single-machine
        pipeline does — what keeps the distributed serving path and the
        cooperative sampler (whose draws hash the global edge ids)
        bit-identical.  Requires block grids carrying
        :attr:`EdgeBlock.edge_pos` (anything :func:`create_shards` builds).
        """
        if self._in_edge_index is None:
            self._in_edge_index = {name: self._relation_in_edges(blocks)
                                   for name, blocks in self.relation_blocks.items()}
        return self._in_edge_index

    def _relation_in_edges(self, blocks: List[EdgeBlock]) -> InEdgeIndex:
        empty = np.empty(0, dtype=np.int64)
        srcs, dsts, eids = [empty], [empty], [empty]
        for q, block in enumerate(blocks):
            if block.num_edges == 0:
                continue
            if block.edge_pos is None:
                raise ValueError(
                    "in_edge_index() needs blocks carrying global edge "
                    "positions (EdgeBlock.edge_pos); rebuild the shard "
                    "with create_shards()"
                )
            src_global = self.book.to_global(q, block.required_src_local)
            srcs.append(src_global[block.src_index])
            dsts.append(block.dst_local)
            eids.append(block.edge_pos)
        src, dst, eid = np.concatenate(srcs), np.concatenate(dsts), np.concatenate(eids)
        # Feed edges in ascending global edge id so every bucket's order is
        # the original (single-machine) reduction order.
        order = np.argsort(eid, kind="stable")
        return InEdgeIndex(src[order], dst[order], self.num_local_nodes, eids=eid[order])

    def with_blocks(self, grids: Dict[Optional[str], List[EdgeBlock]]) -> "ShardedGraph":
        """A shallow view of this shard executing over substitute block grids.

        ``grids`` maps each relation to its substitute block row
        (``{None: row}`` for a homogeneous graph's).  Node data and the
        partition book are shared with the original shard — only the grids
        differ.  Each relation's per-node in-degrees are re-derived from its
        substitute blocks: sampled grids normalize mean aggregation by the
        sampled degree, and on a full-neighbourhood (MFG) grid the recount
        equals the global degree on every destination the grid keeps and is
        0 on the rest, which aggregate nothing.
        """
        view = ShardedGraph.__new__(ShardedGraph)
        view.__dict__.update(self.__dict__)
        view.relation_blocks = {name: list(blocks) for name, blocks in grids.items()}
        view._in_edge_index = None
        view.relation_in_degrees = {
            name: np.bincount(np.concatenate([b.dst_local for b in blocks]),
                              minlength=self.num_local_nodes).astype(np.int64)
            for name, blocks in grids.items()}
        return view

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(rank={self.rank}/{self.num_parts}, "
            f"local_nodes={self.num_local_nodes}, halo={self.halo_size}, "
            f"relations={list(self.relation_blocks)})"
        )

    @property
    def local_block(self) -> EdgeBlock:
        """The block of edges whose source and destination are both local."""
        return self.blocks[self.rank]

    @property
    def halo_size(self) -> int:
        """Total number of unique remote source rows this worker must fetch
        (summed over relations)."""
        return sum(
            b.num_required_src
            for blocks in self.relation_blocks.values()
            for q, b in enumerate(blocks) if q != self.rank
        )


# --------------------------------------------------------------------------- #
# shard construction
# --------------------------------------------------------------------------- #
def _group_by_part(part: np.ndarray, num_parts: int) -> List[np.ndarray]:
    """Per partition ``p``, the ascending positions where ``part == p``."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(num_parts + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def edge_blocks(book: PartitionBook, rank: int, src: np.ndarray, dst_local: np.ndarray,
                edge_pos: Optional[np.ndarray] = None) -> List[EdgeBlock]:
    """Cut worker ``rank``'s in-edges into its row of ``G_{rank,q}`` blocks.

    ``src`` are global source ids, ``dst_local`` destination ids local to
    ``rank``, ``edge_pos`` (optional) global edge positions.  Block ``q``
    holds the edges whose source ``q`` owns, in input order.
    """
    src_part, src_local = book.to_local(src)
    num_dst = len(book.nodes_of(rank))
    blocks = []
    for q, sel in enumerate(_group_by_part(src_part, book.num_parts)):
        required, src_index = np.unique(src_local[sel], return_inverse=True)
        blocks.append(
            EdgeBlock(
                src_rank=q,
                dst_rank=rank,
                num_dst=num_dst,
                required_src_local=required.astype(np.int64),
                src_index=src_index.astype(np.int64),
                dst_local=dst_local[sel],
                edge_pos=None if edge_pos is None else edge_pos[sel],
            )
        )
    return blocks


def create_shards(graph: Graph, book: PartitionBook) -> List[ShardedGraph]:
    """Split ``graph`` into one :class:`ShardedGraph` per partition.

    Every relation of :attr:`Graph.relation_edges
    <repro.graph.graph.Graph.relation_edges>` gets one block grid (a
    homogeneous graph the one grid of the relation ``None``).  Each worker's
    in-edges reach :func:`edge_blocks` in global edge order.
    """
    if book.num_nodes != graph.num_nodes:
        raise ValueError(
            f"PartitionBook covers {book.num_nodes} nodes but graph has {graph.num_nodes}"
        )
    rows: Dict[Optional[str], List[List[EdgeBlock]]] = {}
    degrees: Dict[Optional[str], np.ndarray] = {}
    for name, (src, dst) in graph.relation_edges.items():
        dst_part, dst_local = book.to_local(dst)
        rows[name] = [edge_blocks(book, p, src[sel], dst_local[sel], edge_pos=sel)
                      for p, sel in enumerate(_group_by_part(dst_part, book.num_parts))]
        degrees[name] = np.bincount(dst, minlength=graph.num_nodes)
    shards = []
    for p in range(book.num_parts):
        nodes = book.nodes_of(p)
        shards.append(ShardedGraph(p, book, {name: row[p] for name, row in rows.items()},
                                   {name: degree[nodes] for name, degree in degrees.items()},
                                   {k: v[nodes] for k, v in graph.ndata.items()}))
    return shards
