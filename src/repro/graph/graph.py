"""Graph data structure.

A :class:`Graph` stores directed edge lists in COO form, one ``(src, dst)``
pair per relation in :attr:`Graph.relation_edges`, together with named
node-data arrays, and lazily builds the per-relation edge plans the
message-passing kernels run through.  A homogeneous graph is the one
relation ``None`` (DGL's convention); a relational graph (the R-GCN
substrate of Appendix A) names its relations over one shared node-id space.
Messages flow from ``src`` to ``dst`` — i.e. node ``i`` aggregates over its
*in*-edges, matching the paper's formulation
``h_i = f(Agg({m_{j→i} : j ∈ N(i)}))``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.aggregation import NeighborAggregation
from repro.graph.in_edges import InEdgeIndex
from repro.tensor.edge_plan import EdgePlan
from repro.utils.validation import check_1d_int_array, check_positive_int


class Graph(NeighborAggregation):
    """A directed graph with node data and one edge list per relation.

    The nn layers aggregate over it through the protocol of
    :mod:`repro.graph.aggregation`, executed on the graph's edge plans.

    Parameters
    ----------
    num_nodes:
        Number of nodes (node ids are ``0 … num_nodes-1``).
    src, dst:
        Edge endpoint arrays of equal length; edge ``e`` carries messages
        from ``src[e]`` to ``dst[e]``.  They become the relation ``None``;
        :meth:`from_relations` builds a graph of named relations instead.
    ndata:
        Optional mapping of named per-node arrays (features, labels, masks);
        every array's first dimension must equal ``num_nodes``.

    Attributes
    ----------
    relation_edges:
        ``{relation: (src, dst)}`` in relation order.
    src, dst:
        Every relation's edges concatenated in relation order — the union
        that degrees, :meth:`adjacency`, the partitioner and Correct & Smooth
        read.
    """

    def __init__(self, num_nodes: int, src, dst,
                 ndata: Optional[Dict[str, np.ndarray]] = None):
        self._build(num_nodes, {None: (src, dst)}, ndata)

    @classmethod
    def from_relations(cls, num_nodes: int,
                       relations: Mapping[str, Tuple[np.ndarray, np.ndarray]],
                       ndata: Optional[Dict[str, np.ndarray]] = None) -> "Graph":
        """A graph of named relations, ``relations = {name: (src, dst)}``.

        Relations keep the mapping's order, which fixes :attr:`src` /
        :attr:`dst` and each relation's sampling key.
        """
        if not relations or None in relations:
            raise ValueError("from_relations needs at least one relation, none named None")
        graph = cls.__new__(cls)
        graph._build(num_nodes, relations, ndata)
        return graph

    def _build(self, num_nodes: int, relations: Mapping, ndata) -> None:
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        self.relation_edges: Dict[Optional[str], Tuple[np.ndarray, np.ndarray]] = {}
        for name, (src, dst) in relations.items():
            label = "" if name is None else f"relations[{name!r}]."
            src = check_1d_int_array(src, f"{label}src", max_value=self.num_nodes)
            dst = check_1d_int_array(dst, f"{label}dst", max_value=self.num_nodes)
            if len(src) != len(dst):
                raise ValueError(
                    f"{label}src and dst must have equal length, got {len(src)} and {len(dst)}"
                )
            self.relation_edges[name] = (src, dst)
        if None in self.relation_edges:  # one edge list: the union is it, uncopied
            self.src, self.dst = self.relation_edges[None]
        else:
            self.src = np.concatenate([src for src, _ in self.relation_edges.values()])
            self.dst = np.concatenate([dst for _, dst in self.relation_edges.values()])
        self.ndata: Dict[str, np.ndarray] = {}
        if ndata:
            for key, value in ndata.items():
                self.set_ndata(key, value)
        self._adj_cache: Dict[Tuple[bool, str], sp.csr_matrix] = {}
        self._plans: Dict[Optional[str], EdgePlan] = {}
        self._in_edge_index: Optional[Dict[Optional[str], InEdgeIndex]] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def relation_names(self) -> List[Optional[str]]:
        return list(self.relation_edges)

    def __repr__(self) -> str:
        relations = "" if None in self.relation_edges else f", relations={self.relation_names}"
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}{relations})"

    def set_ndata(self, key: str, value: np.ndarray) -> None:
        value = np.asarray(value)
        if value.shape[0] != self.num_nodes:
            raise ValueError(
                f"ndata[{key!r}] first dimension must be {self.num_nodes}, got {value.shape[0]}"
            )
        self.ndata[key] = value

    # ------------------------------------------------------------------ #
    # edge plans and in-edge indexes
    # ------------------------------------------------------------------ #
    def relation_plan(self, relation: Optional[str]) -> EdgePlan:
        """One relation's :class:`~repro.tensor.edge_plan.EdgePlan`, built lazily.

        The plan caches the destination-sorted edge order and CSR structures
        that every message-passing kernel executes through; after the first
        call no training iteration derives sparsity again.
        """
        plan = self._plans.get(relation)
        if plan is None:
            src, dst = self._edges_of(relation)
            plan = self._plans[relation] = EdgePlan(src, dst, self.num_nodes, self.num_nodes)
        return plan

    def in_edge_index(self) -> Dict[Optional[str], InEdgeIndex]:
        """Per relation, its per-destination in-edge buckets in ascending edge order.

        Cached :class:`~repro.graph.in_edges.InEdgeIndex` es (the
        single-machine twin of :meth:`ShardedGraph.in_edge_index
        <repro.partition.shard.ShardedGraph.in_edge_index>`), built on first
        use: one stable sort per relation, after which a node set's complete
        in-neighbourhoods are read in O(their in-degrees) instead of an
        O(num_edges) mask.
        """
        if self._in_edge_index is None:
            self._in_edge_index = {name: InEdgeIndex(src, dst, self.num_nodes)
                                   for name, (src, dst) in self.relation_edges.items()}
        return self._in_edge_index

    # ------------------------------------------------------------------ #
    # degrees and adjacency (over the union of the relations)
    # ------------------------------------------------------------------ #
    def in_degrees(self) -> np.ndarray:
        """Number of in-edges per node."""
        return np.bincount(self.dst, minlength=self.num_nodes).astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Number of out-edges per node."""
        return np.bincount(self.src, minlength=self.num_nodes).astype(np.int64)

    def adjacency(self, transpose: bool = False, normalization: str = "none") -> sp.csr_matrix:
        """Return the (num_nodes × num_nodes) aggregation matrix.

        ``A[d, s] = 1`` for every edge ``s → d`` (parallel edges accumulate),
        so ``A @ X`` computes sum aggregation over in-neighbours.

        Parameters
        ----------
        transpose:
            Return :math:`A^T`.
        normalization:
            ``"none"`` (sum), ``"mean"`` (rows divided by in-degree) or
            ``"sym"`` (:math:`D^{-1/2} A D^{-1/2}`, used by C&S propagation).
        """
        if normalization not in ("none", "mean", "sym"):
            raise ValueError(f"Unknown normalization {normalization!r}")
        key = (transpose, normalization)
        if key not in self._adj_cache:
            data = np.ones(self.num_edges, dtype=np.float32)
            adj = sp.csr_matrix(
                (data, (self.dst, self.src)), shape=(self.num_nodes, self.num_nodes)
            )
            if normalization == "mean":
                deg = np.maximum(self.in_degrees().astype(np.float32), 1.0)
                adj = sp.diags(1.0 / deg) @ adj
            elif normalization == "sym":
                deg_in = np.maximum(self.in_degrees().astype(np.float32), 1.0)
                deg_out = np.maximum(self.out_degrees().astype(np.float32), 1.0)
                adj = sp.diags(deg_in ** -0.5) @ adj @ sp.diags(deg_out ** -0.5)
            adj = adj.tocsr()
            self._adj_cache[(False, normalization)] = adj
            self._adj_cache[(True, normalization)] = adj.T.tocsr()
        return self._adj_cache[key]

    # ------------------------------------------------------------------ #
    # transformations (homogeneous graphs only: they would drop the split)
    # ------------------------------------------------------------------ #
    def _require_homogeneous(self, operation: str) -> None:
        if None not in self.relation_edges:
            raise ValueError(
                f"{operation}() rebuilds a homogeneous Graph; this one has "
                f"relations {self.relation_names}"
            )

    def add_self_loops(self) -> "Graph":
        """Return a new graph with one ``i → i`` edge added for every node."""
        self._require_homogeneous("add_self_loops")
        loop = np.arange(self.num_nodes, dtype=np.int64)
        return Graph(
            self.num_nodes,
            np.concatenate([self.src, loop]),
            np.concatenate([self.dst, loop]),
            ndata=dict(self.ndata),
        )

    def to_bidirected(self) -> "Graph":
        """Return a graph containing both directions of every edge (deduplicated)."""
        self._require_homogeneous("to_bidirected")
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return Graph(self.num_nodes, src, dst, ndata=dict(self.ndata)).coalesce()

    def coalesce(self) -> "Graph":
        """Return a copy with duplicate edges removed."""
        self._require_homogeneous("coalesce")
        if self.num_edges == 0:
            return Graph(self.num_nodes, self.src, self.dst, ndata=dict(self.ndata))
        keys = self.src.astype(np.int64) * self.num_nodes + self.dst
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx.sort()
        return Graph(
            self.num_nodes, self.src[unique_idx], self.dst[unique_idx], ndata=dict(self.ndata)
        )
