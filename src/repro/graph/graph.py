"""Graph data structure.

A :class:`Graph` stores a directed edge list in COO form (``src``/``dst``
arrays) together with named node-data arrays, and lazily builds the edge
plan the message-passing kernels run through.  Messages flow
from ``src`` to ``dst`` — i.e. node ``i`` aggregates over its *in*-edges,
matching the paper's formulation ``h_i = f(Agg({m_{j→i} : j ∈ N(i)}))``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.aggregation import NeighborAggregation
from repro.graph.in_edges import InEdgeIndex
from repro.tensor.edge_plan import EdgePlan
from repro.utils.validation import check_1d_int_array, check_positive_int


class Graph(NeighborAggregation):
    """A directed graph with node data.

    The nn layers aggregate over it through the protocol of
    :mod:`repro.graph.aggregation`, executed on the graph's edge plan.

    Parameters
    ----------
    num_nodes:
        Number of nodes (node ids are ``0 … num_nodes-1``).
    src, dst:
        Edge endpoint arrays of equal length; edge ``e`` carries messages
        from ``src[e]`` to ``dst[e]``.
    ndata:
        Optional mapping of named per-node arrays (features, labels, masks);
        every array's first dimension must equal ``num_nodes``.
    """

    def __init__(self, num_nodes: int, src, dst,
                 ndata: Optional[Dict[str, np.ndarray]] = None):
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        self.src = check_1d_int_array(src, "src", max_value=self.num_nodes)
        self.dst = check_1d_int_array(dst, "dst", max_value=self.num_nodes)
        if len(self.src) != len(self.dst):
            raise ValueError(
                f"src and dst must have equal length, got {len(self.src)} and {len(self.dst)}"
            )
        self.ndata: Dict[str, np.ndarray] = {}
        if ndata:
            for key, value in ndata.items():
                self.set_ndata(key, value)
        self._adj_cache: Dict[Tuple[bool, str], sp.csr_matrix] = {}
        self._plan: Optional[EdgePlan] = None
        self._in_edge_index: Optional[InEdgeIndex] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return len(self.src)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def set_ndata(self, key: str, value: np.ndarray) -> None:
        value = np.asarray(value)
        if value.shape[0] != self.num_nodes:
            raise ValueError(
                f"ndata[{key!r}] first dimension must be {self.num_nodes}, got {value.shape[0]}"
            )
        self.ndata[key] = value

    # ------------------------------------------------------------------ #
    # the edge plan (sort-once/reduce-many kernel layer)
    # ------------------------------------------------------------------ #
    def plan(self) -> EdgePlan:
        """The graph's :class:`~repro.tensor.edge_plan.EdgePlan`, built lazily.

        The plan caches the destination-sorted edge order and CSR structures
        that every message-passing kernel executes through; after the first
        call no training iteration derives sparsity again.
        """
        self._plan = self._plan or EdgePlan(self.src, self.dst, self.num_nodes,
                                            self.num_nodes)
        return self._plan

    def in_edge_index(self) -> InEdgeIndex:
        """Per-destination in-edge buckets in ascending edge order, built lazily.

        A cached :class:`~repro.graph.in_edges.InEdgeIndex` (the
        single-machine twin of :meth:`ShardedGraph.in_edge_index
        <repro.partition.shard.ShardedGraph.in_edge_index>`): one stable sort
        of the edge list, after which a node set's complete in-neighbourhoods
        are read in O(their in-degrees) instead of an O(num_edges) mask.
        """
        if self._in_edge_index is None:
            self._in_edge_index = InEdgeIndex.from_graph(self)
        return self._in_edge_index

    # ------------------------------------------------------------------ #
    # degrees and adjacency
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
    # transformations
    # ------------------------------------------------------------------ #
    def add_self_loops(self) -> "Graph":
        """Return a new graph with one ``i → i`` edge added for every node."""
        loop = np.arange(self.num_nodes, dtype=np.int64)
        return Graph(
            self.num_nodes,
            np.concatenate([self.src, loop]),
            np.concatenate([self.dst, loop]),
            ndata=dict(self.ndata),
        )

    def remove_self_loops(self) -> "Graph":
        """Return a new graph without ``i → i`` edges."""
        keep = self.src != self.dst
        return Graph(self.num_nodes, self.src[keep], self.dst[keep], ndata=dict(self.ndata))

    def reverse(self) -> "Graph":
        """Return the graph with every edge direction flipped."""
        return Graph(self.num_nodes, self.dst.copy(), self.src.copy(), ndata=dict(self.ndata))

    def to_bidirected(self) -> "Graph":
        """Return a graph containing both directions of every edge (deduplicated)."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return Graph(self.num_nodes, src, dst, ndata=dict(self.ndata)).coalesce()

    def coalesce(self) -> "Graph":
        """Return a copy with duplicate edges removed."""
        if self.num_edges == 0:
            return Graph(self.num_nodes, self.src, self.dst, ndata=dict(self.ndata))
        keys = self.src.astype(np.int64) * self.num_nodes + self.dst
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx.sort()
        return Graph(
            self.num_nodes, self.src[unique_idx], self.dst[unique_idx], ndata=dict(self.ndata)
        )

    def is_bidirected(self) -> bool:
        """Check whether every edge has a reverse counterpart."""
        fwd = set(zip(self.src.tolist(), self.dst.tolist()))
        return all((d, s) in fwd for s, d in fwd)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Source endpoints of the in-edges of ``node``."""
        return self.src[self.dst == node]

    def out_neighbors(self, node: int) -> np.ndarray:
        """Destination endpoints of the out-edges of ``node``."""
        return self.dst[self.src == node]

    # ------------------------------------------------------------------ #
    # subgraphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes) -> Tuple["Graph", np.ndarray]:
        """Node-induced subgraph.

        Returns the subgraph (with nodes relabelled ``0 … len(nodes)-1`` in
        the order given) and the array of original node ids, so callers can
        map features and results back and forth.
        """
        nodes = check_1d_int_array(nodes, "nodes", max_value=self.num_nodes)
        lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        lookup[nodes] = np.arange(len(nodes))
        mask = (lookup[self.src] >= 0) & (lookup[self.dst] >= 0)
        sub_ndata = {k: v[nodes] for k, v in self.ndata.items()}
        sub = Graph(
            max(len(nodes), 1),
            lookup[self.src[mask]],
            lookup[self.dst[mask]],
            ndata=sub_ndata if len(nodes) else None,
        )
        return sub, nodes

    def edge_subgraph_arrays(self, edge_mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the (src, dst) arrays of the edges selected by ``edge_mask``."""
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (self.num_edges,):
            raise ValueError(
                f"edge_mask must have shape ({self.num_edges},), got {edge_mask.shape}"
            )
        return self.src[edge_mask], self.dst[edge_mask]

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scipy(cls, adj: sp.spmatrix, ndata: Optional[Dict[str, np.ndarray]] = None) -> "Graph":
        """Build a graph from a sparse adjacency where ``adj[d, s] != 0`` is an edge."""
        coo = adj.tocoo()
        return cls(adj.shape[0], coo.col.astype(np.int64), coo.row.astype(np.int64), ndata=ndata)

    @classmethod
    def from_edge_list(cls, num_nodes: int, edges: Iterable[Tuple[int, int]],
                       ndata: Optional[Dict[str, np.ndarray]] = None) -> "Graph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        edges = list(edges)
        if edges:
            src, dst = zip(*edges)
        else:
            src, dst = [], []
        return cls(num_nodes, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
                   ndata=ndata)
