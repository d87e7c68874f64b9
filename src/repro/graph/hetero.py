"""Heterogeneous graphs: one shared node-id space with typed (relational) edges.

This is the substrate for the R-GCN experiments of Appendix A.  The paper's
ogbn-mag graph has typed nodes as well; the R-GCN layer equation (Eq. 4 in
the paper) only requires relation-typed edges, so — as documented in
docs/architecture.md (graph/) — we keep a single node-id space and attach an optional node-type
array for bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.aggregation import RelationalAggregation
from repro.graph.graph import Graph
from repro.graph.in_edges import InEdgeIndex
from repro.tensor.edge_plan import EdgePlan
from repro.utils.validation import check_1d_int_array, check_positive_int


class HeteroGraph(RelationalAggregation):
    """A graph whose edges are grouped into named relations.

    The R-GCN layer aggregates over it through ``rgcn_aggregate``
    (:mod:`repro.graph.aggregation`), one edge plan per relation.

    Parameters
    ----------
    num_nodes:
        Number of nodes shared by every relation.
    relations:
        Mapping ``relation name -> (src, dst)`` edge arrays.
    ndata:
        Optional named per-node arrays.
    node_types:
        Optional integer node-type array of length ``num_nodes``.
    """

    def __init__(self, num_nodes: int, relations: Dict[str, Tuple[np.ndarray, np.ndarray]],
                 ndata: Optional[Dict[str, np.ndarray]] = None,
                 node_types: Optional[np.ndarray] = None):
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        if not relations:
            raise ValueError("HeteroGraph requires at least one relation")
        self.relations: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, (src, dst) in relations.items():
            src = check_1d_int_array(src, f"relations[{name!r}].src", max_value=self.num_nodes)
            dst = check_1d_int_array(dst, f"relations[{name!r}].dst", max_value=self.num_nodes)
            if len(src) != len(dst):
                raise ValueError(f"Relation {name!r}: src and dst lengths differ")
            self.relations[name] = (src, dst)
        self.ndata: Dict[str, np.ndarray] = {}
        if ndata:
            for key, value in ndata.items():
                self.set_ndata(key, value)
        self.node_types = None
        if node_types is not None:
            self.node_types = check_1d_int_array(node_types, "node_types")
            if len(self.node_types) != self.num_nodes:
                raise ValueError("node_types must have length num_nodes")
        self._plan_cache: Dict[str, EdgePlan] = {}
        self._in_edge_index: Optional[Dict[str, InEdgeIndex]] = None

    # ------------------------------------------------------------------ #
    @property
    def relation_names(self) -> List[str]:
        return list(self.relations.keys())

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_edges(self) -> int:
        return sum(len(src) for src, _ in self.relations.values())

    def num_edges_of(self, relation: str) -> int:
        self._check_relation(relation)
        return len(self.relations[relation][0])

    def __repr__(self) -> str:
        rels = ", ".join(f"{r}={self.num_edges_of(r)}" for r in self.relation_names)
        return f"HeteroGraph(num_nodes={self.num_nodes}, relations=[{rels}])"

    def set_ndata(self, key: str, value: np.ndarray) -> None:
        value = np.asarray(value)
        if value.shape[0] != self.num_nodes:
            raise ValueError(
                f"ndata[{key!r}] first dimension must be {self.num_nodes}, got {value.shape[0]}"
            )
        self.ndata[key] = value

    def _check_relation(self, relation: str) -> None:
        if relation not in self.relations:
            raise KeyError(
                f"Unknown relation {relation!r}; available: {self.relation_names}"
            )

    # ------------------------------------------------------------------ #
    def relation_plan(self, relation: str) -> EdgePlan:
        """One relation's :class:`~repro.tensor.edge_plan.EdgePlan` (lazy, cached)."""
        self._check_relation(relation)
        if relation not in self._plan_cache:
            src, dst = self.relations[relation]
            self._plan_cache[relation] = EdgePlan(src, dst, self.num_nodes, self.num_nodes)
        return self._plan_cache[relation]

    def in_edge_index(self) -> Dict[str, InEdgeIndex]:
        """Per relation, its cached :class:`~repro.graph.in_edges.InEdgeIndex`.

        The hetero twin of :meth:`Graph.in_edge_index
        <repro.graph.graph.Graph.in_edge_index>`: one stable sort per
        relation, built on first use, in :attr:`relation_names` order.
        """
        if self._in_edge_index is None:
            self._in_edge_index = {
                name: InEdgeIndex(src, dst, self.num_nodes)
                for name, (src, dst) in self.relations.items()
            }
        return self._in_edge_index

    # ------------------------------------------------------------------ #
    def relation_graph(self, relation: str) -> Graph:
        """Return a homogeneous :class:`Graph` containing only one relation's edges."""
        self._check_relation(relation)
        src, dst = self.relations[relation]
        return Graph(self.num_nodes, src, dst, ndata=dict(self.ndata))

    def to_homogeneous(self) -> Tuple[Graph, np.ndarray]:
        """Merge every relation into one graph.

        Returns the merged graph and an integer edge-type array aligned with
        its edge list (relation index in :attr:`relation_names` order).
        """
        srcs, dsts, types = [], [], []
        for idx, name in enumerate(self.relation_names):
            src, dst = self.relations[name]
            srcs.append(src)
            dsts.append(dst)
            types.append(np.full(len(src), idx, dtype=np.int64))
        graph = Graph(
            self.num_nodes,
            np.concatenate(srcs) if srcs else np.array([], dtype=np.int64),
            np.concatenate(dsts) if dsts else np.array([], dtype=np.int64),
            ndata=dict(self.ndata),
        )
        return graph, np.concatenate(types) if types else np.array([], dtype=np.int64)

    def in_degrees(self, relation: Optional[str] = None) -> np.ndarray:
        """Per-node in-degree, for one relation or summed over all of them."""
        if relation is not None:
            self._check_relation(relation)
            _, dst = self.relations[relation]
            return np.bincount(dst, minlength=self.num_nodes).astype(np.int64)
        total = np.zeros(self.num_nodes, dtype=np.int64)
        for _, dst in self.relations.values():
            total += np.bincount(dst, minlength=self.num_nodes)
        return total

    def relation_subset(self, names: Iterable[str]) -> "HeteroGraph":
        """Return a HeteroGraph restricted to the given relations."""
        names = list(names)
        for name in names:
            self._check_relation(name)
        return HeteroGraph(
            self.num_nodes,
            {name: self.relations[name] for name in names},
            ndata=dict(self.ndata),
            node_types=self.node_types,
        )
