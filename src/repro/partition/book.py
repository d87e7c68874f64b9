"""Partition book: global ↔ local node-id bookkeeping.

Once a partition assignment is computed, every worker addresses its own
nodes with *local* ids ``0 … |V_p|-1`` (as in DistDGL / the SAR library);
the :class:`PartitionBook` holds the bidirectional mapping and is shared by
the sharding code, the communicator (which ships rows addressed by remote
local ids) and the evaluation code (which stitches per-worker predictions
back into global node order).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_1d_int_array, check_positive_int


class PartitionBook:
    """Mapping between global node ids and (partition, local id) pairs."""

    def __init__(self, assignment, num_parts: int):
        self.num_parts = check_positive_int(num_parts, "num_parts")
        self.assignment = check_1d_int_array(assignment, "assignment", max_value=self.num_parts)
        self.num_nodes = len(self.assignment)
        sizes = np.bincount(self.assignment, minlength=self.num_parts)
        if (sizes == 0).any():
            empty = np.where(sizes == 0)[0].tolist()
            raise ValueError(f"Partitions {empty} are empty; every partition needs ≥1 node")
        # Global ids of each partition's nodes, in ascending global order.
        self._partition_nodes: List[np.ndarray] = [
            np.where(self.assignment == p)[0].astype(np.int64) for p in range(self.num_parts)
        ]
        # Local id of every global node within its partition.
        self._local_ids = np.empty(self.num_nodes, dtype=np.int64)
        for nodes in self._partition_nodes:
            self._local_ids[nodes] = np.arange(len(nodes))

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        sizes = ", ".join(str(len(n)) for n in self._partition_nodes)
        return f"PartitionBook(num_parts={self.num_parts}, sizes=[{sizes}])"

    def partition_of(self, global_ids) -> np.ndarray:
        """Partition index of each global node id."""
        global_ids = check_1d_int_array(global_ids, "global_ids", max_value=self.num_nodes)
        return self.assignment[global_ids]

    def to_local(self, global_ids) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(partition, local_id)`` arrays for the given global ids."""
        global_ids = check_1d_int_array(global_ids, "global_ids", max_value=self.num_nodes)
        return self.assignment[global_ids], self._local_ids[global_ids]

    def to_global(self, partition: int, local_ids) -> np.ndarray:
        """Map local ids of ``partition`` back to global node ids."""
        nodes = self.nodes_of(partition)
        local_ids = check_1d_int_array(local_ids, "local_ids", max_value=len(nodes))
        return nodes[local_ids]

    def nodes_of(self, partition: int) -> np.ndarray:
        """Global ids of the nodes owned by ``partition`` (ascending)."""
        if not 0 <= partition < self.num_parts:
            raise ValueError(f"partition must be in [0, {self.num_parts}), got {partition}")
        return self._partition_nodes[partition]

    def partition_sizes(self) -> np.ndarray:
        """Number of nodes per partition."""
        return np.asarray([len(n) for n in self._partition_nodes], dtype=np.int64)

    def scatter_to_global(self, per_partition_values: Sequence[np.ndarray]) -> np.ndarray:
        """Assemble per-partition row blocks back into global node order.

        ``per_partition_values[p]`` must have ``partition_sizes()[p]`` rows.
        """
        if len(per_partition_values) != self.num_parts:
            raise ValueError(
                f"Expected {self.num_parts} per-partition arrays, got {len(per_partition_values)}"
            )
        first = np.asarray(per_partition_values[0])
        out_shape = (self.num_nodes,) + first.shape[1:]
        out = np.zeros(out_shape, dtype=first.dtype)
        for p, values in enumerate(per_partition_values):
            values = np.asarray(values)
            nodes = self._partition_nodes[p]
            if values.shape[0] != len(nodes):
                raise ValueError(
                    f"Partition {p} expects {len(nodes)} rows, got {values.shape[0]}"
                )
            out[nodes] = values
        return out
