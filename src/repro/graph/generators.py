"""Random graph generators.

The synthetic datasets (``repro.datasets``) are built on the stochastic
block model (SBM): graph communities correspond to class labels, which gives
the homophily that GraphSage/GAT, label augmentation, and Correct & Smooth
all rely on — mirroring the structure of the OGB node-classification graphs
used in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.utils.seed import temp_seed
from repro.utils.validation import check_positive_int, check_probability


def _sample_block_edges(rng: np.random.Generator, rows: np.ndarray, cols: np.ndarray,
                        prob: float, same_block: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sample edges between two node sets without materializing all pairs."""
    possible = len(rows) * len(cols)
    if possible == 0 or prob <= 0.0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    count = rng.binomial(possible, prob)
    if count == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    src = rows[rng.integers(0, len(rows), size=count)]
    dst = cols[rng.integers(0, len(cols), size=count)]
    if same_block:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return src, dst


def stochastic_block_model(block_sizes: Sequence[int], p_in: float, p_out: float,
                           seed: Optional[int] = None) -> tuple[Graph, np.ndarray]:
    """Generate a bidirected SBM graph: every sampled edge is added in both
    directions.

    Parameters
    ----------
    block_sizes:
        Number of nodes in each block (community).
    p_in, p_out:
        Within-block and between-block edge probabilities.

    Returns
    -------
    (graph, block_assignment):
        The generated graph and the block index of every node.
    """
    p_in = check_probability(p_in, "p_in")
    p_out = check_probability(p_out, "p_out")
    block_sizes = [check_positive_int(s, "block size") for s in block_sizes]
    num_nodes = int(sum(block_sizes))
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])

    srcs, dsts = [], []
    with temp_seed(seed) as rng:
        for i in range(len(block_sizes)):
            rows = np.arange(offsets[i], offsets[i + 1])
            for j in range(i, len(block_sizes)):
                cols = np.arange(offsets[j], offsets[j + 1])
                prob = p_in if i == j else p_out
                s, d = _sample_block_edges(rng, rows, cols, prob, same_block=(i == j))
                srcs.append(s)
                dsts.append(d)
    src = np.concatenate(srcs) if srcs else np.array([], dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.array([], dtype=np.int64)
    return Graph(num_nodes, src, dst).to_bidirected(), blocks


def erdos_renyi(num_nodes: int, avg_degree: float, seed: Optional[int] = None) -> Graph:
    """Bidirected Erdős–Rényi style random graph with a target average degree."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    num_edges = int(num_nodes * avg_degree / 2)
    with temp_seed(seed) as rng:
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
    keep = src != dst
    return Graph(num_nodes, src[keep], dst[keep]).to_bidirected()


def barabasi_albert(num_nodes: int, attach: int = 3, seed: Optional[int] = None) -> Graph:
    """Preferential-attachment graph (power-law degree distribution).

    Each new node attaches to ``attach`` existing nodes chosen with
    probability proportional to their current degree; the result is returned
    bidirected.  Used by robustness tests for skewed partitions.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    attach = check_positive_int(attach, "attach")
    if num_nodes <= attach:
        raise ValueError("num_nodes must exceed attach")
    with temp_seed(seed) as rng:
        # ``attachment_pool`` holds each node id once per incident edge, so
        # uniform sampling from it is degree-proportional sampling.
        attachment_pool: list[int] = list(range(attach))
        src_list, dst_list = [], []
        for new_node in range(attach, num_nodes):
            chosen = rng.choice(attachment_pool, size=attach, replace=True)
            for target in np.unique(chosen):
                src_list.append(new_node)
                dst_list.append(int(target))
                attachment_pool.append(int(target))
                attachment_pool.append(new_node)
    graph = Graph(num_nodes, np.asarray(src_list), np.asarray(dst_list))
    return graph.to_bidirected()


def ring_graph(num_nodes: int) -> Graph:
    """Deterministic bidirected ring — handy for exactness unit tests."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    nodes = np.arange(num_nodes, dtype=np.int64)
    nxt = (nodes + 1) % num_nodes
    return Graph(num_nodes, np.concatenate([nodes, nxt]), np.concatenate([nxt, nodes]))


def star_graph(num_leaves: int) -> Graph:
    """Deterministic star (hub = node 0) — a worst case for partition balance."""
    num_leaves = check_positive_int(num_leaves, "num_leaves")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    return Graph(num_leaves + 1, np.concatenate([leaves, hub]), np.concatenate([hub, leaves]))
