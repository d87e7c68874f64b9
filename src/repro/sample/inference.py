"""Layer-wise full-neighbourhood inference: evaluate giant graphs batch-by-batch.

Full-graph evaluation is the memory wall sampled training was built to avoid:
one ``model(graph, features)`` call materializes every layer's full
``(num_nodes, width)`` activation matrix *plus* the per-edge tensors of
attention layers, all at once.  Layer-wise inference computes layer ``l``'s
representations for **all** nodes, batch-by-batch, before moving on to layer
``l + 1`` (the standard DGL/GraphSAGE ``inference()`` recipe):

* the node set is split into fixed consecutive-id batches; each batch's
  **single-layer, full-neighbourhood** block comes from the graph's cached
  in-edge index (:func:`~repro.graph.mfg.block_from_in_edges`), so each
  batch row's aggregation sees its complete in-neighbourhood — layer-wise
  inference is exact, never an approximation, and nothing is sampled;
* only two full-width matrices are ever alive (layer ``l``'s input and layer
  ``l``'s output), and everything else — projected features, per-edge
  attention tensors — is batch-sized;
* a batch's block does not depend on the layer, the features or the call,
  so the block list is built once per batch size and reused by every layer
  and every later ``run()`` — each block keeps its edge plan with it.

Because the engine runs the model in ``eval()`` mode, every inter-layer
transform is a per-row map (BatchNorm applies running statistics, Dropout is
the identity), and each block holds complete in-neighbourhoods in the order
its edge plan reduces in — the resulting logits are
**bit-identical** to the full-graph forward pass, at a strictly lower peak of
live tensor bytes (``tests/test_inference.py`` asserts both).

A partitioned graph needs no batching (:func:`distributed_layerwise_logits`):
the SAR forward already computes one layer for every owned row before the
next, and holds one remote ``G_{p,q}`` halo block at a time (paper §3), so a
``no_grad`` SAR forward *is* the memory-bounded layer-by-layer evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dist_graph import DistributedGraph
from repro.distributed.comm import SERVE_FRONTIER_TAG, SERVE_HALO_TAG
from repro.graph.graph import Graph
from repro.graph.mfg import block_from_in_edges, unique_ranks
from repro.sample.loader import num_batches_for
from repro.store import FeatureStore, PartitionedKVStore, as_feature_store
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_1d_int_array, check_positive_int


def check_layered_model(model) -> int:
    """Validate that ``model`` exposes the per-layer hook; return its depth.

    Shared by the inference engines here and by the
    :mod:`repro.serving` executors — anything driving the model
    through ``forward_layer(index, graph, x)`` one layer at a time.
    """
    num_layers = getattr(model, "num_layers", None)
    if num_layers is None or not hasattr(model, "forward_layer"):
        raise ValueError(
            "layer-wise inference needs a model exposing num_layers and "
            "forward_layer(index, graph, x) (all repro.nn models do)"
        )
    return int(num_layers)


def _conv_out_width(conv, fallback: int) -> int:
    """Output width of one conv layer (heads folded in), or ``fallback``."""
    out = getattr(conv, "out_features", None)
    if out is None:
        return fallback
    return int(out) * int(getattr(conv, "num_heads", 1))


class LayerWiseInference:
    """Single-machine layer-wise full-neighbourhood inference engine.

    Computes ``model``'s output for **every** node of ``graph`` without ever
    running a full-graph forward pass: one layer at a time, batch-by-batch,
    over per-batch single-layer blocks built from ``graph.in_edge_index()``
    (:func:`~repro.graph.mfg.block_from_in_edges`) once per batch size.

    Parameters
    ----------
    model:
        A module exposing ``num_layers`` and ``forward_layer(index, graph,
        x)`` — every ``repro.nn`` model qualifies.  The engine temporarily
        switches it to ``eval()`` mode for the duration of :meth:`run`.
    graph:
        The full :class:`~repro.graph.graph.Graph`, homogeneous or relational.
    batch_size:
        Destination nodes per inference batch.  Peak memory scales with the
        two full-width layer matrices plus one batch's intermediates; smaller
        batches trade throughput for memory.  Ignored when ``byte_budget``
        is set.
    byte_budget:
        Adaptive batch sizing: a per-batch live-tensor byte target.  Each
        layer's batch size is derived at sweep start from the layer's actual
        feature widths — per destination row the batch holds roughly its
        gathered input rows (``(1 + avg_degree) * in_width``) plus its output
        row (``out_width``), each ``itemsize`` bytes — clamped to
        ``[1, num_nodes]``.  Wide early layers get small batches, narrow
        later layers get large ones, keeping per-batch memory flat instead of
        letting one fixed ``batch_size`` be sized for the worst layer.  The
        chosen sizes are recorded in :attr:`layer_batch_sizes`.

    Notes
    -----
    Determinism: batches are consecutive id ranges and every block takes
    complete in-neighbourhoods, so the engine is fully deterministic — and
    its logits are bit-identical to ``model(graph, Tensor(features))`` in
    ``eval()`` mode.
    """

    def __init__(
        self,
        model,
        graph: Graph,
        batch_size: int = 1024,
        byte_budget: Optional[int] = None,
    ):
        self.model = model
        self.graph = graph
        self.num_layers = check_layered_model(model)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.byte_budget = (
            None if byte_budget is None
            else check_positive_int(byte_budget, "byte_budget")
        )
        # Batch size -> that size's consecutive-id blocks.  A batch's block
        # depends on nothing but (graph, batch size), so each list is built
        # on first use and serves every layer and every later run; adaptive
        # runs share a list across same-width layers.
        self._blocks: Dict[int, list] = {}
        #: per-layer batch sizes chosen by the most recent :meth:`run`.
        self.layer_batch_sizes: List[int] = []

    def _adaptive_batch_size(self, layer: int, in_width: int, itemsize: int) -> int:
        """Batch size keeping one batch's live tensors near ``byte_budget``.

        Per destination row a batch materializes its gathered full-
        neighbourhood input rows — ``(1 + avg_degree) * in_width`` values on
        average — plus its ``out_width`` output row.
        """
        convs = getattr(self.model, "convs", None)
        out_width = (
            _conv_out_width(convs[layer], in_width)
            if convs is not None and layer < len(convs)
            else in_width
        )
        num_nodes = self.graph.num_nodes
        avg_degree = self.graph.num_edges / max(num_nodes, 1)
        per_row = itemsize * ((1.0 + avg_degree) * in_width + out_width)
        size = int(self.byte_budget // max(per_row, 1.0))
        return max(1, min(size, num_nodes))

    @property
    def num_batches(self) -> int:
        """Batches per layer at the fixed ``batch_size`` (adaptive runs vary
        per layer — see :attr:`layer_batch_sizes`)."""
        return num_batches_for(self.graph.num_nodes, self.batch_size, drop_last=False)

    def run(self, features) -> np.ndarray:
        """Infer every node's output representation.

        Parameters
        ----------
        features:
            ``(num_nodes, in_features)`` input feature matrix, or any
            :class:`~repro.store.FeatureStore` covering the graph's nodes —
            layer 0's batch rows are gathered through the store (so a
            partitioned KV backend fetches only each batch's input rows, and
            an embedding store serves its table); later layers always read
            the dense matrix the previous layer produced.

        Returns
        -------
        numpy.ndarray
            ``(num_nodes, out_features)`` outputs — bit-identical to the
            full-graph ``model(graph, Tensor(features))`` in ``eval()`` mode.
        """
        model = self.model
        num_nodes = self.graph.num_nodes
        store = as_feature_store(features)
        if store.num_rows != num_nodes:
            raise ValueError(
                f"features has {store.num_rows} rows but graph has {num_nodes} nodes"
            )
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                # From layer 1 on the sweep input is the previous layer's
                # output matrix, held as a Tensor so the engine's two
                # full-width matrices are visible to the live-tensor memory
                # accounting the benchmarks use.
                h: Optional[Tensor] = None
                self.layer_batch_sizes = []
                for layer in range(self.num_layers):
                    if self.byte_budget is None:
                        size = self.batch_size
                    else:
                        size = self._adaptive_batch_size(
                            layer,
                            store.dim if layer == 0 else h.shape[1],
                            np.dtype(store.dtype if layer == 0 else h.data.dtype).itemsize,
                        )
                    self.layer_batch_sizes.append(size)
                    blocks = self._blocks.get(size)
                    if blocks is None:
                        index = self.graph.in_edge_index()
                        blocks = self._blocks[size] = [
                            block_from_in_edges(index, np.arange(lo, min(lo + size, num_nodes)))
                            for lo in range(0, num_nodes, size)
                        ]
                    out: Optional[Tensor] = None
                    for block in blocks:
                        rows = (
                            store.gather(block.src_nodes) if layer == 0 else h.data[block.src_nodes]
                        )
                        y = model.forward_layer(layer, block, Tensor(rows)).data
                        if out is None:
                            out = Tensor(np.empty((num_nodes, y.shape[1]), dtype=y.dtype))
                        out.data[block.dst_nodes] = y
                    h = out
                return h.data
        finally:
            if was_training:
                model.train()


def distributed_layerwise_logits(
    dist_graph: DistributedGraph,
    model,
    features: np.ndarray,
    batch_size: int = 1024,
) -> np.ndarray:
    """Evaluation logits over a partitioned graph: one no-grad SAR forward (collective call).

    ``begin_step()``, then the model's forward over ``dist_graph`` in
    ``eval()`` mode under ``no_grad``, outside any restriction scope.  The
    forward is already layer-by-layer — layer ``l`` finishes on every owned
    row before layer ``l + 1`` starts — and the SAR engine holds one remote
    ``G_{p,q}`` halo block at a time and, with no backward to record, keeps
    nothing edge-sized; even vanilla DP drops its halos under ``no_grad``.
    So each layer fetches its halo once, and the worker's live tensors are
    its owned input and output rows plus one remote block.  This is what the
    distributed trainer's ``evaluate()`` runs, whatever ``eval_inference``
    says.

    Parameters
    ----------
    dist_graph:
        The worker's :class:`~repro.core.dist_graph.DistributedGraph`, over
        a homogeneous or a relational shard.  The forward runs under
        ``restricted(None)``, so whatever scope the caller holds
        (an MFG training restriction, or none) is back in force afterwards
        and every row's logits are computed.
    model:
        The worker's model replica; switched to ``eval()`` for the duration.
    features:
        ``(num_local_nodes, in_features)`` — this worker's feature rows, or
        a :class:`~repro.store.PartitionedKVStore` (its resident partition
        rows are used; halo fetches then route through the store's hot-row
        cache when it is attached to ``dist_graph``) or another
        :class:`~repro.store.FeatureStore` covering the local rows.
    batch_size:
        Ignored; kept only for existing callers and due for removal with
        this function's name.

    Returns
    -------
    numpy.ndarray
        ``(num_local_nodes, out_features)`` — the worker's owned rows of the
        global output matrix.  Matches the single-machine result up to
        floating-point reduction order (the per-partition partial sums
        accumulate block-sequentially).
    """
    if not isinstance(dist_graph, DistributedGraph):
        raise ValueError("distributed evaluation needs a DistributedGraph handle")
    if isinstance(features, PartitionedKVStore):
        features = features.local_matrix
    elif isinstance(features, FeatureStore):
        features = features.gather(None)
    if features.shape[0] != dist_graph.num_nodes:
        raise ValueError(
            f"features has {features.shape[0]} rows but this worker owns "
            f"{dist_graph.num_nodes} nodes"
        )
    was_training = model.training
    model.eval()
    try:
        with no_grad(), dist_graph.restricted(None):
            dist_graph.begin_step()
            return model(dist_graph, Tensor(features)).data
    finally:
        if was_training:
            model.train()


def probe_rows(cache, layer: int, nodes: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(found_mask, hit_rows)`` of ``nodes`` at ``layer``; without a cache every probe misses."""
    if cache is None:
        return np.zeros(len(nodes), dtype=bool), None
    return cache.lookup_partial(layer, nodes)


def splice_rows(
    found: np.ndarray, hit_rows: Optional[np.ndarray], computed: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """A level's row matrix from its cached rows (``found``) and its computed rows (the rest)."""
    if hit_rows is None:
        return computed
    if computed is None:
        return hit_rows
    rows = np.empty((len(found), computed.shape[1]), dtype=computed.dtype)
    rows[found] = hit_rows
    rows[~found] = computed
    return rows


def distributed_restricted_logits(
    dist_graph: DistributedGraph,
    model,
    store,
    seed_nodes,
    *,
    cache=None,
    key: str = "serve",
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Seed logits over a partitioned graph, bit-identical to single-machine.

    The distributed serving hot path (collective call — every worker runs it
    for the **same** ``seed_nodes``): :meth:`repro.serving.LocalExecutor.
    compute`'s per-node pruned walk, with each level's nodes split by owner.
    A level is the same ascending id set on every worker; a worker holds the
    rows of the nodes it owns.

    1. **Probe owned rows.**  From the seeds (level ``num_layers``) down,
       each worker probes the level's nodes *it owns* in its
       :class:`~repro.serving.cache.EmbeddingCache` (no cache: every probe
       misses).  A hit is a leaf; over its misses it builds one
       :func:`~repro.graph.mfg.block_from_in_edges` block — complete
       in-neighbourhoods in ``(dst, src)`` order, so every reduction runs
       exactly as on a single machine.
    2. **Allgather the misses' sources.**  The block's ``src_nodes`` are the
       worker's part of one allgather (:data:`~repro.distributed.comm.
       SERVE_FRONTIER_TAG`); the union is the next level on every worker,
       and an empty union — nothing missed anywhere — ends the walk on every
       worker at once.  Every branch depends on allgathered data only.
    3. **Owners publish, peers fetch.**  Forward, a worker splices each
       level's owned matrix from its hit rows and the rows it computed,
       caches the computed ones (a row is cached once, by its owner),
       publishes the matrix under ``f"{key}/l{level}"`` and fetches the
       remote source rows its next block reads
       (:data:`~repro.distributed.comm.SERVE_HALO_TAG`).  Layer-0 rows are
       gathered through ``store``.

    Parameters
    ----------
    dist_graph:
        This worker's :class:`~repro.core.dist_graph.DistributedGraph`.
    model:
        The (replica-shared or per-worker) model; ``num_layers`` +
        ``forward_layer``; must already be in ``eval()`` mode under serving.
    store:
        A :class:`~repro.store.FeatureStore` covering all **global** rows
        (or a dense ``(num_total_nodes, dim)`` matrix).
    seed_nodes:
        Global seed ids; deduplicated ascending internally.
    cache:
        Optional per-worker :class:`~repro.serving.cache.EmbeddingCache`.
    key:
        Publish-key namespace (distinct concurrent callers need distinct
        keys).

    Returns
    -------
    (owned_seeds, rows, input_layer):
        The ascending seed ids this worker owns, their logit rows (``None``
        when it owns none), and the level the walk ended at — the same on
        every worker (``num_layers`` = every seed cached, ``0`` = some row
        was computed from the features).
    """
    if not isinstance(dist_graph, DistributedGraph):
        raise ValueError("distributed restricted inference needs a DistributedGraph handle")
    comm = dist_graph.comm
    book = dist_graph.shard.book
    rank = comm.rank
    assignment = book.assignment
    num_layers = check_layered_model(model)
    if getattr(model, "training", False):
        # Train-mode layers (dropout) would break both bit-parity with the
        # local server and the replicated collective schedule — refuse
        # loudly instead of serving garbage.
        raise ValueError(
            "distributed_restricted_logits requires the model in eval() "
            "mode (train-mode dropout breaks bit-parity across workers)"
        )
    store = as_feature_store(store)
    num_total = dist_graph.num_total_nodes
    if store.num_rows != num_total:
        raise ValueError(
            f"store must cover all {num_total} global rows, "
            f"got {store.num_rows}"
        )
    seeds = np.unique(
        check_1d_int_array(seed_nodes, "seed_nodes", max_value=num_total)
    )
    if seeds.size == 0:
        raise ValueError("seed_nodes must be non-empty")

    def owned_by(q: int, level: np.ndarray) -> np.ndarray:
        return level[assignment[level] == q]

    # Every request runs at least one allgather before its first fetch, so the
    # previous request's publishes are cleared on every worker by then.
    dist_graph.begin_step()
    index = dist_graph.shard.in_edge_index()

    # Backward, from the seeds (level ``num_layers``) down: one probe, one
    # block over the owned misses and one allgather per level, until no worker
    # misses a row or the raw features are reached.
    nodes, start = seeds, num_layers
    rows = None  # this worker's rows of the level the walk ends at (level 0 is read from the store)
    # (block, found, hit_rows, sources, where the block's sources sit in them)
    # of levels num_layers .. start + 1
    pending = []
    while start > 0:
        own = owned_by(rank, nodes)
        found, hit_rows = probe_rows(cache, start, own)
        block = None
        if not found.all():
            block = block_from_in_edges(index, book.to_local(own[~found])[1], own[~found])
        mine = nodes[:0] if block is None else block.src_nodes
        sources, ranks = unique_ranks(comm.allgather(mine, tag=SERVE_FRONTIER_TAG))
        if not sources.size:
            rows = hit_rows
            break
        # Where the block's sources sit in the level, read before the next
        # block build reuses this thread's rank table.
        pending.append((block, found, hit_rows, sources, ranks[mine]))
        nodes, start = sources, start - 1

    # Forward: conv layer ``l`` reads level ``l`` (``level``; ``rows`` are the
    # ones this worker owns) and computes this worker's misses of level
    # ``l + 1``.  A worker owning rows of a level publishes them — only then
    # can a peer's block name one of them as a source.
    with no_grad():
        for layer, (block, found, hit_rows, level, where) in zip(range(start, num_layers),
                                                                pending[::-1]):
            if layer and rows is not None:
                comm.publish(f"{key}/l{layer}", rows)
            computed = None
            if block is not None:
                if layer == 0:
                    x = store.gather(block.src_nodes)
                else:
                    x = None
                    level_owner = assignment[level]
                    owner = level_owner[where]
                    for q in np.flatnonzero(np.bincount(owner)):
                        sel = np.flatnonzero(owner == q)
                        # A source's row among the level's rows that ``q`` owns.
                        at = np.cumsum(level_owner == q)[where[sel]] - 1
                        if q == rank:
                            part = rows[at]
                        else:
                            part = comm.fetch(q, f"{key}/l{layer}", rows=at, tag=SERVE_HALO_TAG)
                        if x is None:
                            x = np.empty((block.num_src_nodes, part.shape[1]), dtype=part.dtype)
                        x[sel] = part
                computed = model.forward_layer(layer, block, Tensor(x)).data
                if cache is not None:
                    cache.put(layer + 1, block.dst_nodes, computed)
            rows = splice_rows(found, hit_rows, computed)
    return owned_by(rank, seeds), rows, start
