"""The unified sequential-aggregation engine (paper §3.2–§3.4).

The paper's contribution is a *single* algorithmic pattern: iterate over the
per-partition edge blocks ``G_{p,q}``, fetch each remote block's source rows,
fold the block into an accumulator, and discard the block immediately (SAR) or
keep it alive for the backward pass (vanilla domain-parallel).  The backward
pass replays the same loop, rematerializing per-block intermediates and — for
"case 2" aggregators whose gradients need the neighbour values — re-fetching
the remote features, then ships the accumulated errors back to their owners
with one all-to-all exchange.

:class:`SequentialAggregationEngine` owns that loop once, for every
aggregator:

* the block schedule (:func:`block_order` — local block first, then remote
  partitions round-robin starting at ``rank + 1``),
* publish/fetch key management and the halo-retention policy (SAR keeps one
  remote block resident, vanilla DP keeps them all),
* the halo **prefetch**: with ``SARConfig(prefetch=True)`` the next block's
  fetch runs on a background :class:`~repro.utils.prefetch.Prefetcher`
  thread while the current block computes, bounding resident remote blocks
  at two (the paper's 3/N memory point) while overlapping communication
  with compute,
* the backward re-fetch for nonlinear ("case 2") kernels, and
* the per-pass all-to-all error exchange and scatter-add.

What *differs* between aggregators is captured by :class:`BlockKernel`: the
published payload, the per-block forward/backward math, the gradient class
(``"linear"`` needs no backward re-fetch, ``"nonlinear"`` does), and optional
per-block state such as GAT's running stable-softmax accumulators.  The
concrete kernels live next to their models:

* :class:`repro.core.sage_dist.MeanKernel` — case 1 (linear),
* :class:`repro.core.sage_dist.PoolingKernel` — max pooling, case 2,
* :class:`repro.core.gat_dist.GATKernel` — attention, case 2,
* :class:`repro.core.rgcn_dist.RGCNKernel` — relational, case 2, one engine
  pass per relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SARConfig
from repro.core.halo import HaloExchange
from repro.distributed.comm import Communicator
from repro.partition.shard import EdgeBlock
from repro.tensor.memory import active_tracker, track_memory
from repro.tensor.tensor import Function, Tensor, grad_enabled
from repro.utils.prefetch import Prefetcher


def block_order(rank: int, world_size: int) -> List[int]:
    """Process the local block first, then remote partitions round-robin.

    Starting each worker's remote sweep at ``rank + 1`` spreads simultaneous
    fetches across different owners instead of hammering partition 0 first —
    the same scheduling the SAR library uses.
    """
    return [rank] + [(rank + offset) % world_size for offset in range(1, world_size)]


#: what a kernel publishes: one array, or a tuple of arrays with equal row
#: counts, each published and fetched on its own (no packed copy); block
#: features reach the kernel in the same structure.
Payload = Union[np.ndarray, Tuple[np.ndarray, ...]]


def _parts(payload) -> tuple:
    """The arrays (or fetched tensors) of a payload, as a tuple."""
    return payload if isinstance(payload, tuple) else (payload,)


def _like(payload, parts: Sequence):
    """``parts`` in ``payload``'s structure: a tuple, or the one item."""
    return tuple(parts) if isinstance(payload, tuple) else parts[0]


def _data(fetched):
    """The arrays of fetched tensors, in their structure."""
    return _like(fetched, [t.data for t in _parts(fetched)])


def _part_key(key: str, index: int) -> str:
    return f"{key}/h{index or ''}"


def _local_rows(payload: Payload, block: EdgeBlock) -> Payload:
    """The local block's payload rows — the payload itself, not a copy, when
    the block needs every row: ``required_src_local`` is strictly increasing,
    so as many rows as the payload has means ``arange(len(payload))``.
    Kernels only read what they are handed."""
    rows = block.required_src_local
    parts = _parts(payload)
    if len(rows) == len(parts[0]):
        return payload
    return _like(payload, [part[rows] for part in parts])


@dataclass
class KernelPass:
    """One sweep over a grid of edge blocks with its own error exchange.

    Homogeneous aggregators have a single pass; R-GCN has one pass per
    relation (each relation has its own block grid and halo routing).
    ``name`` namespaces the error-exchange key; ``index`` identifies the pass
    to the kernel (e.g. the relation index).
    """

    name: str
    blocks: Sequence[EdgeBlock]
    halo: HaloExchange
    index: int = 0


class BlockKernel:
    """Per-aggregator math plugged into :class:`SequentialAggregationEngine`.

    A kernel instance is created per aggregation call and owns references to
    the call's input arrays.  The engine drives it through the hooks below;
    ``grad_class`` declares whether the backward pass needs the neighbour
    feature values (``"nonlinear"`` → SAR re-fetches remote blocks,
    ``"linear"`` → errors are computed from the gradient alone).
    """

    grad_class: str = "linear"

    def __init__(self) -> None:
        #: fetched remote blocks, one tensor per payload part
        self._saved_halos: Dict[Tuple[int, int], Union[Tensor, Tuple[Tensor, ...]]] = {}
        #: set by the engine before the forward sweep: the kernel's own arrays
        #: the publish copied; the backward reads the local rows from them.
        self._payload: Optional[Payload] = None

    # -- interface implemented by concrete kernels ----------------------- #
    def payload(self) -> Payload:
        """What peers fetch (forward halo and case-2 re-fetch): one array,
        or a tuple of arrays with one row per local node, each published as
        it is."""
        raise NotImplementedError

    def passes(self) -> Sequence[KernelPass]:
        """The block sweeps this kernel performs (one per relation for R-GCN)."""
        raise NotImplementedError

    def forward_init(self) -> None:
        """Allocate forward accumulators."""

    def begin_pass(self, p: KernelPass, backward: bool) -> None:
        """Hook called before a pass's blocks are visited."""

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: Payload) -> None:
        """Fold one block into the forward accumulator.

        ``feats`` holds the payload rows for ``block.required_src_local``
        (local slice or fetched remote copy), structured like the payload.
        """
        raise NotImplementedError

    def end_pass(self, p: KernelPass, backward: bool) -> None:
        """Hook called after a pass's blocks (before the error exchange)."""

    def forward_finalize(self) -> np.ndarray:
        """Return the aggregation output; keep only what backward needs."""
        raise NotImplementedError

    def backward_init(self, grad_out: np.ndarray) -> None:
        """Allocate gradient accumulators (including :meth:`error_target`)."""
        raise NotImplementedError

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Optional[Payload]) -> np.ndarray:
        """Return the error rows for ``block.required_src_local``.

        ``feats`` is ``None`` for linear kernels; nonlinear kernels receive
        the rematerialized payload rows (local slice, saved DP halo, or SAR
        re-fetch).  The engine scatter-adds the result into
        :meth:`error_target` for the local block and ships it to the owner
        otherwise.
        """
        raise NotImplementedError

    def error_target(self, p: KernelPass) -> np.ndarray:
        """The local array that incoming error rows accumulate into."""
        raise NotImplementedError

    def backward_finalize(self) -> Tuple[np.ndarray, ...]:
        """Return one gradient per input tensor, in input order."""
        raise NotImplementedError

    def held_arrays(self) -> Tuple[np.ndarray, ...]:
        """The arrays the kernel keeps from its forward for its backward —
        its inputs' data, the output, softmax state — which are all its
        array attributes once the forward has finished."""
        return tuple(v for v in vars(self).values() if isinstance(v, np.ndarray))

    # -- halo bookkeeping (vanilla DP keeps fetched blocks alive) --------- #
    def save_halo(self, p: KernelPass, q: int, fetched) -> None:
        self._saved_halos[(p.index, q)] = fetched

    def saved_halo(self, p: KernelPass, q: int) -> Payload:
        return _data(self._saved_halos[(p.index, q)])


class SequentialAggregation(Function):
    """Autograd wrapper: ``forward`` runs the engine's sequential sweep,
    ``backward`` the rematerializing sweep plus the error exchange."""

    def forward(self, kernel: BlockKernel, engine: "SequentialAggregationEngine",
                key: str, *tensors: Tensor) -> np.ndarray:
        out = engine.run_forward(kernel, key)
        # Saved beside the kernel, its arrays count with the memory tracker
        # for as long as the node holds them.
        self.save_for_backward(kernel, engine, key, *kernel.held_arrays())
        return out

    def backward(self, grad_out: np.ndarray):
        kernel, engine, key = self.saved[:3]
        return engine.run_backward(kernel, key, grad_out)


class SequentialAggregationEngine:
    """Owns the SAR / domain-parallel block loop for every aggregator."""

    def __init__(self, comm: Communicator, config: SARConfig):
        self.comm = comm
        self.config = config
        #: high-water mark of simultaneously resident remote halo blocks
        #: (fetched tensors plus at most one in-flight prefetch) across every
        #: aggregation this engine has run.  SAR keeps this at 1 (2 with
        #: prefetching); vanilla DP grows it to the number of remote blocks.
        self.max_resident_remote_blocks = 0

    # ------------------------------------------------------------------ #
    def aggregate(self, kernel: BlockKernel, key: str, *tensors: Tensor) -> Tensor:
        """Run ``kernel`` through the engine as a differentiable op.

        ``tensors`` are the kernel's differentiable inputs; their order
        defines the order of the gradients ``kernel.backward_finalize``
        returns.
        """
        return SequentialAggregation.apply(kernel, self, key, *tensors)

    # ------------------------------------------------------------------ #
    def run_forward(self, kernel: BlockKernel, key: str) -> np.ndarray:
        payload = kernel.payload()
        kernel._payload = payload
        for index, part in enumerate(_parts(payload)):
            self.comm.publish(_part_key(key, index), part)
        # Vanilla DP keeps every halo for its backward; a no-grad forward
        # (evaluation) has no backward, so it holds one block at a time like SAR.
        save_halos = self.config.is_domain_parallel and grad_enabled()
        kernel.forward_init()
        for p in kernel.passes():
            kernel.begin_pass(p, backward=False)
            for q, blk, feats, fetched in self._iter_fetch(p, key, payload, tag="forward_halo",
                                                          keep_all=save_halos):
                if fetched is not None and save_halos:
                    kernel.save_halo(p, q, fetched)
                kernel.forward_block(p, q, blk, feats)
            kernel.end_pass(p, backward=False)
        return kernel.forward_finalize()

    def run_backward(self, kernel: BlockKernel, key: str,
                     grad_out: np.ndarray) -> Tuple[np.ndarray, ...]:
        kernel.backward_init(grad_out)
        rank = self.comm.rank
        refetch = kernel.grad_class == "nonlinear" and self.config.is_sar
        for p in kernel.passes():
            kernel.begin_pass(p, backward=True)
            if refetch:
                # Case 2: re-fetch remote payload rows (the paper's ~50 %
                # communication overhead for attention/relational models).
                blocks = self._iter_fetch(p, key, kernel._payload,
                                          tag="backward_refetch")
            else:
                blocks = self._iter_resident(p, kernel)
            outgoing: Dict[int, np.ndarray] = {}
            for q, blk, feats, _ in blocks:
                error = kernel.backward_block(p, q, blk, feats)
                if q == rank:
                    # required_src_local is strictly increasing (EdgeBlock
                    # checks it), so the rows are unique.
                    kernel.error_target(p)[blk.required_src_local] += error
                else:
                    outgoing[q] = np.asarray(error, dtype=np.float32)
                # A scattered local error is dead; holding the name would keep
                # it alive through the next block's compute.
                del error
            kernel.end_pass(p, backward=True)
            err_key = f"{key}/{p.name}/err" if p.name else f"{key}/err"
            received = self.comm.exchange(err_key, outgoing, tag="backward_error")
            p.halo.scatter_add_errors(kernel.error_target(p), received)
        return kernel.backward_finalize()

    # ------------------------------------------------------------------ #
    def _iter_fetch(self, p: KernelPass, key: str, payload: Payload, tag: str,
                    keep_all: bool = False) -> Iterator[tuple]:
        """Yield ``(q, block, feats, fetched)`` with fetching, retention, and
        (optionally) the halo prefetch applied.

        ``fetched`` is the remote block wrapped in tracked tensors, one per
        payload part and structured like the payload (``None`` for the local
        block).  The block is dropped as soon as its compute finishes unless
        ``keep_all`` (a vanilla DP forward that records a backward), where
        the caller keeps it via ``kernel.save_halo``.
        """
        comm, config = self.comm, self.config
        rank = comm.rank
        order = [q for q in block_order(rank, comm.world_size)
                 if p.blocks[q].num_edges > 0]
        num_parts = len(_parts(payload))

        def fetch(q: int):
            if q == rank:
                return None
            rows = p.blocks[q].required_src_local
            return _like(payload, [Tensor(comm.fetch(q, _part_key(key, index), rows=rows,
                                                     tag=tag))
                                   for index in range(num_parts)])

        fetched_blocks = map(fetch, order)
        if config.prefetch:
            tracker = active_tracker()

            def fetch_ahead(q: int):
                # Wrapped on the fetcher thread under the consumer's tracker,
                # so the in-flight block counts towards the worker's peak like
                # a resident one — the 3/N-instead-of-2/N accounting of §3.4.
                with track_memory(tracker):
                    return fetch(q)

            # The local block is an item too: its (empty) job lets the first
            # remote fetch overlap the local block's compute.
            fetched_blocks = Prefetcher(max_resident=2, name="halo").run(fetch_ahead, order)

        resident: List = []
        for position, fetched in enumerate(fetched_blocks):
            q = order[position]
            blk = p.blocks[q]
            if fetched is None:
                yield q, blk, _local_rows(payload, blk), None
                continue
            resident.append(fetched)
            in_flight = int(config.prefetch and position + 1 < len(order))
            self.max_resident_remote_blocks = max(
                self.max_resident_remote_blocks, len(resident) + in_flight
            )
            yield q, blk, _data(fetched), fetched
            if not keep_all:
                # Sequential rematerialization: the block has been folded into
                # the accumulator; nothing edge- or halo-sized survives.
                resident.clear()

    def _iter_resident(self, p: KernelPass,
                       kernel: BlockKernel) -> Iterator[tuple]:
        """Backward sweep without re-fetch: linear kernels need no feature
        values; nonlinear kernels under vanilla DP read the halos saved during
        the forward pass."""
        rank = self.comm.rank
        nonlinear = kernel.grad_class == "nonlinear"
        for q in block_order(rank, self.comm.world_size):
            blk = p.blocks[q]
            if blk.num_edges == 0:
                continue
            feats: Optional[np.ndarray] = None
            if nonlinear:
                if q == rank:
                    feats = _local_rows(kernel._payload, blk)
                else:
                    feats = kernel.saved_halo(p, q)
            yield q, blk, feats, None
