"""Edge plans: sort-once / reduce-many message-passing kernels.

Every message-passing op in this library reduces per-edge (or per-source)
values into per-destination buckets, or scatters per-destination gradients
back to sources.  The sparsity pattern of those reductions — which edges feed
which node — is fixed for the lifetime of an edge set, yet the naive kernels
re-derive it on every call: ``scipy.csr_matrix((data, (dst, src)))`` pays a
COO→CSR sort per call (and per attention head), and ``np.ufunc.at`` falls
back to a slow scalar loop.

An :class:`EdgePlan` is built **once** per ``(src, dst, num_dst, num_src)``
edge set and caches, per orientation (destination-major and source-major):

* the destination-sorted edge order and the segment ``indptr`` (the CSR
  sparsity structure),
* the unweighted aggregation matrix (``out[d] = Σ_{e:(s→d)} x[s]``),
* a selection matrix summing sorted per-*edge* values into segments,
* per head count ``H``, a *head-blocked* CSR (row ``d·H + h``, column
  ``s·H + h``) plus the map that fills its data from ``(E, H)`` edge
  weights, so edge-weighted aggregation (the attention hot path) runs every
  head in one SpMM with one ``take`` and no sort, and
* the ``reduceat`` bookkeeping (non-empty segment starts) for max/min.

The per-op kernel strategy is chosen from measurements, not aesthetics
(E=200k, N=5k, H=8, D=32, float32, one core):

============================  ===================  =====================  ========
op                            naive                plan                   speedup
============================  ===================  =====================  ========
``u_mul_e_sum_sorted``        fresh CSR per head   head-blocked SpMM      ~4.5×
``segment_sum_sorted (E,H)``  fresh CSR            cached selection CSR   ~3×
``segment_max_sorted (E,H)``  ``np.maximum.at``    ``maximum.reduceat``   ~3.5×
``aggregate_sum``             fresh CSR            cached CSR matvec      »
============================  ===================  =====================  ========

(The two segment rows were measured on input-order arrays, each with a
gather through the sort order; the sorted-space kernels skip that gather.)

(``np.add.reduceat`` over a wide ``(E, H·D)`` message block was also
measured and is ~7× *slower* than a CSR matvec — reduceat does not vectorize
across the row — which is why weighted aggregation uses a CSR SpMM
rather than a literal gather→multiply→reduceat pipeline.)

The module-level :data:`build_counter` increments once per constructed plan;
tests assert it stays flat across training iterations after
warm-up, proving the hot path performs no per-call sparsity construction.
Every plan provider (``Graph.plan()``, ``MFGBlock.plan()``,
``EdgeBlock.plan()``, the ``relation_plan()``s) always hands out a plan; the
naive per-call kernels the plans replace survive only as the tests'
reference (``tests/reference_kernels.py``).

Per-edge arrays have one layout: the plan's destination-sorted edge order.
The per-edge methods (``*_sorted``, ``expand_dst``, ``gather_src``,
``sddmm``) take and return arrays in it, so a chain of per-edge steps never
permutes between them; ``sort_edges`` is the one way in from input edge
order, and nothing in the library needs the way back.  The attention
kernels (:func:`repro.tensor.sparse.gat_backward_sorted` and its callers),
pooling's backward and the weighted multi-head SpMM
(``u_mul_e_sum_sorted`` and its transpose) are built on it.  See the section
comment in :class:`EdgePlan`.

Kernel calls share no per-call buffer: the weighted SpMM fills a fresh data
array over the cached head-blocked structure on every call.  The lazy caches
are filled without a lock, so two threads racing on a fresh plan may build
the same cache twice; each worker owns its own blocks and plans, so even
that does not happen in practice.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.utils.lru import LRUDict

#: number of EdgePlan constructions since import (or the last
#: :func:`reset_build_counter`).  A training loop must keep this flat after
#: its first iteration.
build_counter: int = 0

_counter_lock = threading.Lock()

#: bytes of the two gathered ``(edges, H, D)`` operands of one
#: :meth:`EdgePlan.sddmm` chunk — what has to stay in a core's L2 between the
#: gather and the reduction.  Not a knob: docs/architecture.md records how it
#: was measured.
SDDMM_BLOCK_BYTES = 512 << 10


def reset_build_counter() -> None:
    global build_counter
    build_counter = 0


class _Orientation:
    """Cached CSR layout of one direction of an edge set.

    ``rows``/``cols`` are the per-edge row and column ids of the aggregation
    matrix for this orientation (destination-major: rows = dst, cols = src;
    source-major: the transpose).  Everything derived from the one-time
    lexsort is cached here; the lazily-built aggregation matrix never pays a
    sort.
    """

    __slots__ = ("num_rows", "num_cols", "order", "indices", "indptr", "counts",
                 "nonempty", "starts", "all_nonempty", "_agg", "_rows")

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 num_rows: int, num_cols: int):
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        # Sort by (row, col) with ties in input order.  A single stable
        # argsort over the composite key `row * num_cols + col` produces the
        # identical permutation to `np.lexsort((cols, rows))` at about half
        # the cost; the lexsort remains as the (never hit in practice)
        # overflow fallback.
        if self.num_rows * self.num_cols < (1 << 62):
            composite = rows * np.int64(max(self.num_cols, 1)) + cols
            order = np.argsort(composite, kind="stable")
        else:
            order = np.lexsort((cols, rows))
        self.order = order
        self.indices = cols[order]
        indptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.num_rows), out=indptr[1:])
        self.indptr = indptr
        self.counts = np.diff(indptr)
        self.nonempty = self.counts > 0
        self.starts = indptr[:-1][self.nonempty]
        self.all_nonempty = bool(self.nonempty.all()) if self.num_rows else True
        self._agg: Optional[sp.csr_matrix] = None
        self._rows: Optional[np.ndarray] = None

    # -- cached sparse operators ----------------------------------------- #
    def agg_matrix(self) -> sp.csr_matrix:
        """Unweighted ``(num_rows × num_cols)`` sum-aggregation matrix."""
        if self._agg is None:
            self._agg = sp.csr_matrix(
                (np.ones(len(self.indices), dtype=np.float32), self.indices,
                 self.indptr),
                shape=(self.num_rows, self.num_cols),
            )
        return self._agg

    # -- segment reductions over the sorted order ------------------------- #
    def reduce_sorted(self, ufunc, sorted_vals: np.ndarray, fill: float) -> np.ndarray:
        """``ufunc``-reduce already-sorted per-edge rows into segments."""
        out_shape = (self.num_rows,) + sorted_vals.shape[1:]
        if len(sorted_vals) == 0 or not len(self.starts):
            return np.full(out_shape, fill, dtype=sorted_vals.dtype)
        if self.all_nonempty:
            return ufunc.reduceat(sorted_vals, self.indptr[:-1], axis=0)
        out = np.full(out_shape, fill, dtype=sorted_vals.dtype)
        out[self.nonempty] = ufunc.reduceat(sorted_vals, self.starts, axis=0)
        return out

    def rows(self) -> np.ndarray:
        """Row id of every sorted edge (``repeat(arange(num_rows), counts)``)."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.num_rows), self.counts)
        return self._rows

    def matvec(self, mat: sp.spmatrix, values: np.ndarray) -> np.ndarray:
        """``mat @ values`` with arbitrary trailing dimensions."""
        if values.ndim == 2:
            flat = values
        else:
            trailing = int(np.prod(values.shape[1:], dtype=np.int64))
            flat = values.reshape(len(values), trailing)
        out = mat @ flat
        return np.asarray(out).reshape((mat.shape[0],) + values.shape[1:])


class EdgePlan:
    """One-time sparsity analysis of an edge set, reused by every kernel.

    Parameters
    ----------
    src, dst:
        ``(num_edges,)`` integer endpoint arrays (messages flow
        ``src → dst``); the input order is the *reduction* order.
    num_dst:
        Number of destination rows (aggregation output height).
    num_src:
        Number of source rows (feature matrix height).

    Notes
    -----
    A plan is a pure function of its ``(src, dst, num_dst, num_src)``
    arguments — it draws no randomness and keeps no mutable state visible to
    callers — so kernel outputs through a plan are deterministic: per
    destination, reductions run over edges in the stable destination-sorted
    order derived from the input edge order.  Two plans built from identical
    arguments are interchangeable, which is what makes the structural
    :class:`PlanCache` safe.
    """

    def __init__(self, src, dst, num_dst: int, num_src: int):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or len(src) != len(dst):
            raise ValueError(
                f"src and dst must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
            )
        self.src = src
        self.dst = dst
        self.num_edges = len(src)
        self.num_dst = int(num_dst)
        self.num_src = int(num_src)
        self._forward: Optional[_Orientation] = None
        self._transpose: Optional[_Orientation] = None
        self._t_positions: Optional[np.ndarray] = None
        self._sorted_sel: dict = {}  # transpose flag -> selection CSR over sorted rows
        self._blocked: dict = {}  # (transpose flag, heads) -> head-blocked CSR
        global build_counter
        with _counter_lock:  # workers build block plans concurrently
            build_counter += 1

    def __repr__(self) -> str:
        return (
            f"EdgePlan(num_edges={self.num_edges}, num_dst={self.num_dst}, "
            f"num_src={self.num_src})"
        )

    # -- orientations ----------------------------------------------------- #
    def _o(self, transpose: bool = False) -> _Orientation:
        if transpose:
            if self._transpose is None:
                self._transpose = _Orientation(self.src, self.dst,
                                               self.num_src, self.num_dst)
            return self._transpose
        if self._forward is None:
            self._forward = _Orientation(self.dst, self.src,
                                         self.num_dst, self.num_src)
        return self._forward

    def _check_edge_rows(self, values: np.ndarray, what: str) -> np.ndarray:
        values = np.asarray(values)
        if len(values) != self.num_edges:
            raise ValueError(
                f"{what} must have {self.num_edges} rows (one per edge), "
                f"got {values.shape}"
            )
        return values

    @property
    def in_degrees(self) -> np.ndarray:
        """Number of in-edges per destination node."""
        return self._o(False).counts

    def clamped_in_degrees(self, dtype) -> np.ndarray:
        """In-degrees clamped to ≥ 1 (the mean-aggregation denominator)."""
        return np.maximum(self._o(False).counts, 1).astype(dtype)

    # -- per-source features → per-destination aggregates ------------------ #
    def aggregate_sum(self, x: np.ndarray) -> np.ndarray:
        """``out[d] = Σ_{e:(s→d)} x[s]`` (sum over in-neighbours)."""
        o = self._o(False)
        return o.matvec(o.agg_matrix(), x)

    def aggregate_mean(self, x: np.ndarray) -> np.ndarray:
        """In-neighbour mean (in-degree clamped to ≥ 1)."""
        out = self.aggregate_sum(x)
        counts = self.clamped_in_degrees(out.dtype)
        return out / counts.reshape((self.num_dst,) + (1,) * (out.ndim - 1))

    def aggregate_sum_t(self, grad: np.ndarray) -> np.ndarray:
        """``out[s] = Σ_{e:(s→d)} grad[d]`` (the backward of :meth:`aggregate_sum`)."""
        o = self._o(True)
        return o.matvec(o.agg_matrix(), grad)

    def aggregate_max(self, x: np.ndarray, initial: float = -np.inf) -> np.ndarray:
        """Element-wise max over in-neighbours (empty → ``initial``)."""
        o = self._o(False)
        return o.reduce_sorted(np.maximum, x[o.indices], initial)

    def aggregate_min(self, x: np.ndarray, initial: float = np.inf) -> np.ndarray:
        """Element-wise min over in-neighbours (empty → ``initial``)."""
        o = self._o(False)
        return o.reduce_sorted(np.minimum, x[o.indices], initial)

    # -- destination-sorted edge space -------------------------------------- #
    # Every per-edge array lives in the plan's destination-sorted order: rows
    # of one destination are contiguous, per-destination values expand with a
    # sequential ``np.repeat``, per-source values arrive with one ``take``,
    # the head-blocked weighted CSR is filled by one ``take``, and a kernel
    # that chains several per-edge steps (the attention block: logits → max →
    # exp → sum → SpMM, and the SDDMM → softmax-grad → two segment sums of its
    # backward) never permutes between them.  Per destination (and per source,
    # through :meth:`_transpose_positions`) reductions run in the stable
    # sorted order derived from the input edge order.
    def sort_edges(self, values: np.ndarray) -> np.ndarray:
        """Per-edge rows, input order → destination-sorted order (the one
        entry into the space)."""
        values = self._check_edge_rows(values, "values")
        return values.take(self._o(False).order, axis=0)

    def expand_dst(self, x: np.ndarray) -> np.ndarray:
        """Sorted per-edge copy of each edge's destination row of ``x``."""
        return np.repeat(x, self._o(False).counts, axis=0)

    def gather_src(self, x: np.ndarray) -> np.ndarray:
        """Sorted per-edge copy of each edge's source row of ``x``."""
        return x.take(self._o(False).indices, axis=0)

    def _sum_sorted(self, sorted_values: np.ndarray, transpose: bool) -> np.ndarray:
        """Sum sorted per-edge rows into one orientation's segments through a
        cached ``(rows × E)`` selection CSR whose columns are sorted-space
        positions: the identity destination-major, :meth:`_transpose_positions`
        source-major."""
        sorted_values = self._check_edge_rows(sorted_values, "sorted_values")
        o = self._o(transpose)
        sel = self._sorted_sel.get(transpose)
        if sel is None:
            columns = (self._transpose_positions() if transpose
                       else np.arange(self.num_edges))
            sel = self._sorted_sel[transpose] = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=np.float32), columns, o.indptr),
                shape=(o.num_rows, self.num_edges),
            )
        return o.matvec(sel, sorted_values)

    def segment_sum_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Sum sorted per-edge rows into destination buckets."""
        return self._sum_sorted(sorted_values, transpose=False)

    def segment_max_sorted(self, sorted_values: np.ndarray,
                           initial: float = -np.inf) -> np.ndarray:
        """Max-reduce sorted per-edge rows per destination (empty segments →
        ``initial``)."""
        sorted_values = self._check_edge_rows(sorted_values, "sorted_values")
        return self._o(False).reduce_sorted(np.maximum, sorted_values, initial)

    def _transpose_positions(self) -> np.ndarray:
        """Sorted-space position of each edge of the source-major layout,
        ``inv(order)[t.order]`` — one precomposed permutation, so transpose
        kernels read sorted rows directly."""
        if self._t_positions is None:
            inverse = np.empty(self.num_edges, dtype=np.int64)
            inverse[self._o(False).order] = np.arange(self.num_edges)
            self._t_positions = inverse[self._o(True).order]
        return self._t_positions

    def segment_sum_src_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Sum sorted per-edge rows into *source* buckets (the transpose
        reduction)."""
        return self._sum_sorted(sorted_values, transpose=True)

    def _head_blocked(self, transpose: bool, heads: int) -> tuple:
        """``(indices, indptr, gather, shape)`` of one orientation's
        head-blocked CSR for ``heads`` heads, built once.

        Row ``r·H + h`` holds column ``c·H + h`` for every edge of segment
        ``r``, in the plan's stable sorted order, so the matrix multiplies
        ``x.reshape(num_cols·H, D)`` with every head at once.  ``gather``
        maps each stored entry to its weight in the flattened sorted
        ``(E, H)`` weights (through :meth:`_transpose_positions`
        source-major).  Per row the entries are one segment in plan order,
        so the products equal a per-head matvec over the same segment bit
        for bit.
        """
        key = (transpose, heads)
        blocked = self._blocked.get(key)
        if blocked is None:
            o = self._o(transpose)
            positions = (self._transpose_positions() if transpose
                         else np.arange(self.num_edges))
            head = np.arange(heads)
            rows = o.rows()
            first = o.indptr[:-1]
            # Data slot of (sorted edge p, head h): row (r_p, h) starts at
            # indptr[r]·H + h·count[r]; p is entry p − indptr[r] of it.
            slots = ((first[rows] * (heads - 1) + np.arange(self.num_edges))[:, None]
                     + o.counts[rows][:, None] * head).ravel()
            gather = np.empty(self.num_edges * heads, dtype=np.int64)
            gather[slots] = (positions[:, None] * heads + head).ravel()
            indices = np.empty(self.num_edges * heads, dtype=np.int64)
            indices[slots] = (o.indices[:, None] * heads + head).ravel()
            indptr = np.append((first[:, None] * heads + o.counts[:, None] * head).ravel(),
                               self.num_edges * heads)
            shape = (o.num_rows * heads, o.num_cols * heads)
            # Let scipy pick the index dtype once, not on every call.
            structure = sp.csr_matrix((np.empty(len(indices), dtype=np.float32),
                                       indices, indptr), shape=shape)
            blocked = self._blocked[key] = (structure.indices, structure.indptr,
                                            gather, shape)
        return blocked

    def _weighted_spmm(self, values: np.ndarray, sorted_weights: np.ndarray,
                       transpose: bool) -> np.ndarray:
        """``out[r, h] = Σ_e w[e, h] · values[c_e, h]`` over one orientation:
        one ``take`` fills the head-blocked CSR with the weights in their own
        dtype, one SpMM reduces all heads; the result has ``values``' dtype."""
        sorted_weights = self._check_edge_rows(sorted_weights, "sorted_weights")
        num_cols, heads, dim = values.shape
        indices, indptr, gather, shape = self._head_blocked(transpose, heads)
        data = sorted_weights.reshape(-1).take(gather)
        out = sp.csr_matrix((data, indices, indptr), shape=shape) \
            @ values.reshape(num_cols * heads, dim)
        out = out.astype(values.dtype, copy=False)
        return out.reshape(self.num_src if transpose else self.num_dst, heads, dim)

    def u_mul_e_sum_sorted(self, x: np.ndarray, sorted_weights: np.ndarray) -> np.ndarray:
        """``out[d, h] = Σ_{e:(s→d)} w[e, h] · x[s, h]`` with ``x`` of shape
        ``(num_src, H, D)`` and the ``(E, H)`` weights in sorted order."""
        return self._weighted_spmm(x, sorted_weights, transpose=False)

    def u_mul_e_sum_t_sorted(self, grad: np.ndarray, sorted_weights: np.ndarray) -> np.ndarray:
        """``out[s, h] = Σ_{e:(s→d)} w[e, h] · grad[d, h]``, the transpose of
        :meth:`u_mul_e_sum_sorted` (its backward)."""
        return self._weighted_spmm(grad, sorted_weights, transpose=True)

    def sddmm(self, x_src: np.ndarray, y_dst: np.ndarray) -> np.ndarray:
        """Sorted per-edge dot products ``out[e, h] = <x_src[s_e, h], y_dst[d_e, h]>``.

        The sampled dense-dense product of the attention backward
        (``∂L/∂α``).  Unblocked, its two gathered ``(E, H, D)`` operands make
        a round trip through DRAM before the reduction reads them back; here
        they are gathered, multiplied and reduced one chunk of sorted edges —
        :data:`SDDMM_BLOCK_BYTES` of operands — at a time, so they stay in
        cache.  Each edge's dot product is the same ``einsum`` reduction as
        the unblocked call, so the result does not depend on the chunking.
        """
        o = self._o(False)
        heads, dim = x_src.shape[1], x_src.shape[2]
        dtype = np.result_type(x_src, y_dst)
        out = np.empty((self.num_edges, heads), dtype=dtype)
        step = max(1, SDDMM_BLOCK_BYTES // (2 * heads * dim * dtype.itemsize))
        # ``take`` copies a non-contiguous source whole on every call.
        x_src, y_dst = np.ascontiguousarray(x_src), np.ascontiguousarray(y_dst)
        # One pair of chunk buffers per call, not one per chunk: a fresh
        # multi-megabyte temporary is mmap'd and page-faulted every time.
        x_buf = np.empty((min(step, self.num_edges), heads, dim), dtype=x_src.dtype)
        y_buf = np.empty((min(step, self.num_edges), heads, dim), dtype=y_dst.dtype)
        dst = o.rows()
        for start in range(0, self.num_edges, step):
            stop = min(start + step, self.num_edges)
            x_e, y_e = x_buf[:stop - start], y_buf[:stop - start]
            # mode="clip": with the default "raise", ``out`` is buffered.
            np.take(x_src, o.indices[start:stop], axis=0, out=x_e, mode="clip")
            np.take(y_dst, dst[start:stop], axis=0, out=y_e, mode="clip")
            np.einsum("ehd,ehd->eh", x_e, y_e, out=out[start:stop])
        return out


# --------------------------------------------------------------------------- #
# structural plan cache (plan reuse across mini-batches)
# --------------------------------------------------------------------------- #
class PlanCache:
    """LRU cache of :class:`EdgePlan` objects keyed by edge-set *structure*.

    Mini-batch training builds a fresh block chain per batch, and every block
    would pay its own lexsorts even when its edge set is structurally
    identical to one seen before — which happens systematically for
    deterministic samples (``fanout=-1``), repeated batch compositions
    (``shuffle=False``), and evaluation loops.  Hashing the ``(src, dst,
    num_dst, num_src)`` tuple (a linear pass) is far cheaper than the sorts a
    plan performs, so identical structures share one plan.

    Block chains consult it (batches are consumed one at a time), while
    worker-owned shard blocks keep building their plans directly.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._plans = LRUDict(self.capacity)  # structure digest -> EdgePlan

    @staticmethod
    def _digest(src: np.ndarray, dst: np.ndarray, num_dst: int, num_src: int) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.int64(num_dst).tobytes())
        h.update(np.int64(num_src).tobytes())
        h.update(np.ascontiguousarray(src, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
        return h.digest()

    def get(self, src, dst, num_dst: int, num_src: int) -> EdgePlan:
        """Return a cached plan for the edge set, building one on a miss."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        key = self._digest(src, dst, num_dst, num_src)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
        # Build outside the lock (plan construction does the expensive sorts);
        # a racing duplicate build is harmless and the second insert wins.
        plan = EdgePlan(src, dst, num_dst, num_src)
        with self._lock:
            self._plans[key] = plan
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans = LRUDict(self.capacity)
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Hit/miss/eviction counters and occupancy, as a plain dict.

        Surfaced (alongside the embedding-cache counters) in the serving
        telemetry — ``Server.stats()["plan_cache"]`` — so a running
        service can prove its repeated request topologies pay zero plan
        builds.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self._plans.evictions,
                "size": len(self._plans),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: process-wide cache used by the compacted block chains (MFG / sampled).
_shared_cache = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide structural plan cache."""
    return _shared_cache


def cached_plan(src, dst, num_dst: int, num_src: int) -> EdgePlan:
    """Fetch (or build) a plan for the edge set through the shared cache.

    Parameters
    ----------
    src, dst:
        ``(num_edges,)`` integer endpoint arrays in reduction order.
    num_dst, num_src:
        Destination / source row-space heights.

    Returns
    -------
    EdgePlan
        A plan whose kernels behave identically to ``EdgePlan(src, dst,
        num_dst, num_src)`` — structurally identical edge sets (same arrays,
        same heights) share one plan, so re-sampled deterministic batches
        (``fanout=-1``, unshuffled loaders, the layer-wise inference sweep)
        never re-pay the construction sorts.  Lookup hashes the arguments in
        one linear pass.
    """
    return _shared_cache.get(src, dst, num_dst, num_src)
