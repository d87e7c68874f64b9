"""Edge plans: sort-once / reduce-many message-passing kernels.

Every message-passing op in this library reduces per-edge (or per-source)
values into per-destination buckets, or scatters per-destination gradients
back to sources.  The sparsity pattern of those reductions — which edges feed
which node — is fixed for the lifetime of an edge set, yet the naive kernels
re-derive it on every call: ``scipy.csr_matrix((data, (dst, src)))`` pays a
COO→CSR sort per call (and per attention head), and ``np.ufunc.at`` falls
back to a slow scalar loop.

An :class:`EdgePlan` is built **once** per ``(src, dst, num_dst, num_src)``
edge set, sorts its edges **once**, destination-major, and caches:

* the destination-sorted edge order and the segment ``indptr`` (the CSR
  sparsity structure),
* the unweighted aggregation matrix (``out[d] = Σ_{e:(s→d)} x[s]``),
* a selection matrix summing sorted per-*edge* values into segments, and a
  gather matrix picking each sorted edge's source,
* per head count ``H``, a *head-blocked* CSR (row ``d·H + h``, column
  ``s·H + h``) plus the map that fills its data from ``(E, H)`` edge
  weights, so edge-weighted aggregation (the attention hot path) runs every
  head in one SpMM with one ``take`` and no sort, and
* the ``reduceat`` bookkeeping (non-empty segment starts) for the maxima.

Every transpose kernel (``aggregate_sum_t``, ``u_mul_e_sum_t_sorted``,
``segment_sum_src_sorted``) multiplies by the CSC transpose of the
destination-major matrix it mirrors, so no plan builds a source-major
orientation.  Per source a CSC matvec adds in ascending destination order,
ties in sorted (input) order: a source-major CSR's order, and its bits.

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


def _matvec(mat: sp.spmatrix, values: np.ndarray) -> np.ndarray:
    """``mat @ values`` with arbitrary trailing dimensions."""
    if values.ndim == 2:
        flat = values
    else:
        trailing = int(np.prod(values.shape[1:], dtype=np.int64))
        flat = values.reshape(len(values), trailing)
    out = mat @ flat
    return np.asarray(out).reshape((mat.shape[0],) + values.shape[1:])


def _head_spmm(mat: sp.spmatrix, values: np.ndarray, num_rows: int) -> np.ndarray:
    """``mat @ values`` for a head-blocked ``mat`` and ``(N, H, D)`` values:
    every head in one SpMM; the result has ``values``' dtype."""
    num_cols, heads, dim = values.shape
    out = mat @ values.reshape(num_cols * heads, dim)
    return out.astype(values.dtype, copy=False).reshape(num_rows, heads, dim)


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
    order derived from the input edge order, and per source in ascending
    destination order, ties in that same order.  The first kernel call sorts
    the edges (the plan's one sort); every cache derives from that layout.
    Two plans built from identical arguments are interchangeable.
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
        self._order: Optional[np.ndarray] = None  # set with the rest of _layout()
        self._agg: Optional[sp.csr_matrix] = None
        self._dst_rows: Optional[np.ndarray] = None
        self._sorted_sel: Optional[sp.csr_matrix] = None  # (num_dst × E) selection
        self._gather_t: Optional[sp.csc_matrix] = None  # (num_src × E) transposed gather
        self._blocked: dict = {}  # heads -> head-blocked CSR structure
        global build_counter
        with _counter_lock:  # workers build block plans concurrently
            build_counter += 1

    def __repr__(self) -> str:
        return (
            f"EdgePlan(num_edges={self.num_edges}, num_dst={self.num_dst}, "
            f"num_src={self.num_src})"
        )

    # -- the destination-major layout --------------------------------------- #
    def _layout(self) -> None:
        """Sort the edges by ``(dst, src)`` on first use and derive the CSR
        layout every kernel reads: ``_order`` (input → sorted position),
        ``_indices`` (each sorted edge's source), ``_indptr``/``_counts``
        (per-destination segments) and the ``reduceat`` starts."""
        if self._order is not None:
            return
        # Ties stay in input order.  A single stable argsort over the
        # composite key `dst * num_src + src` produces the identical
        # permutation to `np.lexsort((src, dst))` at about half the cost; the
        # lexsort remains as the (never hit in practice) overflow fallback.
        if self.num_dst * self.num_src < (1 << 62):
            composite = self.dst * np.int64(max(self.num_src, 1)) + self.src
            order = np.argsort(composite, kind="stable")
        else:
            order = np.lexsort((self.src, self.dst))
        self._indices = self.src[order]
        indptr = np.zeros(self.num_dst + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.dst, minlength=self.num_dst), out=indptr[1:])
        self._indptr = indptr
        self._counts = np.diff(indptr)
        self._nonempty = self._counts > 0
        self._starts = indptr[:-1][self._nonempty]
        self._all_nonempty = bool(self._nonempty.all()) if self.num_dst else True
        self._order = order  # last: a set order marks a complete layout

    def _agg_matrix(self) -> sp.csr_matrix:
        """Unweighted ``(num_dst × num_src)`` sum-aggregation matrix."""
        if self._agg is None:
            self._layout()
            self._agg = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=np.float32), self._indices, self._indptr),
                shape=(self.num_dst, self.num_src),
            )
        return self._agg

    def _segment_max(self, sorted_vals: np.ndarray) -> np.ndarray:
        """Max-reduce already-sorted per-edge rows into segments (empty → ``-inf``)."""
        self._layout()
        out_shape = (self.num_dst,) + sorted_vals.shape[1:]
        if len(sorted_vals) == 0 or not len(self._starts):
            return np.full(out_shape, -np.inf, dtype=sorted_vals.dtype)
        if self._all_nonempty:
            return np.maximum.reduceat(sorted_vals, self._indptr[:-1], axis=0)
        out = np.full(out_shape, -np.inf, dtype=sorted_vals.dtype)
        out[self._nonempty] = np.maximum.reduceat(sorted_vals, self._starts, axis=0)
        return out

    def _sorted_dst(self) -> np.ndarray:
        """Destination of every sorted edge (``repeat(arange(num_dst), counts)``)."""
        if self._dst_rows is None:
            self._dst_rows = np.repeat(np.arange(self.num_dst), self.in_degrees)
        return self._dst_rows

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
        self._layout()
        return self._counts

    def clamped_in_degrees(self, dtype) -> np.ndarray:
        """In-degrees clamped to ≥ 1 (the mean-aggregation denominator)."""
        return np.maximum(self.in_degrees, 1).astype(dtype)

    # -- per-source features → per-destination aggregates ------------------ #
    def aggregate_sum(self, x: np.ndarray) -> np.ndarray:
        """``out[d] = Σ_{e:(s→d)} x[s]`` (sum over in-neighbours)."""
        return _matvec(self._agg_matrix(), x)

    def aggregate_mean(self, x: np.ndarray) -> np.ndarray:
        """In-neighbour mean (in-degree clamped to ≥ 1)."""
        out = self.aggregate_sum(x)
        counts = self.clamped_in_degrees(out.dtype)
        return out / counts.reshape((self.num_dst,) + (1,) * (out.ndim - 1))

    def aggregate_sum_t(self, grad: np.ndarray) -> np.ndarray:
        """``out[s] = Σ_{e:(s→d)} grad[d]`` (the backward of :meth:`aggregate_sum`),
        through the CSC transpose of the aggregation matrix."""
        return _matvec(self._agg_matrix().T, grad)

    def aggregate_max(self, x: np.ndarray) -> np.ndarray:
        """Element-wise max over in-neighbours (empty → ``-inf``)."""
        return self._segment_max(self.gather_src(x))

    # -- destination-sorted edge space -------------------------------------- #
    # Every per-edge array lives in the plan's destination-sorted order: rows
    # of one destination are contiguous, per-destination values expand with
    # one ``take`` of the sorted destinations, per-source values arrive with
    # one ``take`` of the sorted sources, the head-blocked weighted CSR is
    # filled by one ``take``, and a kernel that chains several per-edge steps
    # (the attention block: logits → max → exp → sum → SpMM, and the SDDMM →
    # softmax-grad → two segment sums of its backward) never permutes between
    # them.  Per destination reductions run in the stable sorted order
    # derived from the input edge order; per source, the CSC transposes add
    # in ascending sorted position.
    def sort_edges(self, values: np.ndarray) -> np.ndarray:
        """Per-edge rows, input order → destination-sorted order (the one
        entry into the space)."""
        values = self._check_edge_rows(values, "values")
        self._layout()
        return values.take(self._order, axis=0)

    def expand_dst(self, x: np.ndarray) -> np.ndarray:
        """Sorted per-edge copy of each edge's destination row of ``x``."""
        return x.take(self._sorted_dst(), axis=0)

    def gather_src(self, x: np.ndarray) -> np.ndarray:
        """Sorted per-edge copy of each edge's source row of ``x``."""
        self._layout()
        return x.take(self._indices, axis=0)

    def segment_sum_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Sum sorted per-edge rows into destination buckets through a cached
        ``(num_dst × E)`` selection CSR (identity columns)."""
        sorted_values = self._check_edge_rows(sorted_values, "sorted_values")
        if self._sorted_sel is None:
            self._layout()
            self._sorted_sel = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=np.float32), np.arange(self.num_edges),
                 self._indptr),
                shape=(self.num_dst, self.num_edges),
            )
        return _matvec(self._sorted_sel, sorted_values)

    def segment_max_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Max-reduce sorted per-edge rows per destination (empty segments →
        ``-inf``)."""
        sorted_values = self._check_edge_rows(sorted_values, "sorted_values")
        return self._segment_max(sorted_values)

    def segment_sum_src_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Sum sorted per-edge rows into *source* buckets (the transpose
        reduction) through the cached CSC transpose of the ``(E × num_src)``
        gather CSR, whose row ``p`` picks sorted edge ``p``'s source."""
        sorted_values = self._check_edge_rows(sorted_values, "sorted_values")
        if self._gather_t is None:
            self._layout()
            self._gather_t = sp.csc_matrix(
                (np.ones(self.num_edges, dtype=np.float32), self._indices,
                 np.arange(self.num_edges + 1)),
                shape=(self.num_src, self.num_edges),
            )
        return _matvec(self._gather_t, sorted_values)

    def _head_blocked(self, heads: int) -> tuple:
        """``(indices, indptr, gather)`` of the head-blocked CSR for ``heads``
        heads, built once.

        Row ``d·H + h`` holds column ``s·H + h`` for every edge of segment
        ``d``, in the plan's stable sorted order, so the matrix multiplies
        ``x.reshape(num_src·H, D)`` with every head at once.  ``gather``
        maps each stored entry to its weight in the flattened sorted
        ``(E, H)`` weights.  Per row the entries are one segment in plan
        order, so the products equal a per-head matvec over the same segment
        bit for bit.
        """
        blocked = self._blocked.get(heads)
        if blocked is None:
            self._layout()
            head = np.arange(heads)
            rows = self._sorted_dst()
            first = self._indptr[:-1]
            # Data slot of (sorted edge p, head h): row (d_p, h) starts at
            # indptr[d]·H + h·count[d]; p is entry p − indptr[d] of it.
            slots = ((first[rows] * (heads - 1) + np.arange(self.num_edges))[:, None]
                     + self._counts[rows][:, None] * head).ravel()
            gather = np.empty(self.num_edges * heads, dtype=np.int64)
            gather[slots] = np.arange(self.num_edges * heads)
            indices = np.empty(self.num_edges * heads, dtype=np.int64)
            indices[slots] = (self._indices[:, None] * heads + head).ravel()
            indptr = np.append((first[:, None] * heads + self._counts[:, None] * head).ravel(),
                               self.num_edges * heads)
            # Let scipy pick the index dtype once, not on every call.
            structure = sp.csr_matrix((np.empty(len(indices), dtype=np.float32),
                                       indices, indptr),
                                      shape=(self.num_dst * heads, self.num_src * heads))
            blocked = self._blocked[heads] = (structure.indices, structure.indptr, gather)
        return blocked

    def _weighted(self, sorted_weights: np.ndarray, heads: int) -> tuple:
        """``(data, indices, indptr)`` of the head-blocked CSR filled by one
        ``take`` with the sorted ``(E, H)`` weights, in their own dtype.

        ``heads`` comes from the dense operand; weights of any other shape
        would be read flattened, mixing heads, so they are refused."""
        sorted_weights = np.asarray(sorted_weights)
        if sorted_weights.shape != (self.num_edges, heads):
            raise ValueError(
                f"sorted_weights must have shape ({self.num_edges}, {heads}), one per "
                f"edge and head, got {sorted_weights.shape}"
            )
        indices, indptr, gather = self._head_blocked(heads)
        return sorted_weights.reshape(-1).take(gather), indices, indptr

    def u_mul_e_sum_sorted(self, x: np.ndarray, sorted_weights: np.ndarray) -> np.ndarray:
        """``out[d, h] = Σ_{e:(s→d)} w[e, h] · x[s, h]`` with ``x`` of shape
        ``(num_src, H, D)`` and the ``(E, H)`` weights in sorted order."""
        heads = x.shape[1]
        weighted = sp.csr_matrix(self._weighted(sorted_weights, heads),
                                 shape=(self.num_dst * heads, self.num_src * heads))
        return _head_spmm(weighted, x, self.num_dst)

    def u_mul_e_sum_t_sorted(self, grad: np.ndarray, sorted_weights: np.ndarray) -> np.ndarray:
        """``out[s, h] = Σ_{e:(s→d)} w[e, h] · grad[d, h]``, the transpose of
        :meth:`u_mul_e_sum_sorted` (its backward): the same filled arrays
        read as a CSC matrix, which is the forward CSR's transpose."""
        heads = grad.shape[1]
        weighted_t = sp.csc_matrix(self._weighted(sorted_weights, heads),
                                   shape=(self.num_src * heads, self.num_dst * heads))
        return _head_spmm(weighted_t, grad, self.num_src)

    def sddmm(self, x_src: np.ndarray, y_dst: np.ndarray) -> np.ndarray:
        """Sorted per-edge dot products ``out[e, h] = <x_src[s_e, h], y_dst[d_e, h]>``.

        The sampled dense-dense product of the attention backward
        (``∂L/∂α``).  Unblocked, its two gathered ``(E, H, D)`` operands make
        a round trip through DRAM before the reduction reads them back; here
        they are gathered, multiplied and reduced one chunk of sorted edges —
        :data:`SDDMM_BLOCK_BYTES` of operands — at a time, so they stay in
        cache.  Each edge's dot product is the same ``einsum`` reduction as
        the unblocked call, so the result does not depend on the chunking.
        ``x_src`` must be ``(num_src, H, D)`` and ``y_dst`` ``(num_dst, H, D)``:
        the gathers clip their indices, so a short operand would otherwise
        be read silently.
        """
        if (x_src.ndim != 3 or x_src.shape[0] != self.num_src
                or y_dst.shape != (self.num_dst,) + x_src.shape[1:]):
            raise ValueError(
                f"sddmm needs x_src of shape ({self.num_src}, H, D) and y_dst of shape "
                f"({self.num_dst}, H, D), got {x_src.shape} and {y_dst.shape}"
            )
        self._layout()
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
        dst = self._sorted_dst()
        for start in range(0, self.num_edges, step):
            stop = min(start + step, self.num_edges)
            x_e, y_e = x_buf[:stop - start], y_buf[:stop - start]
            # mode="clip": with the default "raise", ``out`` is buffered.
            np.take(x_src, self._indices[start:stop], axis=0, out=x_e, mode="clip")
            np.take(y_dst, dst[start:stop], axis=0, out=y_e, mode="clip")
            np.einsum("ehd,ehd->eh", x_e, y_e, out=out[start:stop])
        return out


# --------------------------------------------------------------------------- #
# structural plan cache (plan reuse across mini-batches)
# --------------------------------------------------------------------------- #
class PlanCache:
    """LRU cache of :class:`EdgePlan` objects keyed by edge-set *structure*.

    ``get`` hashes ``(src, dst, num_dst, num_src)`` and returns a stored
    plan for an identical edge set.  No library path consults it: every
    compacted block lists its edges in plan order and builds its own plan
    (:meth:`repro.graph.mfg.MFGBlock.relation_plan`), which costs less than
    the digest did and leaves no plan alive after its block.  The cache and
    its process-wide instance stay only because ``Server.stats()`` and the
    benchmark harness still report its counters, which read zero lookups.
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


#: the process-wide instance whose counters ``Server.stats()`` reports.
_shared_cache = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide structural plan cache."""
    return _shared_cache
