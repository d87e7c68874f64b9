"""A small bounded mapping with least-recently-used eviction.

Several subsystems memoize expensive prepared state under a key — the
structural edge-plan cache (:mod:`repro.tensor.edge_plan`) keeps one plan per
graph structure, and an unbounded ``dict`` would accrue one edge-sized entry
per structure ever seen.  :class:`LRUDict` is a drop-in replacement: plain
mapping semantics (``[]``, ``get``, ``setdefault``, ``in``, ``len``), with
reads refreshing recency and inserts evicting the least-recently-used entry
once ``capacity`` is exceeded — dropping the last reference so the evicted
value's memory is actually reclaimable.

The mapping can additionally (or instead) be bounded by **bytes**: with
``byte_budget`` set, each value's size is measured on insert (``sizeof``, by
default the value's ``nbytes``) and least-recently-used entries are evicted
until the summed size fits the budget again.  A single value larger than the
whole budget never sticks (it is inserted and immediately evicted, so
``on_evict`` still observes it), and a ``byte_budget`` of ``0`` degenerates
to a cache that retains nothing.  The serving caches of fixed-width rows
(the :class:`repro.store.PartitionedKVStore` hot-row cache and the
:class:`repro.serving.EmbeddingCache`) do not run on this mapping but on
:class:`repro.utils.rowcache.RowCache`, which keeps the same retained set
with one array operation per call instead of one dict operation per row;
the byte-bounded mode here is its row-at-a-time reference in the tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, MutableMapping, Optional

from repro.utils.validation import check_positive_int

_MISSING = object()


def _default_sizeof(value: Any) -> int:
    """Best-effort byte size of a cached value (arrays expose ``nbytes``)."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 0


class LRUDict(MutableMapping):
    """Mapping bounded to ``capacity`` entries and/or ``byte_budget`` bytes.

    Reads (``[]``, ``get``, ``setdefault`` on a present key) mark the entry
    most-recently used; inserting beyond either bound evicts least-recently
    used entries until both bounds hold again.  :attr:`evictions` counts how
    many entries have been dropped (telemetry for tests and server stats).

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``None`` disables the count bound (only
        valid together with ``byte_budget``).
    byte_budget:
        Maximum summed ``sizeof(value)`` of retained entries; ``None``
        disables the byte bound.  ``0`` is allowed and retains nothing.
    sizeof:
        Size measure applied to each value on insert (default: the value's
        ``nbytes`` attribute, else ``0``).  A value's size is measured once,
        at insert time; mutating a cached value's size afterwards is a
        contract violation.
    on_evict:
        Optional ``callback(key, value)`` invoked *after* the entry has been
        removed from the mapping, so reentrant reads/inserts from the
        callback observe a consistent cache (and may even re-insert).

    Notes
    -----
    Not thread-safe; its user, the structural plan cache, calls it under
    its own lock.
    """

    def __init__(
        self,
        capacity: Optional[int] = 8,
        *,
        byte_budget: Optional[int] = None,
        sizeof: Optional[Callable[[Any], int]] = None,
        on_evict: Optional[Callable[[Any, Any], None]] = None,
    ):
        if capacity is None and byte_budget is None:
            raise ValueError("LRUDict needs a capacity or a byte_budget (or both)")
        self.capacity = None if capacity is None else check_positive_int(capacity, "capacity")
        if byte_budget is not None and byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self.byte_budget = None if byte_budget is None else int(byte_budget)
        self.current_bytes = 0
        self.evictions = 0
        self._sizeof = sizeof or _default_sizeof
        self._on_evict = on_evict
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._sizes: dict = {}
        #: ``peek(key, default=None)`` reads without refreshing recency and
        #: ``touch(key)`` refreshes without reading — for callers whose probe
        #: is all-or-nothing over many keys.  Bound straight to the
        #: underlying dict: a per-key probe pays no Python frame.
        self.peek = self._data.get
        self.touch = self._data.move_to_end

    # ------------------------------------------------------------------ #
    def _over_budget(self) -> bool:
        if self.capacity is not None and len(self._data) > self.capacity:
            return True
        if self.byte_budget is not None and self.current_bytes > self.byte_budget:
            return True
        return False

    def _evict_until_fits(self) -> None:
        # Pop-then-callback: state is consistent before user code runs, so an
        # on_evict that reads or mutates the dict (reentrancy) is safe.
        while self._data and self._over_budget():
            key, value = self._data.popitem(last=False)
            self.current_bytes -= self._sizes.pop(key, 0)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)

    # ------------------------------------------------------------------ #
    def __getitem__(self, key: Any) -> Any:
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        """``self[key]`` (refreshing recency) or ``default`` — one dict probe.

        Overrides the inherited ``MutableMapping.get``, whose
        ``try: self[key] / except KeyError`` pays for a raised exception on
        every miss; the serving caches probe once per node.
        """
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        data = self._data
        if key in data:
            self.current_bytes -= self._sizes.pop(key, 0)
            data.move_to_end(key)
        data[key] = value
        if self.byte_budget is not None:
            size = self._sizes[key] = self._sizeof(value)
            self.current_bytes += size
        if self._over_budget():
            self._evict_until_fits()

    def __delitem__(self, key: Any) -> None:
        del self._data[key]
        self.current_bytes -= self._sizes.pop(key, 0)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
        self._sizes.clear()
        self.current_bytes = 0

    def __repr__(self) -> str:
        bound = f"capacity={self.capacity}"
        if self.byte_budget is not None:
            bound += f", bytes={self.current_bytes}/{self.byte_budget}"
        return f"LRUDict({bound}, size={len(self._data)}, evictions={self.evictions})"
