"""An exact, vectorised byte-bounded LRU of fixed-width rows.

Both serving caches hold rows addressed by small integer keys: the
:class:`repro.store.PartitionedKVStore` keeps hot remote feature rows keyed
``(owner rank, local row)``, and the :class:`repro.serving.EmbeddingCache`
keeps activation rows keyed ``(layer, node id)``.  :class:`RowCache` serves
both from tables instead of one mapping entry per row:

* rows live in **spaces** (the owner rank, the layer); a space takes its row
  width and dtype from its first insert;
* each space has an ``int64`` ``slot_of`` index over its key range (negative
  = absent; 8 B per key, grown to the largest key inserted) and a row table
  that grows geometrically, never past the rows the byte budget can hold;
* one clock, shared by every space, stamps each slot with its last use, and
  a log lists ``(stamp, space, slot)`` in stamp order as uses happen; a
  record whose slot has been used again or dropped since is stale.

A probe (:meth:`RowCache.lookup`) is one gather through ``slot_of`` and one
from the row table; an insert (:meth:`RowCache.insert`) evicts, across all
spaces, the least-recently used rows until the byte total fits the budget
again, reading the log from its oldest end, so an eviction costs the records
it consumes, not the rows held.  When the log fills it is compacted to its
live records and sized for as many again: 24 B a record, so at most 48 B per
held row plus the rows of the call that compacts it.  The retained rows, the byte
total and the eviction count are those a :class:`repro.utils.lru.LRUDict`
with the same ``byte_budget`` reaches when fed the same rows one by one, so
a budget of ``0``, or one below a single row, retains nothing and counts
every inserted row as evicted.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

#: stamp of a slot that holds no row: it sorts after every used slot
_UNUSED = np.iinfo(np.int64).max


def _put_max(table: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``table[index] = values``, keeping the largest value at a repeated index.

    NumPy does not promise which write lands when an index repeats; rewriting
    the entries that read back low settles every repeat on its maximum.
    """
    table[index] = values
    while True:
        low = table[index] < values
        if not low.any():
            return
        index, values = index[low], values[low]
        table[index] = values


class _Space:
    """One space's key index, row table and per-slot stamps."""

    def __init__(self, index: int, width: int, dtype: np.dtype, max_rows: int):
        self.index = index  # the space's number in the log
        self.width = width
        self.dtype = dtype
        self.row_bytes = width * dtype.itemsize
        self.max_rows = max_rows
        self.slot_of = np.empty(0, dtype=np.int64)
        self.rows = np.empty((0, width), dtype=dtype)
        self.stamp = np.empty(0, dtype=np.int64)
        self.key_of = np.empty(0, dtype=np.int64)
        self.free = np.empty(0, dtype=np.int64)  # released slots below ``top``
        self.top = 0  # slots ``[0, top)`` have been handed out

    def __len__(self) -> int:
        return self.top - self.free.size

    def cover(self, keys: np.ndarray) -> None:
        """Grow ``slot_of`` to index every one of ``keys``."""
        if keys.min() < 0:
            raise ValueError(f"keys must be non-negative, got {int(keys.min())}")
        size = int(keys.max()) + 1
        if size > self.slot_of.size:
            grown = np.full(size, -1, dtype=np.int64)
            grown[: self.slot_of.size] = self.slot_of
            self.slot_of = grown

    def allocate(self, count: int) -> np.ndarray:
        """``count`` unused slots: released ones first, then fresh ones."""
        reuse = min(count, self.free.size)
        slots = self.free[self.free.size - reuse:]
        self.free = self.free[: self.free.size - reuse]
        fresh = count - reuse
        if not fresh:
            return slots
        need = self.top + fresh
        if need > self.stamp.size:
            capacity = min(self.max_rows, max(need, 2 * self.stamp.size))
            rows = np.empty((capacity, self.width), dtype=self.dtype)
            rows[: self.top] = self.rows[: self.top]
            self.rows = rows
            self.stamp = np.concatenate(
                [self.stamp, np.full(capacity - self.stamp.size, _UNUSED, dtype=np.int64)])
            self.key_of = np.concatenate(
                [self.key_of, np.full(capacity - self.key_of.size, -1, dtype=np.int64)])
        self.top = need
        return np.concatenate([slots, np.arange(need - fresh, need, dtype=np.int64)])

    def release(self, slots: np.ndarray) -> None:
        self.slot_of[self.key_of[slots]] = -1
        self.key_of[slots] = -1
        self.stamp[slots] = _UNUSED
        self.free = np.concatenate([self.free, slots])


class RowCache:
    """Byte-bounded LRU of fixed-width rows, addressed by ``(space, key)``.

    Parameters
    ----------
    byte_budget:
        Bound on the summed bytes of the retained rows; ``0`` retains
        nothing.

    Notes
    -----
    Keys are non-negative integers; a space's ``slot_of`` index costs 8 B
    per key up to the largest key it has stored.  Not thread-safe: each user
    serialises its calls under its own lock.  :attr:`evictions` counts the
    rows dropped to fit the budget; :meth:`clear` drops rows without
    counting them.
    """

    def __init__(self, byte_budget: int):
        if byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self.current_bytes = 0
        self.evictions = 0
        self.clear()

    def __len__(self) -> int:
        return sum(len(space) for space in self._order)

    def _tick(self, count: int) -> np.ndarray:
        stamps = np.arange(self._clock, self._clock + count, dtype=np.int64)
        self._clock += count
        return stamps

    def keys(self, space: Hashable) -> np.ndarray:
        """The keys ``space`` holds, ascending."""
        entry = self._spaces.get(space)
        if entry is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(entry.slot_of >= 0)

    # ------------------------------------------------------------------ #
    def lookup(self, space: Hashable, keys: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(found, rows)``: which ``keys`` are held, and the held rows in probe order.

        ``rows`` is a fresh array, or ``None`` when nothing was found.  Found
        keys become the most recently used, in probe order.
        """
        keys = np.asarray(keys, dtype=np.int64)
        entry = self._spaces.get(space)
        if entry is None or not keys.size:
            return np.zeros(keys.size, dtype=bool), None
        if keys.min() < 0:
            raise ValueError(f"keys must be non-negative, got {int(keys.min())}")
        # A key past the index was never inserted: a miss, without growing it.
        inside = np.flatnonzero(keys < entry.slot_of.size)
        slots = np.full(keys.size, -1, dtype=np.int64)
        slots[inside] = entry.slot_of[keys[inside]]
        found = slots >= 0
        hits = np.flatnonzero(found)
        if not hits.size:
            return found, None
        slots = slots[hits]
        stamps = self._tick(keys.size)[hits]
        _put_max(entry.stamp, slots, stamps)
        self._log_uses(entry, slots, stamps)
        return found, entry.rows[slots]

    def insert(self, space: Hashable, keys: np.ndarray, rows: np.ndarray) -> int:
        """Store copies of ``rows`` under ``keys``; return how many keys were new.

        Keys already held are marked most recently used and keep their row.
        Then, while the byte total exceeds the budget, the least recently
        used rows of every space are evicted — this insert's own rows
        included, so rows that cannot fit are counted as evicted without
        being stored.
        """
        keys = np.asarray(keys, dtype=np.int64)
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != keys.size:
            raise ValueError(
                f"rows must be ({keys.size}, width), got shape {rows.shape}")
        if not keys.size:
            return 0
        entry = self._spaces.get(space)
        if entry is None:
            row_bytes = rows.shape[1] * rows.dtype.itemsize
            max_rows = self.byte_budget // row_bytes if row_bytes else sys.maxsize
            entry = _Space(len(self._order), rows.shape[1], rows.dtype, max_rows)
            self._spaces[space] = entry
            self._order.append(entry)
            self._row_bytes = np.append(self._row_bytes, entry.row_bytes)
        elif (rows.shape[1], rows.dtype) != (entry.width, entry.dtype):
            raise ValueError(
                f"space {space!r} holds {entry.width}-wide {entry.dtype} rows, "
                f"got {rows.shape[1]}-wide {rows.dtype}")
        entry.cover(keys)
        stamps = self._tick(keys.size)
        slots = entry.slot_of[keys]
        held = np.flatnonzero(slots >= 0)
        if held.size:
            _put_max(entry.stamp, slots[held], stamps[held])
            held = held[entry.stamp[slots[held]] == stamps[held]]  # each key's last naming
        new = np.flatnonzero(slots < 0)
        if new.size:
            # One position per distinct new key, its last: mark each key with a
            # negative (still absent) code that grows with the position, keep
            # what reads back.
            codes = new - keys.size
            _put_max(entry.slot_of, keys[new], codes)
            new = new[entry.slot_of[keys[new]] == codes]
        added = int(new.size)
        self.current_bytes += added * entry.row_bytes
        excess = self._evict_logged(self.current_bytes - self.byte_budget)
        mine = np.sort(np.concatenate([held, new]))  # this insert's rows, least recent first
        if excess > 0:
            # Every row older than this insert is gone: its own oldest go next.
            gone = mine[: -(-excess // entry.row_bytes)]
            entry.release(slots[gone[slots[gone] >= 0]])
            self.evictions += gone.size
            self.current_bytes -= gone.size * entry.row_bytes
            mine = mine[gone.size:]
            new = new[np.isin(new, mine)]
        entry.slot_of[keys[new]] = placed = entry.allocate(new.size)
        entry.rows[placed] = rows[new]
        entry.stamp[placed] = stamps[new]
        entry.key_of[placed] = keys[new]
        self._log_uses(entry, entry.slot_of[keys[mine]], stamps[mine])
        return added

    def clear(self) -> None:
        """Drop every row and space at once (not counted as evictions)."""
        self._spaces: Dict[Hashable, _Space] = {}
        self._order: List[_Space] = []  # the spaces by index
        self._row_bytes = np.empty(0, dtype=np.int64)  # row width in bytes by space index
        self._clock = 0
        # rows (stamp, space index, slot); records [head, tail) are unread
        self._log = np.empty((3, 0), dtype=np.int64)
        self._head = self._tail = 0
        self.current_bytes = 0

    # -- the use log ------------------------------------------------------ #
    def _log_uses(self, entry: _Space, slots: np.ndarray, stamps: np.ndarray) -> None:
        """Append one record per use; ``stamps`` ascend past every logged one."""
        if self._tail + slots.size > self._log.shape[1]:
            live = self._log[:, self._head:self._tail]
            live = live[:, self._is_live(live)]
            # Room for as many appends as live records: compaction stays O(1) per record.
            log = np.empty((3, max(64, 2 * (live.shape[1] + slots.size))), dtype=np.int64)
            log[:, : live.shape[1]] = live
            self._log, self._head, self._tail = log, 0, live.shape[1]
        end = self._tail + slots.size
        self._log[0, self._tail:end] = stamps
        self._log[1, self._tail:end] = entry.index
        self._log[2, self._tail:end] = slots
        self._tail = end

    def _is_live(self, records: np.ndarray) -> np.ndarray:
        """Which records still name their slot's last use."""
        stamp, index, slot = records
        current = np.empty(stamp.size, dtype=np.int64)
        for entry in self._order:
            mine = np.flatnonzero(index == entry.index)
            current[mine] = entry.stamp[slot[mine]]
        return current == stamp

    def _evict_logged(self, excess: int) -> int:
        """Evict logged rows, least recently used first, until ``excess`` bytes are freed.

        Reads the log in doubling chunks from its oldest record; returns the
        bytes still to free once every logged row is gone (``<= 0`` if none).
        """
        chunk = 256
        while excess > 0 and self._head < self._tail:
            end = min(self._tail, self._head + chunk)
            records = self._log[:, self._head:end]
            live = np.flatnonzero(self._is_live(records))
            freed = np.cumsum(self._row_bytes[records[1, live]])
            cut = live.size
            if cut and freed[-1] >= excess:
                cut = int(np.searchsorted(freed, excess)) + 1
                end = self._head + int(live[cut - 1]) + 1
            if cut:
                _, index, slot = records[:, live[:cut]]
                for entry in self._order:
                    mine = slot[index == entry.index]
                    if mine.size:
                        entry.release(mine)
                self.evictions += cut
                self.current_bytes -= int(freed[cut - 1])
                excess -= int(freed[cut - 1])
            self._head = end
            chunk *= 2
        return excess
