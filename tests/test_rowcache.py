"""RowCache against its row-at-a-time reference on an LRUDict.

Every generated interleaving of lookups, inserts and clears over one to
three spaces of different row widths must give the same found masks, the
same rows bit for bit, the same retained keys and byte totals, and the same
insertion and eviction counts.  The one counted difference is a row an
insert names after an earlier row of the same insert evicted it: the dict
evicts and re-inserts it (one more of each), the tables keep it — so the
counts are compared net of the reference's ``reinsertions``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference_kernels import ReferenceRowCache
from repro.utils.rowcache import RowCache

#: (width, dtype) per space: 8, 40 and 12 bytes a row
SPACES = ((2, np.float32), (5, np.float64), (3, np.float32))
KEYS = 6


def _rows(space: int, keys) -> np.ndarray:
    """Row of ``key`` in ``space``: a function of the two, as a serving row is."""
    width, dtype = SPACES[space]
    keys = np.asarray(keys, dtype=np.float64)
    return (1000.0 * space + keys[:, None] + np.arange(width) / 8.0).astype(dtype)


key_lists = st.lists(st.integers(0, KEYS - 1), max_size=8)
ops = st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, 2), key_lists),
    st.tuples(st.just("insert"), st.integers(0, 2), key_lists),
    st.tuples(st.just("insert"), st.integers(0, 2), st.lists(st.integers(0, KEYS - 1),
                                                             max_size=8, unique=True)),
    st.tuples(st.just("clear"), st.just(0), st.just([])),
)
budgets = st.one_of(
    st.just(0),
    st.integers(1, 7),  # below the narrowest row
    st.integers(8, 200),  # a few rows
    st.just(1 << 20),  # more than everything
)


def _assert_same(cache: RowCache, ref: ReferenceRowCache, num_spaces: int) -> None:
    for space in range(num_spaces):
        np.testing.assert_array_equal(cache.keys(space), ref.keys(space))
    assert cache.current_bytes == ref.rows.current_bytes <= cache.byte_budget
    assert len(cache) == len(ref.rows)
    assert cache.evictions == ref.rows.evictions - ref.reinsertions


@given(budget=budgets, num_spaces=st.integers(1, 3), program=st.lists(ops, max_size=30))
# Below one row nothing sticks, and every inserted row counts as evicted.
@example(budget=0, num_spaces=1, program=[("insert", 0, [0, 1, 2])])
@example(budget=7, num_spaces=1, program=[("insert", 0, [0, 1, 2])])
# A second insert of a held row (a concurrent double fetch) refreshes it.
@example(budget=16, num_spaces=1, program=[("insert", 0, [0, 1]), ("insert", 0, [0]),
                                           ("insert", 0, [2])])
# Row 0 is held, evicted by row 2 of the same insert, then named again.
@example(budget=16, num_spaces=1, program=[("insert", 0, [0]), ("insert", 0, [1]),
                                           ("insert", 0, [2, 3, 0])])
def test_rowcache_matches_lru_reference(budget, num_spaces, program):
    _run_against_reference(budget, num_spaces, program)


@pytest.mark.parametrize("budget", [2_000, 20_000])
def test_rowcache_long_run_matches_lru_reference(budget):
    """Thousands of uses: eviction reads the log over several chunks, and the
    log is compacted many times, with the cache full or nearly so."""
    rng = np.random.default_rng(budget)
    program = []
    for _ in range(600):
        op = ("lookup", "insert", "insert")[rng.integers(3)]
        keys = rng.integers(0, 1000, size=rng.integers(1, 64)) ** 2 // 1000
        program.append((op, int(rng.integers(3)), keys.tolist()))
    _run_against_reference(budget, 3, program)


def test_rowcache_eviction_reads_past_stale_records():
    """The oldest records name rows used again since: one eviction reads
    several chunks of the log before it finds the rows to drop."""
    held = list(range(300))
    program = [("insert", 0, held), ("lookup", 0, held), ("lookup", 0, held[::-3]),
               ("insert", 0, list(range(300, 560))), ("insert", 1, list(range(40))),
               ("lookup", 0, held + list(range(300, 560))), ("insert", 2, list(range(200)))]
    _run_against_reference(300 * 8, 3, program)


def _run_against_reference(budget, num_spaces, program):
    cache, ref = RowCache(budget), ReferenceRowCache(budget)
    for op, space, keys in program:
        space %= num_spaces
        keys = np.asarray(keys, dtype=np.int64)
        if op == "lookup":
            found, rows = cache.lookup(space, keys)
            want_found, want_rows = ref.lookup(space, keys)
            np.testing.assert_array_equal(found, want_found)
            assert (rows is None) == (want_rows is None)
            if rows is not None:
                assert rows.dtype == want_rows.dtype
                np.testing.assert_array_equal(rows, want_rows)
                np.testing.assert_array_equal(rows, _rows(space, keys[found]))
        elif op == "insert":
            before = ref.reinsertions
            added = cache.insert(space, keys, _rows(space, keys))
            want = ref.insert(space, keys, _rows(space, keys))
            assert added == want - (ref.reinsertions - before)
        else:
            cache.clear()
            ref.clear()
        _assert_same(cache, ref, num_spaces)


def test_rowcache_evicts_least_recent_across_spaces():
    cache = RowCache(3 * 8)
    cache.insert(0, [0, 1], _rows(0, [0, 1]))
    cache.insert(2, [4], np.zeros((1, 2), dtype=np.float32))  # a second 8-byte space
    cache.lookup(0, [0])  # key 1 of space 0 becomes the least recent
    assert cache.insert(0, [5], _rows(0, [5])) == 1
    assert cache.keys(0).tolist() == [0, 5] and cache.keys(2).tolist() == [4]
    assert cache.evictions == 1 and cache.current_bytes == 3 * 8
    # An insert larger than the budget keeps only its most recent rows.
    cache.insert(0, np.arange(6, 11), _rows(0, np.arange(6, 11)))
    assert cache.keys(0).tolist() == [8, 9, 10] and cache.keys(2).size == 0
    assert cache.evictions == 1 + 3 + 2


def test_rowcache_rows_are_copies_and_clear_resets():
    cache = RowCache(1 << 10)
    rows = _rows(0, [3])
    cache.insert(0, [3], rows)
    rows[...] = -1.0
    found, got = cache.lookup(0, [3, 4])
    assert found.tolist() == [True, False]
    np.testing.assert_array_equal(got, _rows(0, [3]))
    got[...] = -2.0  # a fresh array: the cache's row is untouched
    np.testing.assert_array_equal(cache.lookup(0, [3])[1], _rows(0, [3]))
    cache.clear()
    assert len(cache) == 0 and cache.current_bytes == 0 and cache.evictions == 0
    assert cache.lookup(0, [3])[0].tolist() == [False]


def test_rowcache_validates():
    with pytest.raises(ValueError, match="byte_budget"):
        RowCache(-1)
    cache = RowCache(1 << 10)
    with pytest.raises(ValueError, match="rows"):
        cache.insert(0, [0, 1], np.zeros((1, 2), dtype=np.float32))
    cache.insert(0, [0], np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="wide"):
        cache.insert(0, [1], np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="non-negative"):
        cache.lookup(0, [-1])
