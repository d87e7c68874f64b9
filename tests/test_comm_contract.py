"""One communicator contract, checked on both cluster drivers.

A fixed script of every :class:`~repro.distributed.comm.Communicator`
operation runs on worker threads and on forked processes at world sizes
1/2/3; both ride the same shared-memory data plane, so they must return
equal values and account equal bytes on both sides — a publish is a
snapshot and a fetch is booked by its reader, on either driver.  A churn of
mixed collectives must leave nothing transient published and reuse freed
arena space instead of creeping, and only the owner can write its arena.
"""

import multiprocessing as mp
import sys

import numpy as np
import pytest

from repro.distributed.cluster import run_distributed
from repro.distributed.comm import STREAM_KEY_PREFIX
from repro.distributed.mp_backend import run_multiprocess

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the mp backend requires the fork start method",
)

_DTYPES = ("float32", "float64", "int64", "bool")


def _matrix(rank, dtype):
    return (np.arange(24).reshape(6, 4) % 5 + rank).astype(dtype)


def _contract_script(rank, comm, *, mutate_sources):
    """Every primitive once or more; returns ``(values, received_by_tag, sent_by_tag)``."""
    ws = comm.world_size
    peer = (rank + 1) % ws
    values = {}

    # publish / fetch(rows) / fetch() / unpublish, per dtype
    for dtype in _DTYPES:
        source = _matrix(rank, dtype)
        comm.publish(f"m/{dtype}", source)
        if mutate_sources:  # a publish is a snapshot: peers must still see the original
            source[...] = 0
        rows = comm.fetch(peer, f"m/{dtype}", rows=np.array([4, 0, 4]), tag=f"rows/{dtype}")
        whole = comm.fetch(peer, f"m/{dtype}", tag=f"whole/{dtype}")
        values[f"rows/{dtype}"], values[f"whole/{dtype}"] = rows.copy(), whole.copy()
        # a fetched result is the caller's own: scribbling on it changes
        # nothing a second fetch sees
        for fetched in (rows, whole):
            assert fetched.flags.writeable and fetched.flags.owndata
            fetched[...] = 1
        values[f"again/{dtype}"] = comm.fetch(peer, f"m/{dtype}", tag=f"again/{dtype}")
        comm.barrier()  # every reader is done
        comm.unpublish(f"m/{dtype}")

    # zero-row and 0-d arrays
    comm.publish("empty", np.zeros((0, 4), dtype=np.float32))
    comm.publish("scalar", np.asarray(3.5 + rank))
    comm.publish("block", _matrix(rank, "float64"))
    values["empty"] = comm.fetch(peer, "empty", tag="empty")
    values["scalar"] = comm.fetch(peer, "scalar", tag="scalar")
    values["no_rows"] = comm.fetch(peer, "block", rows=np.zeros(0, dtype=np.int64), tag="no_rows")
    comm.barrier()
    comm.clear_published()

    # collectives
    values["allgather"] = comm.allgather(np.arange(rank + 1, dtype=np.int64), tag="ag")
    values["allgather_0d"] = comm.allgather(np.asarray(float(rank)), tag="ag")
    for op in ("sum", "max", "min", "mean"):
        for dtype in ("float32", "float64", "int64"):
            values[f"allreduce/{op}/{dtype}"] = comm.allreduce(
                _matrix(rank, dtype)[:2], op=op, tag=f"ar/{op}"
            )

    # exchange: self-delivery, an absent destination, an empty payload
    outgoing = {rank: np.full(2, rank, dtype=np.float32), peer: _matrix(rank, "float64")}
    if ws == 3:
        outgoing[(rank + 2) % ws] = np.zeros((0, 3), dtype=np.int64)
    outgoing.pop(0, None)  # nobody sends to rank 0
    received = comm.exchange("x", outgoing, tag="xchg")
    values["exchange"] = [received[sender] for sender in sorted(received)]
    values["exchange_senders"] = np.asarray(sorted(received), dtype=np.int64)

    # keyed allgathers: barrier-free, payload held until released
    for step in range(2):
        values[f"keyed/{step}"] = comm.allgather_keyed(
            f"k/{step}", np.arange(step + rank + 1, dtype=np.int64), tag="keyed"
        )
    comm.barrier()
    for step in range(2):
        comm.release_keyed(f"k/{step}")
    return values, dict(comm.stats.received_by_tag), dict(comm.stats.sent_by_tag)


def _assert_same(a, b, where):
    if isinstance(a, list):
        assert len(a) == len(b), where
        for index, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{index}]")
        return
    assert a.dtype == b.dtype and a.shape == b.shape, where
    np.testing.assert_array_equal(a, b, err_msg=where)


@pytest.mark.parametrize("world_size", [1, 2, 3])
def test_thread_and_mp_backends_agree(world_size):
    threads = run_distributed(_contract_script, world_size, mutate_sources=True)
    processes = run_multiprocess(
        _contract_script, world_size, timeout_s=120, mutate_sources=True
    )
    for rank, (thread, process) in enumerate(zip(threads.results, processes.results)):
        values, received, sent = thread
        mp_values, mp_received, mp_sent = process
        assert values.keys() == mp_values.keys()
        for name in values:
            _assert_same(values[name], mp_values[name], f"rank {rank} {name}")
        peer = (rank + 1) % world_size
        for run_values in (values, mp_values):  # snapshots of the peer's *original* matrix
            for dtype in _DTYPES:
                np.testing.assert_array_equal(run_values[f"whole/{dtype}"], _matrix(peer, dtype))
                np.testing.assert_array_equal(run_values[f"again/{dtype}"], _matrix(peer, dtype))
                np.testing.assert_array_equal(run_values[f"rows/{dtype}"],
                                              _matrix(peer, dtype)[[4, 0, 4]])
        # Bytes: the collectives and their accounting are written once, so
        # both sides agree for every tag — what moved is what is booked
        # (rows, not the whole published array; each peer's allgather part;
        # nothing for self-delivery), and a fetch is booked by its reader
        # alone, never on the owner's send counters.
        assert received == mp_received
        assert received.get("ag", 0) == (world_size > 1) * sum(
            8 * (q + 1) + 8 for q in range(world_size) if q != rank
        )
        assert sent == mp_sent
    assert processes.total_received_by_tag() == threads.total_received_by_tag()
    assert processes.total_bytes_communicated == threads.total_bytes_communicated


def _readonly_view_worker(rank, comm):
    comm.publish("mine", np.ones((3, 2)))
    view = comm._read((rank + 1) % comm.world_size, "mine")
    try:
        view[...] = 7.0
    except ValueError:
        refused = True
    else:
        refused = False
    comm.barrier()
    return refused and not view.flags.writeable and float(comm.fetch(rank, "mine").sum()) == 6.0


@pytest.mark.parametrize("run", [run_distributed, run_multiprocess], ids=["threads", "mp"])
def test_only_the_owner_can_write_its_arena(run):
    assert run(_readonly_view_worker, 2, timeout_s=120).results == [True, True]


_MAX_ROWS = 501


def _churn_worker(rank, comm, *, probe):
    ws = comm.world_size
    peers = [q for q in range(ws) if q != rank]
    persistent = np.full((64, 8), float(rank))
    comm.publish(STREAM_KEY_PREFIX + "persistent", persistent)
    for step in range(200):
        payload = np.full((1 + step * 37 % _MAX_ROWS, 8), float(rank + step))
        kind = step % 4
        if kind == 0:
            gathered = comm.allgather(payload)
            assert [float(g[0, 0]) for g in gathered] == [float(q + step) for q in range(ws)]
        elif kind == 1:
            total = comm.allreduce(payload)
            assert float(total[0, 0]) == sum(q + step for q in range(ws))
        elif kind == 2:
            received = comm.exchange(f"e{step}", {q: payload for q in peers})
            assert sorted(received) == peers
            assert all(float(received[q][0, 0]) == q + step for q in peers)
        else:
            comm.publish("step", payload)
            assert float(comm.fetch(peers[0], "step", rows=np.array([0]))[0, 0]) == peers[0] + step
            comm.barrier()
            comm.unpublish("step")
    comm.barrier()  # the last exchange's slots are reclaimed once every reader passed
    kept = comm.fetch(peers[0], STREAM_KEY_PREFIX + "persistent")
    return probe(comm), float(kept[0, 0])


@pytest.mark.parametrize("run", [run_distributed, run_multiprocess], ids=["threads", "mp"])
def test_churn_reuses_arena_space_and_leaves_only_the_stream_publish(run):
    # 200 mixed collectives with payloads from 64 B to 32 KB: every
    # collective key and exchange slot is withdrawn by its owner's next
    # barrier, so only the stream publish stays live, and the arena never
    # grew past a small multiple of the biggest step (an exchange: one max
    # payload per peer) on top of it — first-fit reuse works, nothing creeps.
    results = run(
        _churn_worker, 3, timeout_s=120, probe=lambda comm: (comm._keys(), comm.arena_stats())
    ).results
    biggest_step = 2 * _MAX_ROWS * 8 * 8
    persistent = 64 * 8 * 8
    for rank, ((keys, stats), kept) in enumerate(results):
        assert kept == (1.0 if rank == 0 else 0.0)  # the first peer's persistent rows
        assert keys == [STREAM_KEY_PREFIX + "persistent"]
        assert stats["transient_bytes"] == 0
        assert stats["live_bytes"] == persistent
        assert persistent < stats["high_water_bytes"] <= persistent + 3 * biggest_step
        assert stats["high_water_bytes"] < stats["capacity_bytes"]


def test_thread_ranks_keep_the_plane_consistent_under_fast_switching():
    # More rank threads than cores, switching every few bytecodes: a lost
    # update to the plane's shared words (barrier arrivals, parked counts)
    # hangs a barrier until the timeout, and a misplaced block misroutes a
    # payload, which the churn's value checks catch.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = run_distributed(_churn_worker, 4, timeout_s=60, probe=lambda comm: comm._keys())
    finally:
        sys.setswitchinterval(interval)
    for rank, (keys, kept) in enumerate(results.results):
        assert kept == (1.0 if rank == 0 else 0.0)
        assert keys == [STREAM_KEY_PREFIX + "persistent"]
