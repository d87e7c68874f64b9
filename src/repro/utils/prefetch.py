"""Ordered, bounded prefetch: compute item ``i+1`` while the caller uses item ``i``.

Two places need it — the mini-batch loader (sample → compact → fetch per
batch, on one machine and on every distributed worker) and the SAR engine's
halo prefetch (paper §3.4) — and both run through :class:`Prefetcher`:

* results are yielded strictly in input order, whichever worker finishes
  first;
* at most ``max_resident`` items are materialized at once, counting the one
  the consumer holds (admission happens when the consumer asks for the next
  item, so the held one is released by then);
* ``num_workers == 0`` or ``max_resident == 1`` runs ``fn`` inline on the
  consumer thread and starts no thread;
* an exception from ``fn`` reaches the consumer on its own item, after the
  items before it;
* on normal exhaustion the worker threads are joined; a consumer that
  abandons the generator (an exception, a ``break``, ``close()``) cancels the
  queued items but does **not** wait on a running one — it may be inside a
  collective whose peers are gone, and it finishes (or fails) on its own.

Worker threads are named ``f"{THREAD_PREFIX}-{name}_<i>"``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: name prefix of every prefetch worker thread
THREAD_PREFIX = "prefetch"


class Prefetcher:
    """Run ``fn`` over items ahead of the consumer under a residency bound.

    ``peak_resident`` is the high-water mark of simultaneously materialized
    items (the held one included) across every :meth:`run`.
    """

    def __init__(self, max_resident: int = 2, num_workers: int = 1, name: str = "work"):
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        self.max_resident = max_resident
        self.num_workers = num_workers
        self.name = name
        self.peak_resident = 0

    def run(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield ``fn(item)`` for every item, in order."""
        if self.num_workers == 0 or self.max_resident == 1:
            for item in items:
                self.peak_resident = max(self.peak_resident, 1)
                yield fn(item)
            return
        executor = ThreadPoolExecutor(self.num_workers,
                                      thread_name_prefix=f"{THREAD_PREFIX}-{self.name}")
        source = iter(items)
        pending: deque = deque()
        try:
            while True:
                # The consumer holds nothing while it waits here.
                for item in islice(source, self.max_resident - len(pending)):
                    pending.append(executor.submit(fn, item))
                if not pending:
                    break
                self.peak_resident = max(self.peak_resident, len(pending))
                yield pending.popleft().result()
        finally:
            # Nothing pending means nothing running: join.  Otherwise the
            # consumer left early — drop the queue, leave a running item be.
            executor.shutdown(wait=not pending, cancel_futures=True)
