"""Composable bounded-prefetch stages for the sampled data path.

:class:`StagedPipeline` generalizes the single-queue prefetch loop that
:class:`~repro.sample.loader.MiniBatchDataLoader` started with: instead of
one opaque "make the whole batch" job per item, the work is split into named
stages — for the loader, item-slice → neighbour-sample → block-compact →
feature-fetch — each backed by its own executor, so *different stages of
different batches* run concurrently (batch b compacting while batch b+1 is
still sampling) instead of whole batches queueing behind each other.

Residency discipline
--------------------
Admission control is unchanged from the original loader and is the bound
callers document: at most ``max_resident`` items are materialized at once,
counting the item the consumer currently holds, items in flight in any
stage, and finished items not yet consumed.  The high-water mark is
surfaced as :attr:`StagedPipeline.peak_resident` and per-stage concurrency
as :attr:`StagedPipeline.stage_peak_inflight` (telemetry only).

Ordering and determinism
------------------------
Items are admitted and yielded strictly in input order regardless of which
stage threads finish first; stage functions receive exactly one item and
must not share mutable state.  Because the sampler's draws are counter-based
(:mod:`repro.utils.seed`), moving work between stage threads never changes
what is sampled.

Errors raised inside any stage propagate to the consumer on the item they
occurred on, and the pipeline shuts its executors down cancelling queued
work — the same failure semantics the single-queue loader had.  A consumer
that abandons :meth:`StagedPipeline.run` mid-stream (an exception, a
``break``, a closed generator) gets the same shutdown: items still in
flight resolve as cancelled, and every stage thread is joined before the
generator finishes closing.

A pipeline whose stages all declare ``num_workers=0`` runs fully
synchronously on the consumer thread (no executors, no threads), which is
the loader's ``num_workers=0`` mode.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Stage:
    """One named pipeline stage: a function plus its worker allotment.

    ``num_workers=0`` runs the stage inline on whichever thread produced its
    input (the consumer thread for the first stage) — useful for stages too
    cheap to justify a thread hop.
    """

    name: str
    fn: Callable[[Any], Any]
    num_workers: int = 1


@dataclass
class StagedPipeline:
    """Run items through a chain of stages under one residency bound.

    Parameters
    ----------
    stages:
        The stage chain, applied in order.  Each item's value flows through
        every stage; the last stage's output is what :meth:`run` yields.
    max_resident:
        Bound on simultaneously materialized items — the one the consumer
        holds, plus everything admitted but not yet consumed (in-flight in
        any stage included).
    """

    stages: Sequence[Stage]
    max_resident: int = 2
    #: high-water mark of simultaneously resident items (telemetry)
    peak_resident: int = field(default=0, init=False)
    #: per-stage high-water mark of concurrently executing items (telemetry)
    stage_peak_inflight: Dict[str, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("StagedPipeline needs at least one stage")
        if self.max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {self.max_resident}")
        self._lock = threading.Lock()
        self._inflight = {stage.name: 0 for stage in self.stages}
        self.stage_peak_inflight = {stage.name: 0 for stage in self.stages}

    # ------------------------------------------------------------------ #
    @property
    def synchronous(self) -> bool:
        """True when every stage runs inline on the consumer thread."""
        return all(stage.num_workers <= 0 for stage in self.stages)

    def _note_start(self, name: str) -> None:
        with self._lock:
            self._inflight[name] += 1
            if self._inflight[name] > self.stage_peak_inflight[name]:
                self.stage_peak_inflight[name] = self._inflight[name]

    def _note_finish(self, name: str) -> None:
        with self._lock:
            self._inflight[name] -= 1

    def _chain(
        self,
        executors: List[Optional[ThreadPoolExecutor]],
        stage_index: int,
        value: Any,
        final: Future,
    ) -> None:
        """Advance ``value`` from ``stage_index`` onward, resolving ``final``.

        Each stage's completion callback submits (or inlines) the next
        stage, so an item never waits on any other item's progress — only
        admission is ordered.
        """
        while stage_index < len(self.stages):
            stage = self.stages[stage_index]
            executor = executors[stage_index]
            if executor is None:
                # Inline stage: run on the current thread (the consumer for
                # stage 0, otherwise the previous stage's worker).
                self._note_start(stage.name)
                try:
                    value = stage.fn(value)
                except BaseException as exc:  # noqa: BLE001 - must reach consumer
                    final.set_exception(exc)
                    return
                finally:
                    self._note_finish(stage.name)
                stage_index += 1
                continue

            next_index = stage_index + 1

            def _submitted(value: Any = value, stage: Stage = stage) -> Any:
                self._note_start(stage.name)
                try:
                    return stage.fn(value)
                finally:
                    self._note_finish(stage.name)

            def _done(fut: Future, next_index: int = next_index) -> None:
                if fut.cancelled():
                    # Cancelled by the shutdown of an abandoned run.
                    final.cancel()
                    return
                exc = fut.exception()
                if exc is not None:
                    final.set_exception(exc)
                else:
                    self._chain(executors, next_index, fut.result(), final)

            try:
                future = executor.submit(_submitted)
            except RuntimeError:
                # The consumer abandoned ``run()`` and its ``finally`` shut
                # this executor down while the previous stage was still
                # running: nobody will read the item, so drop it.
                final.cancel()
                return
            future.add_done_callback(_done)
            return
        final.set_result(value)

    # ------------------------------------------------------------------ #
    def run(self, items: Iterable[Any]) -> Iterator[Any]:
        """Yield each item's fully staged result, in input order."""
        if self.synchronous:
            for value in items:
                for stage in self.stages:
                    self._note_start(stage.name)
                    try:
                        value = stage.fn(value)
                    finally:
                        self._note_finish(stage.name)
                self.peak_resident = max(self.peak_resident, 1)
                yield value
            return

        executors: List[Optional[ThreadPoolExecutor]] = [
            ThreadPoolExecutor(
                max_workers=stage.num_workers, thread_name_prefix=f"stage-{stage.name}"
            )
            if stage.num_workers > 0
            else None
            for stage in self.stages
        ]
        source = iter(items)
        try:
            # ``held`` is the item the consumer is working on: it counts
            # against the residency bound until the consumer asks for the
            # next one, so at most ``max_resident`` items are ever
            # materialized at once (held + pending, in-flight included).
            pending: deque = deque()
            exhausted = False
            held = 0
            while not exhausted or pending:
                while not exhausted and held + len(pending) < self.max_resident:
                    try:
                        item = next(source)
                    except StopIteration:
                        exhausted = True
                        break
                    final: Future = Future()
                    self._chain(executors, 0, item, final)
                    pending.append(final)
                    self.peak_resident = max(self.peak_resident, held + len(pending))
                if not pending:
                    break
                # The documented residency contract: never more than
                # ``max_resident`` items materialized at once.
                assert held + len(pending) <= self.max_resident, (
                    f"residency bound violated: {held + len(pending)} > {self.max_resident}"
                )
                value = pending.popleft().result()
                held = 1
                self.peak_resident = max(self.peak_resident, held + len(pending))
                yield value
                held = 0
        finally:
            # Queued work is cancelled, running work is waited for; in stage
            # order, so a running stage can still hand its item to the next
            # executor (which then cancels or drains it) and no stage thread
            # outlives the run.
            for executor in executors:
                if executor is not None:
                    executor.shutdown(wait=True, cancel_futures=True)
