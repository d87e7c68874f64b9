"""Tests for the composable staged-prefetch pipeline and the loader's
feature-fetch stage.

Contract (see :mod:`repro.sample.pipeline`): results arrive strictly in
input order, at most ``max_resident`` items are ever materialized, inline
(``num_workers=0``) stages run on the thread that produced their input, and
stage errors reach the consumer on the item they occurred on.
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np
import pytest

from repro.sample import MiniBatchDataLoader, NeighborSampler
from repro.sample.pipeline import Stage, StagedPipeline


class TestStagedPipeline:
    def test_results_arrive_in_input_order(self):
        pipeline = StagedPipeline(
            stages=(Stage("inc", lambda x: x + 1, num_workers=2),
                    Stage("scale", lambda x: x * 10, num_workers=1)),
            max_resident=3,
        )
        assert list(pipeline.run(range(8))) == [(i + 1) * 10 for i in range(8)]

    def test_out_of_order_completion_reorders(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.05)
            return x

        pipeline = StagedPipeline(stages=(Stage("s", slow_first, num_workers=3),),
                                  max_resident=4)
        assert list(pipeline.run(range(4))) == [0, 1, 2, 3]

    @pytest.mark.parametrize("max_resident", [1, 2, 4])
    def test_residency_bound_held(self, max_resident):
        live = []
        lock = threading.Lock()
        peak = [0]

        def enter(x):
            with lock:
                live.append(x)
                peak[0] = max(peak[0], len(live))
            time.sleep(0.002)
            return x

        def leave(x):
            with lock:
                live.remove(x)
            return x

        pipeline = StagedPipeline(
            stages=(Stage("enter", enter, num_workers=2),
                    Stage("leave", leave, num_workers=1)),
            max_resident=max_resident,
        )
        assert list(pipeline.run(range(12))) == list(range(12))
        # Items materialized concurrently inside the stages can never exceed
        # the admission window (the consumer's held item counts too).
        assert peak[0] <= max_resident
        assert 1 <= pipeline.peak_resident <= max_resident
        assert set(pipeline.stage_peak_inflight) == {"enter", "leave"}
        assert pipeline.stage_peak_inflight["enter"] >= 1

    def test_inline_stage_runs_on_producing_thread(self):
        threads = []

        def record(x):
            threads.append(threading.current_thread().name)
            return x

        pipeline = StagedPipeline(
            stages=(Stage("work", lambda x: x, num_workers=1),
                    Stage("inline", record, num_workers=0)),
            max_resident=2,
        )
        list(pipeline.run(range(3)))
        assert len(threads) == 3
        # An inline stage owns no executor: it runs either on the previous
        # stage's worker or on the consumer thread (when the upstream future
        # resolved before its completion callback was attached) — never on a
        # thread of its own.
        assert not any(name.startswith("stage-inline") for name in threads)
        allowed = ("stage-work", threading.current_thread().name)
        assert all(name.startswith(allowed) for name in threads)

    def test_fully_synchronous_mode_uses_no_threads(self):
        threads = set()

        def record(x):
            threads.add(threading.current_thread())
            return x + 1

        pipeline = StagedPipeline(
            stages=(Stage("a", record, num_workers=0),
                    Stage("b", record, num_workers=0)),
            max_resident=2,
        )
        assert pipeline.synchronous
        assert list(pipeline.run(range(5))) == [i + 2 for i in range(5)]
        assert threads == {threading.current_thread()}
        assert pipeline.peak_resident == 1

    def test_stage_error_reaches_consumer(self):
        def explode(x):
            if x == 2:
                raise RuntimeError("stage exploded")
            return x

        pipeline = StagedPipeline(stages=(Stage("maybe", explode, num_workers=2),),
                                  max_resident=2)
        results = []
        with pytest.raises(RuntimeError, match="stage exploded"):
            for value in pipeline.run(range(5)):
                results.append(value)
        assert results == [0, 1]

    def test_error_in_later_stage_propagates(self):
        def explode(x):
            raise ValueError("late stage")

        pipeline = StagedPipeline(
            stages=(Stage("ok", lambda x: x, num_workers=1),
                    Stage("boom", explode, num_workers=1)),
            max_resident=2,
        )
        with pytest.raises(ValueError, match="late stage"):
            list(pipeline.run(range(3)))

    def test_abandoned_run_logs_nothing_and_joins_stage_threads(self, caplog):
        # Regression: abandoning ``run()`` while a stage is mid-item used to
        # shut the executors down under running work, so the item's
        # completion callback submitted to a shut-down successor
        # ("cannot schedule new futures after shutdown") and a cancelled
        # queued item's callback raised CancelledError — both logged as
        # tracebacks by ``concurrent.futures``.
        def slow(x):
            if x > 0:
                time.sleep(0.05)
            return x

        pipeline = StagedPipeline(
            stages=(Stage("abandon0", slow, num_workers=2),
                    Stage("abandon1", lambda x: x, num_workers=1),
                    Stage("abandon2", lambda x: x, num_workers=1)),
            max_resident=4,
        )

        def stage_threads():
            return [t for t in threading.enumerate() if t.name.startswith("stage-abandon")]

        with caplog.at_level(logging.DEBUG, logger="concurrent.futures"):
            run = pipeline.run(range(10))
            assert next(run) == 0
            run.close()  # items 1-2 running in stage 0, item 3 queued
            alive = stage_threads()
            for thread in alive:
                thread.join(timeout=5.0)
        assert alive == [], f"stage threads outlived the run: {[t.name for t in alive]}"
        assert [r for r in caplog.records if r.name.startswith("concurrent.futures")] == []

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            StagedPipeline(stages=())
        with pytest.raises(ValueError, match="max_resident"):
            StagedPipeline(stages=(Stage("s", lambda x: x),), max_resident=0)


class TestLoaderFeatureFetch:
    def _loader(self, graph, **kwargs):
        sampler = NeighborSampler(graph, [3, 3], seed=9)
        return MiniBatchDataLoader(sampler, np.arange(40), batch_size=16, **kwargs)

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_prefetched_inputs_match_gather(self, sbm_graph, rng, num_workers):
        features = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        loader = self._loader(sbm_graph, num_workers=num_workers)
        loader.set_features(features)
        count = 0
        for batch in loader.iter_epoch(1):
            assert batch.inputs is not None
            np.testing.assert_array_equal(batch.inputs, batch.gather_inputs(features))
            assert batch.input_features(features) is batch.inputs
            count += 1
        assert count == len(loader)

    def test_fetch_stage_disabled_by_default_and_by_none(self, sbm_graph, rng):
        features = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        loader = self._loader(sbm_graph, num_workers=1)
        for batch in loader.iter_epoch(1):
            assert batch.inputs is None
            np.testing.assert_array_equal(batch.input_features(features),
                                          batch.gather_inputs(features))
        loader.set_features(features)
        assert all(b.inputs is not None for b in loader.iter_epoch(1))
        loader.set_features(None)
        assert all(b.inputs is None for b in loader.iter_epoch(1))
