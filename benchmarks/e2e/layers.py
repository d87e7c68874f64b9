"""The traced run: per-layer metrics from spans recorded in the benchmark's own files.

Nothing inside ``src/`` is instrumented.  Where an op is one library call
(``DistributedTrainer.run()``, ``FullBatchTrainer.train()``) the benchmark
repeats the same step with the *public* calls the trainer makes and puts a span
around each (the "replica"); ``harness.trace_coverage`` — top-level replica
spans over the untraced op median — says how much of the op the replica
explains.  The serving ops are already a sequence of public calls, so their
spans sit in ``workloads.py`` behind the ``span`` hook.

``PER_LAYER`` is the catalogue: unit, direction, and which end-to-end metric on
which workload each per-layer metric is expected to move (written down before
measuring — README "How the metrics interact").  A metric that does not apply
to the workload being run reads 0: the layer is bypassed there.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Dict, List

import numpy as np

import harness
from repro.core import SARConfig
from repro.core.dist_graph import DistributedGraph
from repro.core.grad_sync import broadcast_parameters, sync_gradients
from repro.distributed import run_distributed
from repro.graph.mfg import build_mfg_pipeline
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample.inference import LayerWiseInference, distributed_layerwise_logits
from repro.sample.loader import MiniBatchDataLoader, epoch_seed_order
from repro.sample.neighbor import NeighborSampler
from repro.serving import ServingConfig, create_server
from repro.store import as_feature_store
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F
from repro.tensor.edge_plan import shared_plan_cache
from repro.tensor.memory import active_tracker
from repro.tensor.optim import Adam
from repro.training.metrics import distributed_mean_loss, evaluation_report

#: reference-machine seconds of ops a traced run is sized for
TRACE_SECONDS = 6.0

SAR, SAMPLED, COLD, HOT = ("train_sar_gat_w2", "train_sampled_sage_w1",
                           "serve_cold_mp2", "serve_hot_local")
TRAIN, SERVE, EVERY = (SAR, SAMPLED), (COLD, HOT), (SAR, SAMPLED, COLD, HOT)


def _m(unit, better, moves, on):
    return {"unit": unit, "better": better, "moves": moves, "on": list(on)}


PER_LAYER: Dict[str, dict] = {
    # exact counts a user would call end-to-end; they sit here because they are
    # 0 on the workloads that bypass the layer, and a gated metric may never be 0
    "tensor.peak_tensor_mb": _m("MB", "lower", "peak_rss_mb", TRAIN),
    "distributed.wire_mb_per_op": _m("MB", "lower", "op_ms_p50", (SAR, COLD)),
    "harness.fail_ratio": _m("ratio", "lower", "ops_per_s", EVERY),
    # set-up
    "datasets.generate_ms": _m("ms", "lower", "setup_s", EVERY),
    "partition.partition_ms": _m("ms", "lower", "setup_s", (SAR, COLD)),
    "partition.shard_ms": _m("ms", "lower", "setup_s", (SAR, COLD)),
    "partition.edge_cut_ratio": _m("ratio", "lower", "op_ms_p50", (SAR, COLD)),
    "serving.start_ms": _m("ms", "lower", "setup_s", SERVE),
    "serving.stop_ms": _m("ms", "lower", "setup_s", SERVE),
    # full-batch SAR step (rank 0 of the replica)
    "core.graph_build_ms": _m("ms", "lower", "op_ms_p50", (SAR,)),
    "training.run_fixed_ms": _m("ms", "lower", "op_ms_p50", (SAR,)),
    "nn.forward_ms": _m("ms", "lower", "op_ms_p50", TRAIN),
    "tensor.backward_ms": _m("ms", "lower", "op_ms_p50", TRAIN),
    "core.grad_sync_ms": _m("ms", "lower", "op_ms_p50", (SAR,)),
    "tensor.optim_step_ms": _m("ms", "lower", "op_ms_p50", TRAIN),
    "sample.dist_eval_ms": _m("ms", "lower", "op_ms_p50", (SAR,)),
    "core.halo_fwd_mb": _m("MB", "lower", "op_ms_p50", (SAR,)),
    "core.refetch_mb": _m("MB", "lower", "op_ms_p50", (SAR,)),
    "core.error_mb": _m("MB", "lower", "op_ms_p50", (SAR,)),
    "core.grad_sync_mb": _m("MB", "lower", "op_ms_p50", (SAR,)),
    "distributed.msgs_per_epoch": _m("count", "lower", "op_ms_p50", (SAR,)),
    "distributed.wait_share": _m("ratio", "lower", "ops_per_s", (SAR,)),
    "core.peak_tensor_mb_sar": _m("MB", "lower", "peak_rss_mb", (SAR,)),
    "core.peak_tensor_mb_dp": _m("MB", "lower", "peak_rss_mb", (SAR,)),
    "core.dp_over_sar_peak": _m("ratio", "higher", "peak_rss_mb", (SAR,)),
    "core.sar_over_dp_epoch": _m("ratio", "lower", "op_ms_p50", (SAR,)),
    "tensor.allocs_per_epoch": _m("count", "lower", "op_ms_p50", (SAR,)),
    "tensor.alloc_mb_per_epoch": _m("MB", "lower", "op_ms_p50", (SAR,)),
    "training.single_worker_epoch_ms": _m("ms", "lower", "op_ms_p50", (SAR,)),
    # sampled mini-batch step
    "sample.sample_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED,)),
    "sample.compact_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED,)),
    "store.gather_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED, COLD, HOT)),
    "sample.loader_wait_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED,)),
    "sample.layerwise_eval_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED,)),
    "nn.full_eval_ms": _m("ms", "lower", "op_ms_p50", (SAMPLED,)),
    "sample.layerwise_over_full": _m("ratio", "lower", "op_ms_p50", (SAMPLED,)),
    "sample.edges_per_batch": _m("count", "lower", "op_ms_p50", (SAMPLED,)),
    "sample.input_nodes_per_batch": _m("count", "lower", "op_ms_p50", (SAMPLED,)),
    "tensor.plan_cache_hit_ratio": _m("ratio", "higher", "op_ms_p50", (SAMPLED,)),
    # serving
    "serving.enqueue_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "serving.wait_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "serving.requests_per_batch": _m("count", "higher", "ops_per_s", SERVE),
    "serving.fast_path_ratio": _m("ratio", "higher", "op_ms_p50", (HOT,)),
    "serving.frontier_l0_ratio": _m("ratio", "lower", "op_ms_p50", (HOT,)),
    "serving.frontier_l1_ratio": _m("ratio", "higher", "op_ms_p50", (HOT,)),
    "serving.cache_hit_ratio": _m("ratio", "higher", "op_ms_p50", (HOT,)),
    "serving.cache_mb": _m("MB", "lower", "peak_rss_mb", (HOT,)),
    "serving.update_ms": _m("ms", "lower", "ops_per_s", (HOT,)),
    "serving.post_update_burst_ms": _m("ms", "lower", "ops_per_s", (HOT,)),
    "store.kv_hit_ratio": _m("ratio", "higher", "op_ms_p50", (COLD,)),
    "distributed.serve_halo_kb_per_burst": _m("KB", "lower", "op_ms_p50", (COLD,)),
    "distributed.serve_frontier_kb_per_burst": _m("KB", "lower", "op_ms_p50", (COLD,)),
    "distributed.child_peak_rss_mb": _m("MB", "lower", "peak_rss_mb", (COLD,)),
    "graph.mfg_build_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "nn.forward_layer_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "serving.cold_local_burst_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "serving.frontend_overhead_ms": _m("ms", "lower", "op_ms_p50", SERVE),
    "serving.mp_over_local": _m("ratio", "lower", "op_ms_p50", (COLD,)),
    # the harness itself
    "harness.machine_factor": _m("ratio", "lower", "op_ms_p50", EVERY),
    "harness.calib_cv": _m("ratio", "lower", "op_ms_p50", EVERY),
    "harness.raw_op_ms_p50": _m("ms", "lower", "op_ms_p50", EVERY),
    "harness.raw_op_ms_tail": _m("ms", "lower", "ops_per_s", EVERY),
    "harness.op_samples": _m("count", "higher", "op_ms_p50", EVERY),
    "harness.trace_coverage": _m("ratio", "higher", "op_ms_p50", EVERY),
    "harness.trace_overhead": _m("ratio", "lower", "op_ms_p50", EVERY),
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _top_level_ms(recorder, **match) -> Dict[int, float]:
    """Per traced op: the sum of its parentless spans (on the matching thread)."""
    totals: Dict[int, float] = {}
    for s in recorder.spans:
        if (s["op"] is not None and s["parent"] is None and s["end"] is not None
                and all(s["args"].get(k) == v for k, v in match.items())):
            totals[s["op"]] = totals.get(s["op"], 0.0) + (s["end"] - s["start"]) * 1e3
    return totals


def _traced_setup(workload, recorder) -> None:
    """Set-up with the workload's span hook recording, then the (untimed) oracle."""
    workload.span = recorder.span
    workload.setup()
    workload.span = type(workload).span
    workload.prepare_reference()


def _normalised_median(calibrator, intervals) -> float:
    return _median(harness.normalise(intervals, calibrator.times, calibrator.values))


def _common(recorder, calibrator, values, untraced, traced, failed, attempted, **match):
    """``harness.*`` and set-up metrics shared by the four traces.

    ``traced[op]`` is the interval of traced op ``op``; ``match`` picks the
    thread whose top-level spans are summed for the coverage.
    """
    raw = harness.summarise([(end - start) * 1e3 for start, end in untraced])
    untraced_p50 = _normalised_median(calibrator, untraced)
    traced_p50 = _normalised_median(calibrator, traced)
    span_ms = _top_level_ms(recorder, **match)
    covered = _median(
        span_ms.get(op, 0.0) / calibrator.factor(start, end)
        for op, (start, end) in enumerate(traced)
    )
    values.update({
        "harness.fail_ratio": failed / attempted,
        "harness.machine_factor": calibrator.overall_factor(),
        "harness.calib_cv": calibrator.cv(),
        "harness.raw_op_ms_p50": raw["p50_ms"],
        "harness.raw_op_ms_tail": raw["tail_ms"],
        "harness.op_samples": raw["samples"],
        "harness.trace_coverage": covered / untraced_p50,
        "harness.trace_overhead": traced_p50 / untraced_p50 - 1.0,
    })
    for name, metric in (("datasets.generate", "datasets.generate_ms"),
                         ("partition.partition", "partition.partition_ms"),
                         ("partition.shard", "partition.shard_ms"),
                         ("serving.start", "serving.start_ms")):
        durations = recorder.durations_ms(name)
        if durations:
            values[metric] = _median(durations)


def _edge_cut_ratio(graph, assignment) -> float:
    assignment = np.asarray(assignment)
    return float(np.mean(assignment[graph.src] != assignment[graph.dst]))


def _pairs(workload) -> int:
    """Traced runs alternate an untraced op with a traced one; this many of each."""
    return max(1, workload.num_ops // 2)


# --------------------------------------------------------------------------- #
# train_sar_gat_w2: replica of distributed_train_worker's full-batch step
# --------------------------------------------------------------------------- #
def _sar_replica_worker(rank, comm, shard, *, recorder, workload, sar_config, num_epochs):
    span = functools.partial(recorder.span, rank=rank)
    config = workload.config
    with span("core.graph_build"):
        dist_graph = DistributedGraph(shard, comm, sar_config)
    with span("nn.model_init"):
        model = workload.model_factory(workload.dataset.feature_dim)
        model.set_comm(comm)
    with span("core.broadcast"):
        broadcast_parameters(model.parameters(), comm)
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    features, labels = shard.node_data["feat"], shard.node_data["label"]
    masks = {name: shard.node_data[f"{name}_mask"] for name in ("train", "val", "test")}
    train_mask = np.asarray(masks["train"], dtype=bool)
    local_count = int(train_mask.sum())
    tracker = active_tracker()
    epochs: List[dict] = []
    before = comm.stats.snapshot()
    for epoch in range(num_epochs):
        allocs, alloc_bytes = tracker.num_allocations, tracker.total_allocated_bytes
        cpu = time.thread_time()
        with span("training.epoch", epoch=epoch) as record:
            model.train()
            dist_graph.begin_step()
            with span("nn.forward"):
                logits = model(dist_graph, Tensor(features))
                loss = F.cross_entropy(logits[train_mask], labels[train_mask], reduction="sum")
            model.zero_grad()
            with span("tensor.backward"):
                loss.backward()
            with span("core.grad_sync"):
                global_count = comm.allreduce_scalar(float(local_count))
                sync_gradients(model.parameters(), comm, scale=1.0 / max(global_count, 1.0))
            with span("tensor.optim_step"):
                optimizer.step()
            mean_loss = distributed_mean_loss(float(loss.data), local_count, comm)
        # The snapshot sits between two collectives, so a peer can neither be
        # behind (the loss allreduce) nor ahead (the barrier) of this epoch:
        # the per-epoch byte counts are exact.
        after = comm.stats.snapshot()
        comm.barrier()
        epochs.append({
            "wall_s": record["end"] - record["start"],
            "cpu_s": time.thread_time() - cpu,
            "allocs": tracker.num_allocations - allocs,
            "alloc_bytes": tracker.total_allocated_bytes - alloc_bytes,
            "comm": {key: after[key] - before.get(key, 0) for key in after},
        })
        before = comm.stats.snapshot()
    with span("sample.dist_eval"):
        model.eval()
        eval_logits = distributed_layerwise_logits(dist_graph, model, features,
                                                   batch_size=config.eval_batch_size)
        report = evaluation_report(eval_logits, labels, masks, comm)
        model.train()
    return {"loss": mean_loss, "test": report["test"], "epochs": epochs}


def _run_sar_replica(workload, recorder, sar_config, num_epochs):
    return run_distributed(
        _sar_replica_worker, workload.NUM_WORKERS, worker_args=workload.trainer.shards,
        timeout_s=workload.trainer.timeout_s, recorder=recorder, workload=workload,
        sar_config=sar_config, num_epochs=num_epochs,
    )


def _trace_sar(workload, recorder, calibrator):
    values: Dict[str, float] = {}
    _traced_setup(workload, recorder)
    graph = workload.dataset.graph
    # the trainer partitions inside its constructor; the same two public calls, apart
    with recorder.span("partition.partition"):
        assignment = partition_graph(graph, workload.NUM_WORKERS, seed=workload.trainer.partition_seed)
    with recorder.span("partition.shard"):
        create_shards(graph, PartitionBook(assignment, workload.NUM_WORKERS))
    values["partition.edge_cut_ratio"] = _edge_cut_ratio(graph, workload.trainer.book.assignment)
    values["training.single_worker_epoch_ms"] = workload.single_worker_epoch_ms

    pairs = _pairs(workload)
    untraced, traced, runs, failed = [], [], [], 0
    for op in range(pairs):
        # real op and replica alternate, so host drift hits both alike
        intervals, op_failed = harness.measure(workload, calibrator, op, 1)
        untraced += intervals
        failed += op_failed
        recorder.op = op
        start = time.perf_counter()
        run = _run_sar_replica(workload, recorder, workload.sar_config, workload.EPOCHS)
        end = time.perf_counter()
        traced.append((start, end))
        runs.append(run)
        failed += not workload.matches_reference(run.results[0]["loss"], run.results[0]["test"])
        calibrator.after(end - start)
    cluster = workload.last_result.cluster
    values["tensor.peak_tensor_mb"] = max(cluster.peak_memory_mb)
    values["distributed.wire_mb_per_op"] = cluster.total_bytes_communicated / 2**20
    recorder.op = None
    # one short domain-parallel pass: the paper's headline memory/time ratio
    dp = _run_sar_replica(workload, harness.SpanRecorder(), SARConfig("dp"), 2)

    def rank0(name):
        return recorder.durations_ms(name, rank=0)

    for name, metric in (("core.graph_build", "core.graph_build_ms"),
                         ("nn.forward", "nn.forward_ms"),
                         ("tensor.backward", "tensor.backward_ms"),
                         ("core.grad_sync", "core.grad_sync_ms"),
                         ("tensor.optim_step", "tensor.optim_step_ms"),
                         ("sample.dist_eval", "sample.dist_eval_ms")):
        values[metric] = _median(rank0(name))
    values["training.run_fixed_ms"] = _median(
        (end - start) * 1e3 - sum(e["wall_s"] for e in run.results[0]["epochs"]) * 1e3 - eval_ms
        for (start, end), run, eval_ms in zip(traced, runs, rank0("sample.dist_eval"))
    )
    last = runs[-1]
    epoch = [worker["epochs"][-1] for worker in last.results]  # steady state: plans cached

    def received_mb(tag):
        return sum(e["comm"].get(f"recv:{tag}", 0) for e in epoch) / 2**20

    values["core.halo_fwd_mb"] = received_mb("forward_halo")
    values["core.refetch_mb"] = received_mb("backward_refetch")
    values["core.error_mb"] = received_mb("backward_error")
    values["core.grad_sync_mb"] = received_mb("grad_sync")
    values["distributed.msgs_per_epoch"] = sum(e["comm"]["messages_sent"] for e in epoch)
    rank0_epochs = [e for run in runs for e in run.results[0]["epochs"]]
    values["distributed.wait_share"] = 1.0 - (
        sum(e["cpu_s"] for e in rank0_epochs) / sum(e["wall_s"] for e in rank0_epochs)
    )
    values["tensor.allocs_per_epoch"] = epoch[0]["allocs"]
    values["tensor.alloc_mb_per_epoch"] = epoch[0]["alloc_bytes"] / 2**20
    values["core.peak_tensor_mb_sar"] = max(last.peak_memory_mb)
    values["core.peak_tensor_mb_dp"] = max(dp.peak_memory_mb)
    values["core.dp_over_sar_peak"] = max(dp.peak_memory_mb) / max(last.peak_memory_mb)
    values["core.sar_over_dp_epoch"] = (
        _median(e["wall_s"] for e in rank0_epochs)
        / _median(e["wall_s"] for e in dp.results[0]["epochs"])
    )
    attempted = 2 * pairs
    _common(recorder, calibrator, values, untraced, traced, failed, attempted, rank=0)
    return values, failed, attempted


# --------------------------------------------------------------------------- #
# train_sampled_sage_w1: replica of FullBatchTrainer's sampled epoch + evaluation
# --------------------------------------------------------------------------- #
def _sampled_replica(workload, recorder):
    """One op with public calls: 5 sampled steps on the real loader, then evaluation."""
    span = recorder.span
    dataset, config = workload.dataset, workload.config
    scfg = config.sampler
    model = workload.new_model()
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    sampler = NeighborSampler(dataset.graph, scfg.fanouts, replace=scfg.replace,
                              seed=config.resolved_sampler_seed())
    loader = MiniBatchDataLoader(sampler, dataset.train_indices(), batch_size=scfg.batch_size,
                                 shuffle=scfg.shuffle, drop_last=scfg.drop_last,
                                 num_workers=scfg.num_workers,
                                 max_resident=scfg.max_resident_batches)
    loader.set_features(dataset.features)
    train_mask = np.asarray(dataset.train_mask, dtype=bool)
    model.train()
    batches = loader.iter_epoch(1)
    total_loss, total_count = 0.0, 0
    while True:
        with span("sample.loader_wait"):
            batch = next(batches, None)
        if batch is None:
            break
        with span("nn.forward"):
            logits = model(batch.pipeline, Tensor(batch.input_features(dataset.features)))
            mask = train_mask[batch.seeds]
            loss = F.cross_entropy(logits[mask], dataset.labels[batch.seeds][mask],
                                   reduction="sum")
        count = max(int(mask.sum()), 1)
        model.zero_grad()
        with span("tensor.backward"):
            loss.backward()
        with span("tensor.optim_step"):
            for param in model.parameters():
                if param.grad is not None:
                    param.grad /= count
            optimizer.step()
        total_loss += float(loss.data)
        total_count += int(mask.sum())
    with span("sample.layerwise_eval"):
        model.eval()
        with no_grad():
            logits = LayerWiseInference(model, dataset.graph,
                                        batch_size=config.eval_batch_size).run(dataset.features)
        masks = {"train": dataset.train_mask, "val": dataset.val_mask, "test": dataset.test_mask}
        report = evaluation_report(logits, dataset.labels, masks)
    return model, total_loss / max(total_count, 1), report["test"]


def _trace_sampled(workload, recorder, calibrator):
    values: Dict[str, float] = {}
    _traced_setup(workload, recorder)
    pairs = _pairs(workload)
    untraced, traced, failed = [], [], 0
    hits = misses = 0
    for op in range(pairs):
        intervals, op_failed = harness.measure(workload, calibrator, op, 1)
        untraced += intervals
        failed += op_failed
        recorder.op = op
        plan_before = shared_plan_cache().stats()
        start = time.perf_counter()
        model, loss, accuracy = _sampled_replica(workload, recorder)
        end = time.perf_counter()
        plan_after = shared_plan_cache().stats()
        hits += plan_after["hits"] - plan_before["hits"]
        misses += plan_after["misses"] - plan_before["misses"]
        traced.append((start, end))
        failed += not workload.matches_reference(loss, accuracy)
        calibrator.after(end - start)
    values["tensor.peak_tensor_mb"] = workload.peak_tensor_mb
    recorder.op = None
    values["tensor.plan_cache_hit_ratio"] = hits / max(hits + misses, 1)

    # the loader's stages run one at a time, so each stage's own cost shows
    dataset, config = workload.dataset, workload.config
    scfg = config.sampler
    sampler = NeighborSampler(dataset.graph, scfg.fanouts, replace=scfg.replace,
                              seed=config.resolved_sampler_seed())
    store = as_feature_store(dataset.features)
    order = epoch_seed_order(sampler.seed, dataset.train_indices(), 1, scfg.shuffle)
    edges, inputs = [], []
    for index in range(0, len(order), scfg.batch_size):
        ids = order[index:index + scfg.batch_size]
        with recorder.span("sample.sample"):
            structure = sampler.sample_structure(ids, epoch=1, batch_index=index // scfg.batch_size)
        with recorder.span("sample.compact"):
            pipeline = sampler.compact(structure)
        with recorder.span("store.gather"):
            store.gather(pipeline.input_nodes)
        edges.append(sum(pipeline.layer_block(i).num_edges for i in range(pipeline.num_layers)))
        inputs.append(len(pipeline.input_nodes))
    full_ms = []
    with no_grad():
        for _ in range(3):
            with recorder.span("nn.full_eval") as record:
                model(dataset.graph, Tensor(dataset.features))
            full_ms.append((record["end"] - record["start"]) * 1e3)

    for name, metric in (("sample.sample", "sample.sample_ms"),
                         ("sample.compact", "sample.compact_ms"),
                         ("store.gather", "store.gather_ms"),
                         ("nn.forward", "nn.forward_ms"),
                         ("tensor.backward", "tensor.backward_ms"),
                         ("tensor.optim_step", "tensor.optim_step_ms"),
                         ("sample.layerwise_eval", "sample.layerwise_eval_ms")):
        values[metric] = _median(recorder.durations_ms(name))
    # mean, not median: the wait is the first batch's, the prefetched rest are ~0
    values["sample.loader_wait_ms"] = statistics.fmean(recorder.durations_ms("sample.loader_wait"))
    values["nn.full_eval_ms"] = _median(full_ms)
    values["sample.layerwise_over_full"] = values["sample.layerwise_eval_ms"] / values["nn.full_eval_ms"]
    values["sample.edges_per_batch"] = statistics.fmean(edges)
    values["sample.input_nodes_per_batch"] = statistics.fmean(inputs)
    attempted = 2 * pairs
    _common(recorder, calibrator, values, untraced, traced, failed, attempted)
    return values, failed, attempted


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def _counter_delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after = (after or {}).get(key)
        before = (before or {}).get(key)
    return float((after or 0) - (before or 0))


def _cold_local_pass(workload, recorder, calibrator, bursts):
    """The same bursts on a cache-less local server, and one batch of each by hand."""
    dataset, model = workload.dataset, workload.model
    config = ServingConfig(backend="local", byte_budget=None, window_ms=workload.WINDOW_MS,
                           max_batch_seeds=workload.burst)
    store = as_feature_store(dataset.features)
    cold_ms, failed = [], 0
    served = workload.server
    try:
        workload.server = create_server(model, dataset.graph, dataset.features, config).start()
        for ids in workload.warm_stream[:10]:
            workload.send(ids)
        for ids in bursts:
            start = time.perf_counter()
            rows = workload.send(ids)
            cold_ms.append((start, time.perf_counter()))
            calibrator.after(0.0)
            failed += not np.array_equal(np.concatenate(rows), workload.reference[ids])
            seeds = np.unique(ids)
            with no_grad():
                with recorder.span("graph.mfg_build"):
                    pipeline = build_mfg_pipeline(dataset.graph, seeds, model.num_layers)
                with recorder.span("store.gather"):
                    x = Tensor(store.gather(pipeline.input_nodes))
                with recorder.span("nn.forward_layer"):
                    for layer in range(model.num_layers):
                        x = model.forward_layer(layer, pipeline.layer_block(layer), x)
            failed += not np.array_equal(x.data, workload.reference[seeds])
        workload.server.stop()
    finally:
        workload.server = served
    return cold_ms, failed


def _trace_serving(workload, recorder, calibrator):
    values: Dict[str, float] = {}
    _traced_setup(workload, recorder)
    if getattr(workload, "update_after", 0) % 2:
        workload.update_after += 1  # the model push then follows a traced burst
    before = workload.server.stats()
    untraced, traced, failed = [], [], 0
    for index in range(workload.num_ops):
        # even bursts untraced, odd ones traced: cache warmth and host drift hit both alike
        if index % 2:
            workload.span, recorder.op = recorder.span, len(traced)
        intervals, op_failed = harness.measure(workload, calibrator, index, 1)
        (traced if index % 2 else untraced).extend(intervals)
        failed += op_failed
        workload.span, recorder.op = type(workload).span, None
    failed += workload.finish()
    after = workload.server.stats()

    bursts = workload.num_ops
    batches = _counter_delta(after, before, "batches")
    values["serving.requests_per_batch"] = _counter_delta(after, before, "served_requests") / batches
    values["serving.fast_path_ratio"] = _counter_delta(after, before, "fast_path_batches") / batches
    for layer in (0, 1):
        values[f"serving.frontier_l{layer}_ratio"] = (
            _counter_delta(after, before, "frontier_layers", layer) / batches
        )
    cache_hits = _counter_delta(after, before, "embedding_cache", "hits")
    cache_misses = _counter_delta(after, before, "embedding_cache", "misses")
    values["serving.cache_hit_ratio"] = cache_hits / max(cache_hits + cache_misses, 1.0)
    values["serving.cache_mb"] = ((after.get("embedding_cache") or {}).get("current_bytes", 0)) / 2**20
    kv_hits = _counter_delta(after, before, "feature_store", "cache_hits")
    kv_misses = _counter_delta(after, before, "feature_store", "cache_misses")
    values["store.kv_hit_ratio"] = kv_hits / max(kv_hits + kv_misses, 1.0)
    if after["workers"]:
        def received(key):
            return sum(
                _counter_delta(a, b, "comm", key)
                for a, b in zip(after["workers"], before["workers"])
            )
        halo, frontier = received("halo_bytes_received"), received("frontier_bytes_received")
        fetched = _counter_delta(after, before, "feature_store", "bytes_fetched")
        values["distributed.serve_halo_kb_per_burst"] = halo / 1024 / bursts
        values["distributed.serve_frontier_kb_per_burst"] = frontier / 1024 / bursts
        # received side: an mp fetch cannot update the owner's sent counters
        values["distributed.wire_mb_per_op"] = (halo + frontier + fetched) / 2**20 / bursts
        values["partition.edge_cut_ratio"] = _edge_cut_ratio(workload.dataset.graph,
                                                             workload.assignment)
    values["serving.enqueue_ms"] = _median(recorder.durations_ms("serving.enqueue"))
    values["serving.wait_ms"] = _median(recorder.durations_ms("serving.wait"))
    if recorder.durations_ms("serving.update"):
        values["serving.update_ms"] = _median(recorder.durations_ms("serving.update"))
        pushed = workload.update_after // 2
        values["serving.post_update_burst_ms"] = _normalised_median(
            calibrator, traced[pushed:pushed + 25])

    cold_count = min(workload.num_ops, 150)
    cold, cold_failed = _cold_local_pass(workload, recorder, calibrator,
                                         workload.stream[:cold_count])
    failed += cold_failed
    for name, metric in (("graph.mfg_build", "graph.mfg_build_ms"),
                         ("store.gather", "store.gather_ms"),
                         ("nn.forward_layer", "nn.forward_layer_ms")):
        values[metric] = _median(recorder.durations_ms(name))
    cold_raw = _median((end - start) * 1e3 for start, end in cold)
    values["serving.cold_local_burst_ms"] = _normalised_median(calibrator, cold)
    values["serving.frontend_overhead_ms"] = cold_raw - sum(
        values[m] for m in ("graph.mfg_build_ms", "store.gather_ms", "nn.forward_layer_ms"))
    if after["workers"]:
        values["serving.mp_over_local"] = (
            _normalised_median(calibrator, untraced) / values["serving.cold_local_burst_ms"])

    workload.span = recorder.span
    workload.teardown()
    workload.span = type(workload).span
    values["serving.stop_ms"] = _median(recorder.durations_ms("serving.stop"))
    if after["workers"]:
        values["distributed.child_peak_rss_mb"] = harness.peak_rss_mb()[1]
    attempted = bursts + 2 * cold_count
    _common(recorder, calibrator, values, untraced, traced, failed, attempted)
    return values, failed, attempted


def trace(workload, recorder, calibrator):
    """Run the traced pass of ``workload``; returns ``(values, failed, attempted)``."""
    tracer = {SAR: _trace_sar, SAMPLED: _trace_sampled}.get(workload.name, _trace_serving)
    return tracer(workload, recorder, calibrator)
