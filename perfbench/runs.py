"""One benchmark run per workload: untraced (end-to-end) or traced (per layer).

The untraced run reports the end-to-end metrics.  The traced run repeats
the same phases on the same inputs with :class:`layers.Tracer` installed,
after timing a few full rounds untraced and then traced to state the
tracing overhead; it then times a fresh set-up and an index load under the
tracer, and finally the dense floor.  The floor never runs in an untraced
run, so it cannot move ``peak_rss_mb``.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import tempfile
from collections import deque

import numpy as np

from inputs import REQUEST_ROWS, TOP_K, Inputs, Workload
from layers import Spans, Tracer
from oracle import check_sample, same_topk
from phases import (
    SETUP_REPEATS,
    BatchRounds,
    Churn,
    ClosedLoopRequests,
    Report,
    check_round,
    churn_phase,
    clock,
    expected_request,
    fit_and_warm,
    full_round,
    interleave,
    median_ms,
    pass_counters,
    peak_rss_mb,
    stats_delta,
    stats_snapshot,
    tail_ms,
    timed,
)
from repro import RetrievalEngine, TopKResult
from repro.baselines.naive import NaiveRetriever
from repro.serve import ServingEngine

#: Untraced and traced full rounds compared for the tracing overhead.
OVERHEAD_ROUNDS = 2
#: A served run whose arrivals are this late (p99, seconds) is invalid.
MAX_GENERATOR_LATENESS_S = 0.025
#: Query rows per block of the dense floor (bounds its score block).
FLOOR_BLOCK_ROWS = 32


def run(workload: Workload, inputs: Inputs, seconds: float, trace: bool,
        scratch_root) -> Report:
    """Run ``workload`` once; the traced run also fills ``report.layers``."""
    tracer = Tracer() if trace else None
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root)
    try:
        if workload.served:
            report = asyncio.run(_served(workload, inputs, seconds, tracer, scratch))
        else:
            report = _offline(workload, inputs, seconds, tracer, scratch)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        dense_floor(report, inputs)
        layer_metrics(report, Spans(tracer), tracer, workload, inputs)
        tracer.save(f"{scratch_root}/{workload.name}-spans.npz")
    return report


# ----------------------------------------------------------------- offline


def _offline(workload: Workload, inputs: Inputs, seconds: float, tracer, scratch) -> Report:
    report = Report()
    times, engine, references = [], None, None
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        engine = None
        gc.collect()
        start = clock()
        engine, results = fit_and_warm(inputs)
        times.append(clock() - start)
        if references is None:
            references = results
        else:
            # A fresh engine must reproduce the first one's results exactly.
            check_round(report.ledger, results, references, "fresh set-up")
    report.metrics["setup_s"] = statistics.median(times)
    if tracer is not None:
        tracing_overhead(report, engine, inputs, references, tracer)
    steps = [BatchRounds(engine, inputs, references, report.ledger),
             ClosedLoopRequests(engine, inputs, references, report.ledger)]
    shares = [workload.batch_share, workload.request_share]
    interleave(report, engine, steps, shares, sum(shares) * seconds)
    churn_phase(report, engine, inputs, references, workload.churn_share * seconds)
    results, _, _ = full_round(engine, inputs)
    check_round(report.ledger, results, references, "after churn")
    if tracer is not None:
        traced_setup(report, inputs, references, scratch)
    report.metrics["peak_rss_mb"] = peak_rss_mb()
    oracle_checks(report, inputs, references)
    return report


# ------------------------------------------------------------------ served


async def _served(workload: Workload, inputs: Inputs, seconds: float, tracer,
                  scratch) -> Report:
    report = Report()
    built, built_references = fit_and_warm(inputs)
    built.save(scratch)
    del built
    serving = None
    try:
        times = []
        for _ in range(1 if tracer is not None else SETUP_REPEATS):
            if serving is not None:
                await serving.aclose()
            engine = serving = None
            gc.collect()
            start = clock()
            engine = RetrievalEngine.load(scratch, mmap_mode="r")
            serving = ServingEngine(engine, flush_log_limit=None)
            await serving.start()
            references = (engine.row_top_k(inputs.queries, TOP_K),
                          engine.above_theta(inputs.queries, inputs.theta))
            times.append(clock() - start)
            check_round(report.ledger, references, built_references, "loaded engine")
        report.metrics["setup_s"] = statistics.median(times)
        if tracer is not None:
            tracing_overhead(report, engine, inputs, references, tracer)
        interleave(report, engine, [BatchRounds(engine, inputs, references, report.ledger)],
                   [1.0], workload.batch_share * seconds)
        await open_loop_requests(report, engine, serving, inputs, references)
        await served_churn(report, engine, serving, inputs, references,
                           workload.churn_share * seconds)
        results, _, _ = full_round(engine, inputs)
        check_round(report.ledger, results, references, "after churn")
    finally:
        if serving is not None:
            await serving.aclose()
    if tracer is not None:
        traced_setup(report, inputs, references, f"{scratch}/reloaded")
    report.metrics["peak_rss_mb"] = peak_rss_mb()
    oracle_checks(report, inputs, references)
    return report


async def open_loop_requests(report: Report, engine, serving, inputs: Inputs,
                             references) -> None:
    """Send the seeded arrival schedule through the server, open loop."""
    count = inputs.request_due.size
    done = np.zeros(count)
    late = np.zeros(count)
    outputs = [None] * count

    async def request(index: int) -> None:
        first = int(inputs.request_start[index])
        rows = inputs.queries[first:first + REQUEST_ROWS]
        try:
            if inputs.request_topk[index]:
                outputs[index] = await serving.row_top_k(rows, TOP_K)
            else:
                outputs[index] = await serving.above_theta(rows, inputs.theta)
        except Exception as error:  # noqa: BLE001 - shed, timed out or raised: failed
            outputs[index] = error
        done[index] = clock()

    flush_start = len(serving.flushes)
    before = stats_snapshot(engine)
    gc.collect()
    origin = clock() + 0.01
    tasks = []
    for index in range(count):
        due = origin + inputs.request_due[index]
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late[index] = clock() - due
        tasks.append(asyncio.create_task(request(index)))
    await asyncio.gather(*tasks)
    report.add_window("requests", origin, clock(), stats_delta(engine.stats, before))
    report.served = (serving.flushes[flush_start:], origin + inputs.request_due, late)

    for index, result in enumerate(outputs):
        same, expected = expected_request(inputs, index, references)
        report.ledger.check(result, same, expected, f"request {index}")
    lateness = float(np.percentile(late, 99))
    report.ledger.record(lateness <= MAX_GENERATOR_LATENESS_S,
                         f"arrival generator ran {lateness * 1e3:.1f} ms late at p99: "
                         "the run is invalid")
    latency = done - (origin + inputs.request_due)
    report.metrics["p50_ms"] = median_ms(latency)
    report.metrics["p99_ms"] = tail_ms(latency)
    report.counters["requests"] = count
    report.counters["generator_late_ms_p99"] = lateness * 1e3


async def _timed_async(awaitable):
    start = clock()
    try:
        result = await awaitable
    except Exception as error:  # noqa: BLE001 - a raising operation is a failed one
        result = error
    return result, clock() - start


async def served_churn(report: Report, engine, serving, inputs: Inputs, references,
                       budget: float) -> None:
    """Churn cycles after the traffic: writes via ``mutate``, reads served."""
    churn = Churn(engine, inputs, references)
    start = clock()
    while churn.more(start, budget):
        rows = churn.read_rows()
        gc.collect()
        before = stats_snapshot(engine)
        began = clock()
        inserted = await _timed_async(serving.mutate(engine.partial_fit, churn.inserted))
        inserted_read = await _timed_async(serving.row_top_k(rows, TOP_K))
        removed = await _timed_async(serving.mutate(engine.remove, churn.new_ids))
        removed_read = await _timed_async(serving.row_top_k(rows, TOP_K))
        report.add_window("churn", began, clock(), stats_delta(engine.stats, before))
        churn.add_cycle(report.ledger, (inserted, removed), (inserted_read, removed_read))
    churn.finish(report)


# ------------------------------------------------------------ checks, floor


def oracle_checks(report: Report, inputs: Inputs, references) -> None:
    """Dense-oracle checks of the references and the churn reads."""
    rows = inputs.oracle_rows
    report.ledger.oracle(check_sample(inputs.probes, inputs.queries, rows, *references),
                         "full-pool passes vs dense oracle")
    if report.churn is not None:
        report.churn.oracle(report, inputs.probes)


def dense_floor(report: Report, inputs: Inputs) -> None:
    """One blocked dense pass per problem: the floor LEMP is compared with."""
    naive = NaiveRetriever(block_size=FLOOR_BLOCK_ROWS).fit(inputs.probes)
    rows = inputs.queries.shape[0]
    gc.collect()
    _, topk_s = timed(naive.row_top_k, inputs.queries, TOP_K)
    _, above_s = timed(naive.above_theta, inputs.queries, inputs.theta)
    layers = report.layers
    layers["baselines.naive.topk_rows_per_s"] = rows / topk_s
    layers["baselines.naive.above_rows_per_s"] = rows / above_s
    layers["floor_ratio.topk"] = layers["floor.lemp_topk_rows_per_s"] / (rows / topk_s)
    layers["floor_ratio.above"] = layers["floor.lemp_above_rows_per_s"] / (rows / above_s)


# ------------------------------------------------------------------ traced


def tracing_overhead(report: Report, engine, inputs: Inputs, references, tracer) -> None:
    """Time full rounds untraced, install the tracer, time them traced."""
    report.counters.update(pass_counters(engine, inputs))
    rounds = {}
    for traced in (False, True):
        if traced:
            tracer.install()
        times = []
        for _ in range(OVERHEAD_ROUNDS):
            results, topk_s, above_s = full_round(engine, inputs)
            check_round(report.ledger, results, references, "overhead round")
            times.append((topk_s, above_s))
        rounds[traced] = np.median(np.asarray(times), axis=0)
    rows = inputs.queries.shape[0]
    report.layers["floor.lemp_topk_rows_per_s"] = rows / rounds[False][0]
    report.layers["floor.lemp_above_rows_per_s"] = rows / rounds[False][1]
    report.layers["trace.overhead_frac"] = float(rounds[True].sum() / rounds[False].sum() - 1.0)


def traced_setup(report: Report, inputs: Inputs, references, directory) -> None:
    """Fresh fit plus warm passes, then a save and an mmap load, traced."""
    start = clock()
    engine, fresh = fit_and_warm(inputs)
    report.windows["setup"] = [(start, clock())]
    check_round(report.ledger, fresh, references, "traced set-up")
    report.layers["core.tuner.setup_s"] = engine.stats.tuning_seconds
    engine.save(directory)
    start = clock()
    loaded = RetrievalEngine.load(directory, mmap_mode="r")
    report.windows["load"] = [(start, clock())]
    rows = inputs.oracle_rows
    expected = TopKResult(references[0].indices[rows], references[0].scores[rows], TOP_K)
    report.ledger.check(loaded.row_top_k(inputs.queries[rows], TOP_K), same_topk, expected,
                        "reloaded engine Row-Top-k")


def _per_krow(value: float, rows: int) -> float:
    return value * 1000.0 / max(rows, 1)


def layer_metrics(report: Report, spans: Spans, tracer: Tracer, workload: Workload,
                  inputs: Inputs) -> None:
    """Per-layer numbers from the spans and counters of the traced run."""
    layers = report.layers
    solve_phase = "requests" if workload.served else "batch"
    window = report.windows[solve_phase]
    delta = report.deltas[solve_phase]
    rows = delta["num_queries"]

    examined, pruned = delta["buckets_examined"], delta["buckets_pruned"]
    layers["core.thresholds.pruned_frac"] = pruned / max(examined + pruned, 1)
    layers["core.retrievers.candidates_per_row"] = delta["candidates"] / max(rows, 1)
    layers["core.kernels.inner_products"] = _per_krow(delta["inner_products"], rows)
    layers["core.kernels.hit_frac"] = delta["results"] / max(delta["inner_products"], 1)
    for name, metric in (("core.thresholds", "core.thresholds.self_s"),
                         ("core.kernels.verify", "core.kernels.verify_s"),
                         ("core.solver", "core.solver.self_s"),
                         ("core.lemp", "core.lemp.self_s")):
        layers[metric] = _per_krow(spans.total(name, window), rows)
    layers["core.kernels.verify_calls"] = _per_krow(
        spans.count("core.kernels.verify", window), rows)
    for kind in ("length", "incr"):
        name = f"core.retrievers.{kind}"
        layers[f"{name}_s"] = _per_krow(spans.total(name, window, "core.solver"), rows)
        layers[f"{name}_calls"] = _per_krow(spans.count(name, window, "core.solver"), rows)
    facade = spans.select("engine.facade", window)
    facade_s = float(spans.duration[facade].sum())
    layers["engine.facade.overhead_s"] = float(spans.self_time[facade].sum()) / max(facade.sum(), 1)
    accounted = (float(spans.self_time[facade].sum())
                 + sum(spans.total(name, window) for name in (
                     "core.lemp", "core.solver", "core.thresholds", "core.kernels.verify"))
                 + spans.total("core.tuner", window, own=False)
                 + sum(spans.total(f"core.retrievers.{kind}", window, "core.solver")
                       for kind in ("length", "incr")))
    layers["trace.accounted_frac"] = accounted / facade_s if facade_s else 0.0

    setup = report.windows["setup"]
    layers["core.bucketize.s"] = spans.total("core.bucketize", setup, own=False)
    layers["engine.persistence.load_s"] = spans.total(
        "engine.persistence.load", report.windows["load"], own=False)

    churn_window = report.windows["churn"]
    cycles = report.churn.cycles
    layers["core.vector_store.merge_s"] = spans.total(
        "core.vector_store.merge", churn_window, own=False) / cycles
    layers["core.vector_store.delete_s"] = spans.total(
        "core.vector_store.delete", churn_window, own=False) / cycles
    layers["core.tuner.churn_s"] = report.deltas["churn"]["tuning_seconds"] / cycles
    layers["core.tuning_cache.hit_frac"] = report.counters["churn_tuning_hit_frac"]

    serve_layers(report, spans, workload, inputs)
    layers["python.gc_s"] = tracer.gc_seconds(
        [interval for phase in ("batch", "requests", "churn")
         for interval in report.windows.get(phase, [])])
    for name, value in report.counters.items():
        if name.split("_")[0] in ("topk", "above"):
            layers[f"core.counters.{name}"] = float(value)


def serve_layers(report: Report, spans: Spans, workload: Workload, inputs: Inputs) -> None:
    """Queue wait, solve time and batching of the request phase."""
    layers = report.layers
    window = report.windows["requests"]
    busy_span = sum(end - start for start, end in window)
    facade = spans.select("engine.facade", window) & (spans.parent_pos < 0)
    order = np.argsort(spans.start[facade])
    solve_start = spans.start[facade][order]
    solve_s = spans.duration[facade][order]
    if workload.served:
        flushes, due, late = report.served
        queues: dict = {}
        for index, topk in enumerate(inputs.request_topk.tolist()):
            queues.setdefault(topk, deque()).append(index)
        if len(flushes) != solve_start.size:
            raise RuntimeError(f"{len(flushes)} flushes but {solve_start.size} engine calls")
        # One engine call per flush, in flush order; a flush takes its key's
        # requests in submission order.
        served_at = np.empty(due.size)
        for flush, started in zip(flushes, solve_start):
            queue = queues[flush.key.problem == "row_top_k"]
            for _ in range(flush.num_requests):
                served_at[queue.popleft()] = started
        wait = served_at - due
        rows = [flush.num_rows for flush in flushes]
        timer = sum(flush.reason == "timer" for flush in flushes) / max(len(flushes), 1)
        lateness = np.percentile(late, 99)
    else:
        # Closed loop: each request is sent when the previous one returns and
        # is its own batch, so nothing queues, batches or runs late.
        wait = np.zeros(solve_start.size)
        rows = [REQUEST_ROWS]
        timer = 0.0
        lateness = 0.0
    layers["serve.wait_ms_p50"] = float(np.percentile(wait, 50) * 1e3)
    layers["serve.wait_ms_p99"] = float(np.percentile(wait, 99) * 1e3)
    layers["serve.solve_ms_p50"] = float(np.median(solve_s) * 1e3)
    layers["serve.solver_busy_frac"] = float(solve_s.sum() / busy_span)
    layers["serve.batch_rows_mean"] = float(np.mean(rows))
    layers["serve.timer_flush_frac"] = float(timer)
    layers["serve.generator_late_ms_p99"] = float(lateness * 1e3)

