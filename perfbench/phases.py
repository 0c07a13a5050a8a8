"""The timed phases of every workload, and the checks on their outputs.

A run sets the index up several times (``setup_s`` is the median), then
spends ``--seconds`` on its phases:

* **batch** (offline workloads): full passes over the query pool, one
  Row-Top-k and one Above-θ pass per round, each pass timed on its own;
* **requests**: 4-row requests, 70 % Row-Top-k and 30 % Above-θ.  Offline
  workloads send them as one caller, back to back, straight to the
  :class:`~repro.RetrievalEngine` (closed loop), in chunks interleaved with
  the batch rounds, so a slow spell of the machine touches both alike.
  ``serve-mixed`` sends them through a :class:`~repro.serve.ServingEngine`
  at seeded Poisson arrival times (open loop) and times each from when it
  was due;
* **churn**, last: net-zero cycles of ``partial_fit`` of a fixed row batch,
  a Row-Top-k read, ``remove`` of the same ids, and another read.  The
  index returns to identical content after every cycle, but its rebuilt
  buckets must be tuned again, which is why churn runs after the reads.

Every operation's output is compared, outside the timed regions, with a
reference that the dense oracle checks on a seeded row sample.
"""

from __future__ import annotations

import copy
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import CHURN_BLOCKS, REQUEST_ROWS, SPEC, TOP_K, Inputs
from oracle import above_rows, check_topk, same_above, same_topk, topk_rows
from repro import RetrievalEngine, TopKResult

clock = time.perf_counter

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Least requests per slice of the tail percentile (see :func:`tail_ms`).
TAIL_SLICE = 1000
#: Requests per chunk of the closed-loop request phase.  Large enough that
#: the first request after a batch round, which finds cold caches, stays
#: well below 1 % of the requests and out of the tail percentile.
REQUEST_CHUNK = 200
#: Rows of each churn block's read after insert checked by the dense oracle.
CHURN_ORACLE_ROWS = 4
#: Counters that must repeat exactly between passes of one problem.
COUNTERS = ("candidates", "inner_products", "buckets_examined")
#: RunStats fields accumulated per phase.
STATS_FIELDS = ("num_queries", "candidates", "results", "inner_products",
                "buckets_examined", "buckets_pruned", "tuning_seconds")


def timed(function, *args):
    """Call ``function``; return its result (or the exception) and seconds."""
    start = clock()
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - a raising operation is a failed one
        result = error
    return result, clock() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_ms(latencies) -> float:
    return float(np.median(latencies) * 1e3)


def tail_ms(latencies) -> float:
    """The 99th percentile, as a median over consecutive request slices.

    Each slice holds at least :data:`TAIL_SLICE` requests, so at least ten
    lie beyond its 99th percentile; the median over slices keeps a slow
    spell of the machine during one slice from setting the run's tail.
    """
    values = np.asarray(latencies)
    slices = np.array_split(values, max(1, values.size // TAIL_SLICE))
    return float(np.median([np.percentile(part, 99) for part in slices]) * 1e3)


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, result, same, reference, what: str) -> None:
        """One operation: failed if it raised or differs from ``reference``."""
        if isinstance(result, Exception):
            self.record(False, f"{what} raised {result!r}")
        else:
            self.record(same(result, reference), f"{what} differs from its reference")

    def oracle(self, failures: list, what: str) -> None:
        self.record(not failures, f"{what}: {'; '.join(failures[:3])}")


@dataclass
class Report:
    """What one run measured."""

    ledger: Ledger = field(default_factory=Ledger)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: Phase name -> the time intervals it ran in.
    windows: dict = field(default_factory=dict)
    #: Phase name -> RunStats counters accumulated while it ran.
    deltas: dict = field(default_factory=dict)
    churn: object = None
    #: Served runs: (flush records, absolute due times, lateness) of the
    #: request phase.
    served: tuple | None = None

    def add_window(self, phase: str, start: float, end: float, delta: dict) -> None:
        self.windows.setdefault(phase, []).append((start, end))
        total = self.deltas.setdefault(phase, dict.fromkeys(STATS_FIELDS, 0))
        for name in STATS_FIELDS:
            total[name] += delta[name]


def stats_snapshot(engine):
    return copy.deepcopy(engine.stats)


def stats_delta(after, before) -> dict:
    return {name: getattr(after, name) - getattr(before, name) for name in STATS_FIELDS}


def expected_request(inputs: Inputs, index: int, references):
    """Reference output of request ``index``: a slice of the full-pool pass."""
    start = int(inputs.request_start[index])
    stop = start + REQUEST_ROWS
    if inputs.request_topk[index]:
        return same_topk, topk_rows(references[0], start, stop)
    return same_above, above_rows(references[1], start, stop)


# ----------------------------------------------------------------- set-up


def fit_and_warm(inputs: Inputs):
    """Fit a fresh engine and run one full warm pass of each problem."""
    engine = RetrievalEngine(SPEC, seed=0).fit(inputs.probes)
    topk = engine.row_top_k(inputs.queries, TOP_K)
    above = engine.above_theta(inputs.queries, inputs.theta)
    return engine, (topk, above)


def full_round(engine, inputs: Inputs):
    """One timed Row-Top-k pass and one timed Above-θ pass."""
    gc.collect()
    topk, topk_s = timed(engine.row_top_k, inputs.queries, TOP_K)
    above, above_s = timed(engine.above_theta, inputs.queries, inputs.theta)
    return (topk, above), topk_s, above_s


def check_round(ledger: Ledger, results, references, what: str) -> None:
    ledger.check(results[0], same_topk, references[0], f"{what} Row-Top-k pass")
    ledger.check(results[1], same_above, references[1], f"{what} Above-theta pass")


def pass_counters(engine, inputs: Inputs) -> dict:
    """Exact work counters of one Row-Top-k and one Above-θ pass."""
    counters = {}
    for problem, call, argument in (("topk", engine.row_top_k, TOP_K),
                                    ("above", engine.above_theta, inputs.theta)):
        before = stats_snapshot(engine)
        call(inputs.queries, argument)
        delta = stats_delta(engine.stats, before)
        for name in COUNTERS:
            counters[f"{problem}_{name}"] = int(delta[name])
    return counters


# ------------------------------------------------------------ offline steps


class BatchRounds:
    """Full-pool rounds; throughput is the pool size over the median pass."""

    name = "batch"

    def __init__(self, engine, inputs: Inputs, references, ledger: Ledger) -> None:
        self.engine, self.inputs, self.references, self.ledger = engine, inputs, references, ledger
        self.counters = pass_counters(engine, inputs)
        self.topk_times: list[float] = []
        self.above_times: list[float] = []
        self.repeat_exactly = True

    def step(self) -> None:
        before = stats_snapshot(self.engine)
        results, topk_s, above_s = full_round(self.engine, self.inputs)
        delta = stats_delta(self.engine.stats, before)
        self.repeat_exactly &= all(
            delta[name] == self.counters[f"topk_{name}"] + self.counters[f"above_{name}"]
            for name in COUNTERS)
        check_round(self.ledger, results, self.references, "batch")
        self.topk_times.append(topk_s)
        self.above_times.append(above_s)

    def finish(self, report: Report) -> None:
        rows = self.inputs.queries.shape[0]
        report.metrics["topk_rows_per_s"] = rows / statistics.median(self.topk_times)
        report.metrics["above_rows_per_s"] = rows / statistics.median(self.above_times)
        report.counters.update(self.counters)
        report.counters["repeat_exactly"] = bool(self.repeat_exactly)
        report.counters["batch_rounds"] = len(self.topk_times)


class ClosedLoopRequests:
    """One caller sending 4-row requests back to back, a chunk per step."""

    name = "requests"

    def __init__(self, engine, inputs: Inputs, references, ledger: Ledger) -> None:
        self.engine, self.inputs, self.references, self.ledger = engine, inputs, references, ledger
        self.latencies: list[float] = []
        self.outputs: list = []

    def step(self) -> None:
        inputs = self.inputs
        for index in range(len(self.outputs), len(self.outputs) + REQUEST_CHUNK):
            first = int(inputs.request_start[index])
            rows = inputs.queries[first:first + REQUEST_ROWS]
            if inputs.request_topk[index]:
                result, seconds = timed(self.engine.row_top_k, rows, TOP_K)
            else:
                result, seconds = timed(self.engine.above_theta, rows, inputs.theta)
            self.latencies.append(seconds)
            self.outputs.append(result)

    def finish(self, report: Report) -> None:
        for index, result in enumerate(self.outputs):
            same, expected = expected_request(self.inputs, index, self.references)
            self.ledger.check(result, same, expected, f"request {index}")
        report.metrics["p50_ms"] = median_ms(self.latencies)
        report.metrics["p99_ms"] = tail_ms(self.latencies)
        report.counters["requests"] = len(self.latencies)


def interleave(report: Report, engine, steps: list, shares: list[float],
               seconds: float) -> None:
    """Run the steps in turn, each time the one furthest below its share."""
    spent = [0.0] * len(steps)
    start = clock()
    while clock() - start < seconds or not all(spent):
        index = min(range(len(steps)), key=lambda i: spent[i] / shares[i])
        gc.collect()
        before = stats_snapshot(engine)
        began = clock()
        steps[index].step()
        ended = clock()
        spent[index] += ended - began
        report.add_window(steps[index].name, began, ended, stats_delta(engine.stats, before))
    for step in steps:
        step.finish(report)


# ------------------------------------------------------------------- churn


class Churn:
    """Fixed inputs and per-cycle timings of the churn phase.

    Every cycle inserts the same rows and removes the same ids again, so the
    index returns to identical content.  Cycle ``c`` reads block ``c`` of the
    query pool (wrapping around): a read after a remove must equal that
    block of the pre-churn reference, and a read after an insert must repeat
    the block's first such read byte for byte.  Rates are medians over
    cycles for writes and totals over whole sweeps of the pool for reads.
    """

    def __init__(self, engine, inputs: Inputs, references) -> None:
        self.inputs = inputs
        self.references = references
        self.blocks = CHURN_BLOCKS
        self.read_count = inputs.queries.shape[0] // CHURN_BLOCKS
        self.inserted = inputs.churn_rows
        num_probes = engine.num_probes
        self.new_ids = np.arange(num_probes, num_probes + self.inserted.shape[0])
        #: Block index -> first read of that block after an insert.
        self.inserted_reads: dict = {}
        self.cache = engine.tuning_cache
        self.cache_before = (self.cache.hits, self.cache.misses)
        self.write_s: list[float] = []
        self.read_s: list[float] = []

    @property
    def cycles(self) -> int:
        return len(self.read_s)

    def _block(self, cycle: int) -> tuple[int, int]:
        start = (cycle % self.blocks) * self.read_count
        return start, start + self.read_count

    def more(self, start: float, budget: float) -> bool:
        """Whether to run another cycle: finish the sweep, then fit whole ones."""
        if self.cycles % self.blocks or not self.cycles:
            return True
        sweep = (clock() - start) / (self.cycles // self.blocks)
        return clock() - start + sweep <= budget

    def read_rows(self) -> np.ndarray:
        """Query rows the current cycle reads."""
        start, stop = self._block(self.cycles)
        return self.inputs.queries[start:stop]

    def add_cycle(self, ledger: Ledger, writes, reads) -> None:
        """Record one cycle: ``writes`` and ``reads`` are two (result, seconds) each."""
        for (result, _), what in zip(writes, ("partial_fit", "remove")):
            ledger.record(not isinstance(result, Exception), f"churn {what} raised {result!r}")
        block = self.cycles % self.blocks
        inserted_read, removed_read = reads[0][0], reads[1][0]
        if block not in self.inserted_reads and not isinstance(inserted_read, Exception):
            self.inserted_reads[block] = inserted_read
        ledger.check(inserted_read, same_topk, self.inserted_reads.get(block),
                     f"churn cycle {self.cycles} read after insert")
        ledger.check(removed_read, same_topk, topk_rows(self.references[0], *self._block(block)),
                     f"churn cycle {self.cycles} read after remove")
        self.write_s.append(writes[0][1] + writes[1][1])
        self.read_s.append(reads[0][1] + reads[1][1])

    def step(self, engine, ledger: Ledger) -> None:
        """One cycle straight on the engine."""
        rows = self.read_rows()
        inserted = timed(engine.partial_fit, self.inserted)
        inserted_read = timed(engine.row_top_k, rows, TOP_K)
        removed = timed(engine.remove, self.new_ids)
        removed_read = timed(engine.row_top_k, rows, TOP_K)
        self.add_cycle(ledger, (inserted, removed), (inserted_read, removed_read))

    def finish(self, report: Report) -> None:
        report.metrics["write_rows_per_s"] = (2 * self.inserted.shape[0]
                                              / statistics.median(self.write_s))
        report.metrics["churn_topk_rows_per_s"] = (2 * self.read_count * self.cycles
                                                   / sum(self.read_s))
        report.counters["churn_cycles"] = self.cycles
        hits = self.cache.hits - self.cache_before[0]
        misses = self.cache.misses - self.cache_before[1]
        report.counters["churn_tuning_hit_frac"] = hits / max(hits + misses, 1)
        report.churn = self

    def oracle(self, report: Report, probes: np.ndarray) -> None:
        """Check a few rows of every block's read after insert densely."""
        grown = np.vstack([probes, self.inserted])
        for block, result in self.inserted_reads.items():
            start, _ = self._block(block)
            rows = slice(0, CHURN_ORACLE_ROWS)
            sample = TopKResult(result.indices[rows], result.scores[rows], result.k)
            report.ledger.oracle(
                check_topk(grown, self.inputs.queries[start:start + CHURN_ORACLE_ROWS], sample),
                f"churn block {block} read after insert vs dense oracle")


def churn_phase(report: Report, engine, inputs: Inputs, references, budget: float) -> None:
    """Net-zero insert/read/remove/read cycles straight on the engine."""
    churn = Churn(engine, inputs, references)
    start = clock()
    while churn.more(start, budget):
        gc.collect()
        before = stats_snapshot(engine)
        began = clock()
        churn.step(engine, report.ledger)
        report.add_window("churn", began, clock(), stats_delta(engine.stats, before))
    churn.finish(report)
