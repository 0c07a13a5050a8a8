"""Seeded inputs and workload definitions for the LEMP benchmark.

Every input of a run comes from one ``numpy.random.Generator`` seeded with
``--seed``, drawn in a fixed order before anything is timed, so the same
seed always gives byte-identical probes, queries, churn rows, threshold and
request schedule.

Factor matrices take their directions from
:func:`~repro.datasets.synthetic.synthetic_factors` and their lengths from
the quantiles of the log-normal law with the workload's coefficient of
variation, assigned to rows in seeded random order.  Every seed therefore
has exactly the same length distribution, which is what LEMP's pruning
depends on: with lengths drawn at random, the longest few probes (and with
them the solver's work) vary by about 10 % from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.datasets.synthetic import lognormal_sigma_for_cov, synthetic_factors

RANK = 50
SPEC = "lemp:LI"
TOP_K = 10
#: Above-θ is set so that a row gets about this many results on average.
RESULTS_PER_ROW = 10
#: Rows of each request in the request phases.
REQUEST_ROWS = 4
#: Share of requests that are Row-Top-k (the rest are Above-θ).
TOPK_REQUEST_SHARE = 0.7
#: Blocks the query pool is cut into for the churn reads.  Cycle ``c`` reads
#: block ``c`` (wrapping around) and the phase runs whole sweeps, so every run
#: reads the whole pool: the re-tuning a read pays depends on which rows the
#: tuner samples.
CHURN_BLOCKS = 8
#: Requests per 4-row block of the query pool in one deck of requests.
REQUESTS_PER_BLOCK = 10
#: Length of the closed-loop request schedule (more than any run sends).
CLOSED_LOOP_REQUESTS = 200_000
#: Coefficient of variation of the query lengths, in the range of the
#: recommender datasets' user factors (``repro.datasets.recommender``).
QUERY_LENGTH_COV = 0.5
#: Query rows per block when the dense scores for θ are computed.
DENSE_BLOCK_ROWS = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data shape plus how each phase is sized."""

    name: str
    probes: int
    #: Coefficient of variation of the probe lengths.
    length_cov: float
    query_rows: int
    #: Rows inserted, then removed again, by each churn cycle.
    churn_rows: int
    #: Open-loop arrival rate in requests per second (served workloads only).
    request_rate: float = 0.0
    #: Share of ``--seconds`` given to each timed phase.
    batch_share: float = 0.0
    request_share: float = 0.0
    churn_share: float = 0.0

    @property
    def served(self) -> bool:
        return self.request_rate > 0.0


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Requests get the largest share: their p99 rests on the slowest 1 %
        # of a run's requests, while the rows/s medians settle within a few
        # full-pool rounds, and churn runs one sweep of the pool whatever
        # its share.
        Workload("paper-skewed", probes=200_000, length_cov=2.0, query_rows=2000,
                 churn_rows=256,
                 batch_share=0.15, request_share=0.55, churn_share=0.3),
        Workload("flat-lengths", probes=30_000, length_cov=0.5, query_rows=400,
                 churn_rows=256,
                 batch_share=0.15, request_share=0.55, churn_share=0.3),
        # 100 requests/s keeps the solver thread about 0.2 busy.  At 200/s
        # (about 0.36 busy) waits behind the previous micro-batch set the
        # tail and amplified the host's run-to-run speed changes: p99 over
        # ten seeds ranged 10.1-14.3 ms there, against 8.7-11.3 ms here.
        Workload("serve-mixed", probes=100_000, length_cov=2.0, query_rows=2000,
                 churn_rows=128, request_rate=100.0,
                 batch_share=0.1, request_share=0.82, churn_share=0.08),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the program, generated before timing."""

    probes: np.ndarray
    queries: np.ndarray
    churn_rows: np.ndarray
    theta: float
    #: Request schedule: kind (True = Row-Top-k), first query row, due offset.
    request_topk: np.ndarray
    request_start: np.ndarray
    request_due: np.ndarray
    #: Query rows checked against the dense oracle.
    oracle_rows: np.ndarray


def factors(count: int, length_cov: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` random directions scaled by log-normal quantile lengths."""
    directions = synthetic_factors(count, RANK, length_cov=0.0, seed=rng)
    sigma = lognormal_sigma_for_cov(length_cov)
    normal = NormalDist()
    z = np.array([normal.inv_cdf(u) for u in uniform_quantiles(count)])
    lengths = np.exp(sigma * z - 0.5 * sigma * sigma)
    return directions * rng.permutation(lengths)[:, None]


def uniform_quantiles(count: int) -> np.ndarray:
    return (np.arange(count) + 0.5) / count


def request_decks(count: int, query_rows: int, rng: np.random.Generator):
    """Kind (True = Row-Top-k) and first row of ``count`` requests.

    Requests are dealt from shuffled decks in which every 4-row block of the
    query pool appears :data:`REQUESTS_PER_BLOCK` times, as Row-Top-k in
    :data:`TOPK_REQUEST_SHARE` of them, so the mix of cheap and costly
    requests is the same for every seed.
    """
    blocks = query_rows // REQUEST_ROWS
    deck_blocks = np.repeat(np.arange(blocks), REQUESTS_PER_BLOCK)
    deck_topk = np.tile(np.arange(REQUESTS_PER_BLOCK)
                        < round(TOPK_REQUEST_SHARE * REQUESTS_PER_BLOCK), blocks)
    orders = [rng.permutation(deck_blocks.size)
              for _ in range(-(-count // deck_blocks.size))]
    order = np.concatenate(orders)[:count]
    return deck_topk[order], deck_blocks[order] * REQUEST_ROWS


def dense_theta(queries: np.ndarray, probes: np.ndarray, results: int) -> float:
    """The ``results``-th largest entry of ``queries @ probes.T``, blockwise."""
    probes_t = np.ascontiguousarray(probes.T)
    kept = []
    for start in range(0, queries.shape[0], DENSE_BLOCK_ROWS):
        block = (queries[start:start + DENSE_BLOCK_ROWS] @ probes_t).ravel()
        count = min(results, block.size)
        # Copy: a slice would keep the whole partitioned block alive.
        kept.append(np.partition(block, -count)[-count:].copy())
    kept = np.concatenate(kept)
    return float(np.partition(kept, -results)[-results])


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of one run from ``seed``."""
    rng = np.random.default_rng(seed)
    probes = factors(workload.probes, workload.length_cov, rng)
    queries = factors(workload.query_rows, QUERY_LENGTH_COV, rng)
    churn = factors(workload.churn_rows, workload.length_cov, rng)
    theta = dense_theta(queries, probes, RESULTS_PER_ROW * workload.query_rows)

    if workload.served:
        # Open loop over the request phase: the gaps are the quantiles of the
        # exponential law in seeded order, so arrivals are Poisson-like and
        # every seed has the same gap distribution.
        count = int(workload.request_rate * workload.request_share * seconds)
        gaps = -np.log1p(-uniform_quantiles(count)) / workload.request_rate
        due = np.cumsum(rng.permutation(gaps))
    else:
        # Closed loop: the schedule is only an order; each request is due
        # when the previous one returns.  Long enough for any machine.
        count = CLOSED_LOOP_REQUESTS
        due = np.zeros(count)
    request_topk, request_start = request_decks(count, workload.query_rows, rng)
    oracle_rows = np.sort(rng.choice(workload.query_rows, size=24, replace=False))
    return Inputs(probes, queries, churn, theta, request_topk, request_start, due, oracle_rows)
