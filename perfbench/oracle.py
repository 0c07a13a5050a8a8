"""Output checks: byte identity between LEMP paths, and a dense oracle.

The dense oracle is :class:`~repro.baselines.naive.NaiveRetriever` with a
small row block, run on a seeded sample of query rows after every timed
phase has ended, so neither its time nor its memory lands in a measurement.
"""

from __future__ import annotations

import numpy as np

from repro import AboveThetaResult, TopKResult
from repro.baselines.naive import NaiveRetriever

#: The solvers' Above-θ verification slack (``core/above_theta.py``).
VERIFY_SLACK = 1e-12
#: Relative tolerance between LEMP's and the dense product's scores.
SCORE_RTOL = 1e-9
#: Query rows per dense block; bounds the oracle's score block.
ORACLE_BLOCK_ROWS = 8


def same_topk(left: TopKResult, right: TopKResult) -> bool:
    """Byte identity of two Row-Top-k results."""
    return (left.indices.dtype == right.indices.dtype
            and left.scores.dtype == right.scores.dtype
            and np.array_equal(left.indices, right.indices)
            and np.array_equal(left.scores, right.scores))


def same_above(left: AboveThetaResult, right: AboveThetaResult) -> bool:
    """Byte identity of two Above-θ results, including pair order."""
    return all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in ((left.query_ids, right.query_ids),
                     (left.probe_ids, right.probe_ids),
                     (left.scores, right.scores))
    )


def topk_rows(result: TopKResult, start: int, stop: int) -> TopKResult:
    """Rows ``[start, stop)`` of a Row-Top-k result."""
    return TopKResult(result.indices[start:stop], result.scores[start:stop], result.k)


def above_rows(result: AboveThetaResult, start: int, stop: int) -> AboveThetaResult:
    """Pairs of query rows ``[start, stop)``, re-based to the first row.

    Above-θ output is bucket-major over length-sorted queries and the sort is
    stable, so this equals a standalone call on those rows byte for byte.
    """
    inside = (result.query_ids >= start) & (result.query_ids < stop)
    return AboveThetaResult(result.query_ids[inside] - start, result.probe_ids[inside],
                            result.scores[inside], result.theta)


def _close(lemp: np.ndarray, dense: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
    return bool(np.allclose(lemp, dense, rtol=SCORE_RTOL, atol=SCORE_RTOL * scale))


def check_topk(probes: np.ndarray, queries: np.ndarray, result: TopKResult) -> list[str]:
    """Check LEMP's Row-Top-k rows against the dense product.

    Expected ids follow the documented rule: score descending, then id
    ascending.  The dense top list is taken a few entries deep so a tie at
    the k-th score is ordered by that rule, not by the oracle's selection.
    """
    k = result.k
    naive = NaiveRetriever(block_size=ORACLE_BLOCK_ROWS).fit(probes)
    dense = naive.row_top_k(queries, min(k + 8, probes.shape[0]))
    failures = []
    for row in range(queries.shape[0]):
        order = np.lexsort((dense.indices[row], -dense.scores[row]))[:k]
        expected_ids = dense.indices[row][order]
        if not np.array_equal(result.indices[row, :expected_ids.size], expected_ids):
            failures.append(f"top-k row {row}: ids differ from the dense oracle")
        elif not _close(result.scores[row, :expected_ids.size], dense.scores[row][order]):
            failures.append(f"top-k row {row}: scores differ from the dense oracle")
    return failures


def check_above(probes: np.ndarray, queries: np.ndarray,
                result: AboveThetaResult) -> list[str]:
    """Check LEMP's Above-θ pairs against the dense product, as sets."""
    naive = NaiveRetriever(block_size=ORACLE_BLOCK_ROWS).fit(probes)
    dense = naive.above_theta(queries, result.theta - VERIFY_SLACK)
    lemp_order = np.lexsort((result.probe_ids, result.query_ids))
    dense_order = np.lexsort((dense.probe_ids, dense.query_ids))
    if not (np.array_equal(result.query_ids[lemp_order], dense.query_ids[dense_order])
            and np.array_equal(result.probe_ids[lemp_order], dense.probe_ids[dense_order])):
        return [f"above-theta: {result.num_results} pairs, dense oracle has "
                f"{dense.num_results}, or the pair sets differ"]
    if not _close(result.scores[lemp_order], dense.scores[dense_order]):
        return ["above-theta: scores differ from the dense oracle"]
    return []


def check_sample(probes: np.ndarray, queries: np.ndarray, rows: np.ndarray,
                 topk: TopKResult, above: AboveThetaResult) -> list[str]:
    """Check the sampled, sorted query ``rows`` of full-pool results against the oracle."""
    sample_topk = TopKResult(topk.indices[rows], topk.scores[rows], topk.k)
    keep = np.isin(above.query_ids, rows)
    # ``rows`` is sorted, so a query id's position in it is its sample row.
    sample_above = AboveThetaResult(np.searchsorted(rows, above.query_ids[keep]),
                                    above.probe_ids[keep], above.scores[keep], above.theta)
    return (check_topk(probes, queries[rows], sample_topk)
            + check_above(probes, queries[rows], sample_above))
