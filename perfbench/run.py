"""Benchmark of the LEMP reproduction: one workload, one seed, one run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-skewed --seed 1 --seconds 34 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``paper-skewed`` — 200k probes, length CoV 2.0: the regime where LEMP's
  bucket pruning does most of the work;
* ``flat-lengths`` — 30k probes, length CoV 0.5: pruning does almost
  nothing, so candidate verification and per-bucket dispatch dominate;
* ``serve-mixed`` — 100k probes, CoV 2.0, an index saved and opened with
  ``mmap_mode="r"``, served open loop through ``ServingEngine``.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the same phases under span
tracing and reports the per-layer metrics, the tracing overhead and the
dense floor.  Layer times in ``s/krow`` are seconds per 1000 query rows
solved in the batch phase (offline) or the request phase (served).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The run exits with 1 when any operation failed or any check did not hold,
and with 2 when it cannot run at all (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

#: BLAS/OpenMP threads, fixed before numpy is imported.  With the solver
#: thread and the event-loop thread of the served workload this stays
#: within two cores.
BLAS_THREADS = "1"
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout: saved indexes and written-out spans.
SCRATCH = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds the timed phases run, shared among them")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"cannot run: {SOURCE / 'repro'} or {SPEC_FILE.name} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    spec = json.loads(SPEC_FILE.read_text())
    from inputs import WORKLOADS, make_inputs
    from runs import run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    inputs = make_inputs(workload, args.seed, args.seconds)
    report = run(workload, inputs, args.seconds, bool(args.trace), SCRATCH)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report.layers if args.trace else report.metrics
    missing = [metric["name"] for metric in wanted
               if not math.isfinite(measured.get(metric["name"], math.nan))]
    if missing:
        print(f"metrics missing or not finite: {missing}", file=sys.stderr)
        return 2
    ledger = report.ledger
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} theta={inputs.theta!r}")
    print("counters " + json.dumps(report.counters, sort_keys=True))
    for metric in wanted:
        print(f"  {metric['name']:<40} {measured[metric['name']]:>14.6g} {metric['unit']}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {metric["name"]: {"value": float(measured[metric["name"]]),
                                     "unit": metric["unit"]} for metric in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
