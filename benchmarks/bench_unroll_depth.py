"""Hyperparameter study — the unrolling depth ``k`` of MineExpressions.

Not a paper table, but the paper's one explicit hyperparameter ("unrolling
depth k", Algorithm 4; Example 5.6 uses k = 3).  This bench sweeps k over the
mining-dependent tasks and reports which depths suffice.  Expected shape:

* k = 1 is degenerate (power sums of a single element cannot separate the
  moment structure; templates rarely verify);
* k = 2 already solves the quadratic tasks (variance family);
* k = 3 (the default) also covers the cubic tasks (skewness);
* larger k costs more algebra time for no additional solves — kurtosis stays
  out of reach because its update genuinely needs an ``m3`` accumulator that
  the RFS of the offline program does not contain.

Run:  pytest benchmarks/bench_unroll_depth.py --benchmark-only -s
"""

import os

from repro.baselines import OperaFull
from repro.core import SynthesisConfig
from repro.evaluation import (
    default_timeout,
    default_workers,
    run_suite,
)
from repro.store import resolve_store
from repro.suites import get_benchmark

MINING_TASKS = ["variance", "sum_sq_dev", "std", "skewness", "kurtosis"]
DEPTHS = [2, 3, 4]

_WORKERS = default_workers(fallback=max(1, min(4, os.cpu_count() or 1)))
_STORE = resolve_store()


def _run(depth: int) -> dict[str, bool]:
    # Each depth is a distinct config fingerprint, so the sweep stores per
    # depth and an edited default invalidates exactly its own column.
    config = SynthesisConfig(timeout_s=default_timeout(5.0), unroll_depth=depth)
    suite = run_suite(
        OperaFull(),
        [get_benchmark(name) for name in MINING_TASKS],
        config,
        workers=_WORKERS,
        store=_STORE,
    )
    return {name: suite.reports[name].success for name in MINING_TASKS}


def test_depth_sweep(benchmark):
    results = {depth: _run(depth) for depth in DEPTHS}
    benchmark.pedantic(_run, args=(3,), rounds=1, iterations=1)

    print("\nunroll depth sweep (mining-dependent tasks):")
    header = "  task          " + "".join(f"  k={d}" for d in DEPTHS)
    print(header)
    for name in MINING_TASKS:
        row = "".join(
            f"  {'ok ' if results[d][name] else '-- '}" for d in DEPTHS
        )
        print(f"  {name:<14}{row}")

    # The default depth solves everything except kurtosis.
    assert all(results[3][n] for n in MINING_TASKS if n != "kurtosis")
    assert not results[3]["kurtosis"]
    # Quadratic tasks need only k = 2.
    assert results[2]["variance"]
    # Depth 4 does not rescue kurtosis (the failure is signature-level).
    assert not results[4]["kurtosis"]
