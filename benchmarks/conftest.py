"""Shared fixtures for the evaluation benchmarks.

The expensive part of regenerating the paper's tables is running the solver
matrix (every solver over every task, failures burning their full budget).
These session-scoped fixtures run each matrix once and share it between the
table and figure benchmarks.

Budgets: the paper allows 600 s/task on an M1 Pro.  Successful Opera tasks
finish in well under a second here, and failing tasks consume whatever budget
they get, so the default per-task budget is ``REPRO_BENCH_TIMEOUT`` (env var,
default 5 s) — enough to regenerate every qualitative result in minutes.
Raise it to approach the paper's exact regime.

Execution: the matrices run through the parallel suite runner
(``REPRO_BENCH_WORKERS`` workers, default min(4, cpu); runaway tasks are
hard-killed at their budget) and reuse the persistent synthesis store
(:mod:`repro.store`), so only the first regeneration after a task/config
change pays for synthesis.  Set ``REPRO_CACHE=0`` to force everything to
re-run, ``REPRO_BENCH_WORKERS=1`` for the old in-process sequential
behaviour.  Stored reports keep their original ``elapsed_s``, and a stored
success is reused only under a budget it fits, so the timing-shape
assertions of the figure benchmarks are unaffected by where a report came
from.
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import (
    Cvc5Style,
    OperaFull,
    OperaNoDecomp,
    OperaNoSymbolic,
    SketchStyle,
)
from repro.core import SynthesisConfig
from repro.evaluation import (
    SuiteResult,
    default_timeout,
    default_workers,
    run_suite,
)
from repro.store import resolve_store
from repro.suites import benchmarks_for

_WORKERS = default_workers(fallback=max(1, min(4, os.cpu_count() or 1)))
_STORE = resolve_store()


def _config() -> SynthesisConfig:
    return SynthesisConfig(timeout_s=default_timeout(5.0))


def _run(solver, benchmarks) -> SuiteResult:
    return run_suite(
        solver, benchmarks, _config(), workers=_WORKERS, store=_STORE
    )


@pytest.fixture(scope="session")
def main_matrix():
    """Opera + SyGuS baselines per domain (Table 2 / Figure 11).

    As a side effect, writes machine-readable artifacts
    (``bench_results.json`` / ``.csv``) next to the benchmark output.
    """
    solvers = [OperaFull(), Cvc5Style(), SketchStyle()]
    results: dict[str, dict] = {}
    for solver in solvers:
        results[solver.name] = {
            domain: _run(solver, benchmarks_for(domain))
            for domain in ("stats", "auction")
        }
    try:
        from repro.evaluation import write_artifacts

        merged = {
            solver_name: SuiteResult.merged(solver_name, by_domain.values())
            for solver_name, by_domain in results.items()
        }
        write_artifacts(merged, "bench_results.json", "bench_results.csv")
    except OSError:
        pass  # read-only working directory: artifacts are best-effort
    return results


@pytest.fixture(scope="session")
def ablation_matrix():
    """Opera and its two ablations over all tasks (Figure 13)."""
    solvers = [OperaFull(), OperaNoDecomp(), OperaNoSymbolic()]
    benchmarks = benchmarks_for("stats") + benchmarks_for("auction")
    return {solver.name: _run(solver, benchmarks) for solver in solvers}


@pytest.fixture(scope="session")
def opera_all(main_matrix):
    """Opera's reports over the full suite, merged across domains."""
    return SuiteResult.merged("opera", main_matrix["opera"].values())
