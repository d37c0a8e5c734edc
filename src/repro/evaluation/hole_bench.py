"""Intra-task parallelism benchmark: sequential vs hole-sharded synthesis.

``repro bench holes`` measures the wall-clock of ``synthesize`` with
``hole_workers=1`` against ``hole_workers=N`` on *multi-hole* tasks — the
workload :mod:`repro.core.parallel_synthesize` exists for — and hard-checks
the determinism contract on every run: both modes must produce identical
reports modulo ``elapsed_s`` (any divergence fails the benchmark before a
single number is printed).

The measured set mixes a suite task (``skewness``, the longest-running
multi-hole benchmark of Table 1) with dedicated *stress* tasks whose holes
are deliberately balanced: several structurally distinct third-moment folds
of comparable cost, so the critical path is a fraction of the total and a
process pool can actually show up on the clock.  The suite's own tasks are
mostly dominated by one heavy hole (Amdahl caps skewness near 1.4x); the
stress tasks represent the many-balanced-holes regime the feature targets.

Results are written as ``BENCH_holes.json`` (CI uploads it and gates on
``--assert-speedup``).  The report records ``cpu_count``, the CPUs this
process may run on (:func:`usable_cpu_count`), because the speedup is only
physically possible with >= 2 of them; the CLI gate warns and passes below
that instead of failing spuriously.  Each benchmark also keeps its raw
per-repeat wall-clocks under ``raw``, and a ``meta`` block records the git
commit, a UTC timestamp and the clock used.

Entry points: ``repro bench holes`` on the CLI, or
:func:`run_hole_benchmark` from Python/pytest.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import replace
from typing import Sequence

from ..core import SynthesisConfig, synthesize
from ..core.report import SynthesisReport
from ..ir.dsl import (
    XS,
    add,
    div,
    fold,
    fold_sum,
    lam,
    length,
    mul,
    powi,
    program,
    sub,
)
from ..suites import get_benchmark
from ..suites.registry import Benchmark
from .export import bench_metadata

#: Envelope identifiers for BENCH_holes.json.  Version 3 added the raw
#: per-repeat timings and the ``meta`` block.
BENCH_FORMAT = "repro/bench-holes"
BENCH_FORMAT_VERSION = 3

#: Default measured set: one suite task plus the balanced stress tasks.
DEFAULT_HOLE_TASKS = ("skewness", "stress_moments", "stress_moments_wide")


class ReportMismatch(AssertionError):
    """A hole-parallel report diverged from its sequential twin.

    An ``AssertionError`` subclass (callers catch that), but raised
    explicitly so the determinism check survives ``python -O`` — a bare
    ``assert`` would be stripped and the benchmark would publish numbers
    for an unverified contract.
    """


def usable_cpu_count() -> int:
    """The CPUs this process may run on, which under an affinity mask
    (``taskset``, cgroup cpusets) is fewer than ``os.cpu_count()``."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _stress_benchmarks() -> dict[str, Benchmark]:
    """Multi-hole stress tasks with *balanced* heavy holes.

    Each scaled third-moment fold is structurally distinct (so it gets its
    own sketch hole, see :mod:`repro.core.decompose`) but solvable through
    the same mined-template path at comparable cost; the shared ``m2``
    denominator keeps the variance accumulator in the RFS, which those
    template solutions need.  These are benchmark *workloads* for the
    harness, not suite members — they are not registered with the suite
    registry, so Table 1/2 artifacts are unaffected.
    """
    n = length(XS)
    avg = div(fold_sum(XS), n)
    m2 = fold(lam("acc", "v", add("acc", powi(sub("v", avg), 2))), 0, XS)
    m3 = fold(lam("acc", "v", add("acc", powi(sub("v", avg), 3))), 0, XS)
    m3x2 = fold(
        lam("acc", "v", add("acc", powi(sub(mul(2, "v"), mul(2, avg)), 3))),
        0,
        XS,
    )
    m3x3 = fold(
        lam("acc", "v", add("acc", powi(sub(mul(3, "v"), mul(3, avg)), 3))),
        0,
        XS,
    )
    scale = powi(div(m2, n), 2)
    benches = {}
    for name, body, description in (
        (
            "stress_moments",
            div(add(m3, m3x2), scale),
            "Two balanced third-moment holes over a variance scale",
        ),
        (
            "stress_moments_wide",
            div(add(add(m3, m3x2), m3x3), scale),
            "Three balanced third-moment holes over a variance scale",
        ),
    ):
        benches[name] = Benchmark(
            name=name,
            domain="stress",
            program=program(body),
            description=description,
        )
    return benches


def hole_bench_targets() -> dict[str, Benchmark]:
    """Everything ``bench holes`` can measure, by name (stress tasks plus
    any suite benchmark)."""
    return _stress_benchmarks()


def _resolve(name: str) -> Benchmark:
    targets = hole_bench_targets()
    if name in targets:
        return targets[name]
    return get_benchmark(name)  # raises KeyError for unknown names


def _comparable(report: SynthesisReport) -> tuple:
    """Everything a report contains except wall-clock."""
    return (
        report.task,
        report.success,
        report.scheme,
        tuple(
            (h.hole_id, h.method, h.spec_size, h.solution_size)
            for h in report.holes
        ),
        tuple(sorted(report.method_counts.items())),
        report.failure_reason,
    )


def run_hole_benchmark(
    names: Sequence[str] | None = None,
    hole_workers: int = 2,
    timeout_s: float = 60.0,
    repeats: int = 2,
) -> dict:
    """Measure sequential vs hole-parallel synthesis wall-clock.

    Every (benchmark, mode) pair runs ``repeats`` times interleaved
    (seq, par, seq, par, ...) and keeps the per-mode minimum, so cache
    warm-up and machine noise hit both modes alike.  Raises
    :class:`ReportMismatch` if any parallel report differs from its
    sequential twin in anything but ``elapsed_s`` — the determinism
    contract is part of the benchmark, not a separate test.
    """
    if hole_workers < 2:
        raise ValueError(f"hole_workers must be >= 2 to compare, got {hole_workers}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    chosen = list(names) if names else list(DEFAULT_HOLE_TASKS)
    report: dict = {
        "format": BENCH_FORMAT,
        "version": BENCH_FORMAT_VERSION,
        "meta": bench_metadata(),
        "python": sys.version.split()[0],
        "hole_workers": hole_workers,
        "cpu_count": usable_cpu_count(),
        "platform": platform.platform(),
        "timeout_s": timeout_s,
        "repeats": repeats,
        "benchmarks": {},
    }
    for name in chosen:
        bench = _resolve(name)
        base = SynthesisConfig(timeout_s=timeout_s, element_arity=bench.element_arity)
        times = {1: [], hole_workers: []}
        outcomes: dict[int, SynthesisReport] = {}
        for _ in range(repeats):
            for workers in (1, hole_workers):
                config = replace(base, hole_workers=workers)
                started = time.monotonic()
                outcome = synthesize(bench.program, config, bench.name)
                times[workers].append(time.monotonic() - started)
                outcomes[workers] = outcome
        expected = _comparable(outcomes[1])
        got = _comparable(outcomes[hole_workers])
        if got != expected:
            raise ReportMismatch(
                f"{name}: hole_workers={hole_workers} report differs from "
                f"sequential:\n  sequential: {expected}\n  parallel:   {got}"
            )
        sequential_s = min(times[1])
        parallel_s = min(times[hole_workers])
        report["benchmarks"][name] = {
            "holes": len(outcomes[1].holes),
            "success": outcomes[1].success,
            "sequential_s": round(sequential_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(sequential_s / parallel_s, 3) if parallel_s > 0 else 0.0,
            "raw": {
                "sequential_s": [round(t, 6) for t in times[1]],
                "parallel_s": [round(t, 6) for t in times[hole_workers]],
            },
        }
    return report


def format_holes_report(report: dict) -> str:
    lines = [
        f"hole sharding: {report['hole_workers']} workers on "
        f"{report['cpu_count']} usable CPU(s), best of {report['repeats']}",
        f"{'benchmark':<22} {'holes':>5} {'seq':>8} {'par':>8} {'speedup':>8}",
    ]
    for name, entry in report["benchmarks"].items():
        lines.append(
            f"{name:<22} {entry['holes']:>5} {entry['sequential_s']:>7.2f}s "
            f"{entry['parallel_s']:>7.2f}s {entry['speedup']:>7.2f}x"
        )
    return "\n".join(lines)

