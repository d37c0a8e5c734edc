"""Runtime throughput benchmark: interpreted vs compiled vs batch-kernel
(and, opted in, columnar) execution.

The point of the whole system is per-element cost: a deployed
:class:`~repro.runtime.OnlineOperator` processes each stream element with one
scheme step.  PR 3 made that step a compiled native closure
(:mod:`repro.ir.compile`); the step-kernel refactor compiles the *batch
loop* itself (:func:`~repro.ir.compile.compile_step_batch`).  This module
measures elements/second for all of them over the suite's ground-truth
schemes — no
synthesis required, so it runs in seconds — and optionally times a
synthesis pass with and without oracle compilation.  Results are written as
``BENCH_runtime.json`` so the performance trajectory is tracked from PR 3
on; the report records ``cpu_count`` and ``platform`` (matching
``BENCH_holes.json``) so numbers from different machines stay
interpretable.

Format v3 additionally embeds the *raw per-repeat wall-clocks* under each
scheme's ``raw`` key and a ``meta`` provenance block (git commit, UTC
timestamp, clock note — see :func:`repro.evaluation.history.bench_metadata`).
Raw repeats are what turn two reports into two samples a statistics layer
can actually test: ``repro bench compare`` runs bootstrap CIs and a
Mann-Whitney U over them (:mod:`repro.evaluation.benchstats`) instead of
eyeballing best-of-N point estimates.

Measured honestly: every backend runs the same deterministic stream
(best-of-``repeats`` wall-clock), and the final accumulator states are
asserted identical across all backends before any number is reported —
every benchmark run is also a differential test.  Batch speedups split by
regime: overhead-dominated schemes (integer counters, category volumes) see
the loop compilation directly, while gcd-heavy exact-rational schemes are
arithmetic-bound and sit near 1x.  Regressions are judged by
``repro bench compare`` over the raw repeats, not by fixed speedup gates.

Entry points: ``repro bench runtime`` on the CLI, or
:func:`run_runtime_benchmark` from Python/pytest.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from ..ir.values import Value

#: Envelope identifiers for BENCH_runtime.json.  v3 added per-repeat raw
#: timings (``raw``) and the ``meta`` provenance block.
BENCH_FORMAT = "repro/bench-runtime"
BENCH_FORMAT_VERSION = 3

#: Default scheme set: a spread over both domains, element shapes (scalars
#: and pairs), extra parameters, accumulator sizes, and both batch regimes
#: (overhead-dominated integer schemes and arithmetic-bound rational ones).
DEFAULT_SCHEMES = (
    "mean",
    "variance",
    "skewness",
    "count",
    "q_highest_bid",
    "q_avg_price",
    "q_category_volume",
)

#: Benchmarks used by the optional synthesis-wall-clock comparison (quick
#: tasks, so the comparison stays in CI-smoke territory).
DEFAULT_SYNTHESIS_TASKS = ("mean", "variance", "count", "max", "q_highest_bid")


def make_stream(element_arity: int, n: int, kind: str = "int") -> list[Value]:
    """A deterministic element stream.

    ``int`` (default) models realistic event data — prices, counts, ticks —
    where per-op arithmetic is cheap and per-element overhead is what the
    benchmark should expose.  ``fraction`` stresses exact-rational
    arithmetic instead (gcd-heavy, the equivalence-oracle regime).
    """
    if kind == "int":
        scalars = [1 + (i * 7919) % 997 for i in range(n)]
    elif kind == "fraction":
        scalars = [Fraction(i % 23) + Fraction(1, 1 + i % 5) for i in range(n)]
    else:
        raise ValueError(f"unknown stream kind {kind!r} (use int or fraction)")
    if element_arity <= 1:
        return scalars
    return [(value, (i * 31) % 5) for i, value in enumerate(scalars)]


def _time_steps(step, initializer, stream, extra, repeats: int) -> tuple[list[float], tuple]:
    """Per-repeat wall-clocks for folding ``stream`` through ``step``;
    returns (seconds per repeat, final state)."""
    times = []
    final = initializer
    for _ in range(repeats):
        state = initializer
        start = time.perf_counter()
        for element in stream:
            state = step(state, element, extra)
        times.append(time.perf_counter() - start)
        final = state
    return times, final


def _time_kernel(kernel, initializer, stream, extra, repeats: int) -> tuple[list[float], tuple]:
    """Per-repeat wall-clocks for one whole-batch kernel call each."""
    times = []
    final = initializer
    for _ in range(repeats):
        start = time.perf_counter()
        state, consumed = kernel.run(initializer, stream, extra)
        elapsed = time.perf_counter() - start
        if consumed != len(stream):
            raise AssertionError(f"batch kernel consumed {consumed} of {len(stream)} elements")
        times.append(elapsed)
        final = state
    return times, final


def _stream_bounds(stream, element_arity: int, elements: int, extra_params=()):
    """Concrete :class:`~repro.ir.analysis.AnalysisBounds` for the measured
    stream (tight per-field min/max, integrality, length) — the admission
    certificate for the columnar backend is judged against exactly the data
    the benchmark will push (extras are the bench's fixed binding of 500)."""
    from ..ir.analysis import AnalysisBounds, FieldBounds

    rows = [(v,) for v in stream] if element_arity <= 1 else stream
    fields = []
    for i in range(max(element_arity, 1)):
        col = [row[i] for row in rows]
        integral = all(
            isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
            for v in col
        )
        fields.append(FieldBounds(lo=min(col), hi=max(col), integral=integral))
    extras = {name: FieldBounds(lo=500, hi=500, integral=True) for name in extra_params}
    return AnalysisBounds(element=tuple(fields), max_elements=elements, extras=extras,
                          source="bench-stream")


def _bench_columnar(scheme, stream, element_arity: int, extra, elements: int,
                    repeats: int, backend: str):
    """Time the columnar kernel when admission grants it; returns ``None``
    when the scheme stays on the exact path (NumPy absent, uncertified, or
    int64-only policy under ``backend="auto"``)."""
    bounds = _stream_bounds(stream, element_arity, elements, scheme.program.extra_params)
    kernel = scheme.compiled_columns(bounds, allow_float=backend == "columnar")
    if kernel is None:
        return None
    times, state = _time_kernel(kernel, scheme.initializer, stream, extra, repeats)
    return {"kernel": kernel, "times": times, "state": state, "domain": kernel.domain}


def bench_scheme(
    benchmark, elements: int, repeats: int, stream_kind: str = "int",
    backend: str = "exact",
) -> dict:
    """Throughput of one suite benchmark's ground-truth scheme — interpreted
    step, compiled scalar step, and whole-batch kernel — with the final
    states differential-checked across all three.  Headline numbers stay
    best-of-``repeats``; the per-repeat raw wall-clocks ride along under
    ``raw`` for the significance layer.

    ``backend="auto"``/``"columnar"`` additionally times the NumPy columnar
    kernel where admission grants it (``columnar_eps``/``columnar_speedup``
    columns); its final state is differential-checked too — bit-identical
    in the int64 domain, within float tolerance for the float64 opt-in.
    """
    scheme = benchmark.ground_truth
    if scheme is None:
        raise ValueError(f"benchmark {benchmark.name!r} has no ground-truth scheme")
    stream = make_stream(benchmark.element_arity, elements, stream_kind)
    extra = {name: 500 for name in scheme.program.extra_params}

    interpreted = scheme.interpreted_step
    compiled = scheme.compiled_step()
    kernel = scheme.compiled_kernel()
    times_interp, state_interp = _time_steps(
        interpreted, scheme.initializer, stream, extra, repeats
    )
    times_compiled, state_compiled = _time_steps(
        compiled, scheme.initializer, stream, extra, repeats
    )
    times_batch, state_batch = _time_kernel(kernel, scheme.initializer, stream, extra, repeats)
    if not (state_interp == state_compiled == state_batch):
        raise AssertionError(
            f"execution backends diverged on {benchmark.name!r}: "
            f"interpreted {state_interp!r}, compiled {state_compiled!r}, "
            f"batch {state_batch!r}"
        )
    t_interp = min(times_interp)
    t_compiled = min(times_compiled)
    t_batch = min(times_batch)
    entry = {
        "domain": benchmark.domain,
        "element_arity": benchmark.element_arity,
        "interpreted_eps": elements / t_interp,
        "compiled_eps": elements / t_compiled,
        "batch_eps": elements / t_batch,
        "speedup": t_interp / t_compiled,
        "batch_speedup": t_compiled / t_batch,
        "raw": {
            "interpreted_s": times_interp,
            "compiled_s": times_compiled,
            "batch_s": times_batch,
        },
        "states_match": True,
    }
    columnar = None
    if backend in ("auto", "columnar"):
        columnar = _bench_columnar(
            scheme, stream, benchmark.element_arity, extra, elements, repeats, backend
        )
    if columnar is not None:
        from ..ir.values import values_close

        if columnar["domain"] == "int64":
            if columnar["state"] != state_batch:
                raise AssertionError(
                    f"int64 columnar kernel diverged on {benchmark.name!r}: "
                    f"{columnar['state']!r} != {state_batch!r}"
                )
        else:
            exact_floats = tuple(
                float(v) if isinstance(v, Fraction) else v for v in state_batch
            )
            if not all(values_close(a, b) for a, b in zip(columnar["state"], exact_floats)):
                raise AssertionError(
                    f"float64 columnar kernel diverged on {benchmark.name!r}: "
                    f"{columnar['state']!r} vs {state_batch!r}"
                )
        t_columnar = min(columnar["times"])
        entry["columnar_eps"] = elements / t_columnar
        entry["columnar_speedup"] = t_batch / t_columnar
        entry["columnar_domain"] = columnar["domain"]
        entry["raw"]["columnar_s"] = columnar["times"]
    return entry


def _timed_suite(benches, timeout_s: float, workers: int) -> float:
    """Wall-clock of one uncached suite run under the current REPRO_JIT."""
    from ..baselines import OperaFull
    from ..core import SynthesisConfig
    from .runner import run_suite

    config = SynthesisConfig(timeout_s=timeout_s)
    start = time.perf_counter()
    run_suite(OperaFull(), benches, config, workers=workers, cache=None)
    return time.perf_counter() - start


def synthesis_comparison(tasks: Sequence[str], timeout_s: float, workers: int) -> dict:
    """Synthesis wall-clock with and without oracle compilation.

    The result cache is bypassed (both runs must actually synthesize), and
    ``REPRO_JIT`` is toggled around otherwise-identical suite runs; the
    oracle's compiled and interpreted paths are behaviourally identical, so
    both runs find the same schemes.
    """
    from ..suites import get_benchmark

    benches = [get_benchmark(name) for name in tasks]
    saved = os.environ.get("REPRO_JIT")
    try:
        os.environ["REPRO_JIT"] = "1"
        jit_wall = _timed_suite(benches, timeout_s, workers)
        os.environ["REPRO_JIT"] = "0"
        nojit_wall = _timed_suite(benches, timeout_s, workers)
    finally:
        if saved is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = saved
    return {
        "tasks": list(tasks),
        "timeout_s": timeout_s,
        "workers": workers,
        "jit_wall_s": jit_wall,
        "nojit_wall_s": nojit_wall,
        "speedup": nojit_wall / jit_wall if jit_wall > 0 else 1.0,
    }


def run_runtime_benchmark(
    schemes: Sequence[str] | None = None,
    *,
    elements: int = 4000,
    repeats: int = 3,
    stream_kind: str = "int",
    synthesis: bool = False,
    synthesis_tasks: Sequence[str] | None = None,
    synthesis_timeout_s: float = 10.0,
    workers: int = 1,
    backend: str = "exact",
) -> dict:
    """The full throughput report (the payload of ``BENCH_runtime.json``)."""
    from ..suites import get_benchmark

    from .history import bench_metadata

    names = tuple(schemes) if schemes else DEFAULT_SCHEMES
    benches = [get_benchmark(name) for name in names]
    per_scheme = {
        bench.name: bench_scheme(bench, elements, repeats, stream_kind, backend=backend)
        for bench in benches
    }
    speedups = [entry["speedup"] for entry in per_scheme.values()]
    batch_speedups = [entry["batch_speedup"] for entry in per_scheme.values()]
    summary = {
        "median_speedup": statistics.median(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "median_batch_speedup": statistics.median(batch_speedups),
        "max_batch_speedup": max(batch_speedups),
    }
    columnar_speedups = [
        entry["columnar_speedup"] for entry in per_scheme.values()
        if "columnar_speedup" in entry
    ]
    if columnar_speedups:
        summary["median_columnar_speedup"] = statistics.median(columnar_speedups)
        summary["max_columnar_speedup"] = max(columnar_speedups)
    report = {
        "format": BENCH_FORMAT,
        "version": BENCH_FORMAT_VERSION,
        "meta": bench_metadata(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "elements": elements,
        "repeats": repeats,
        "stream": stream_kind,
        "backend": backend,
        "schemes": per_scheme,
        "summary": summary,
    }
    if synthesis:
        report["synthesis"] = synthesis_comparison(
            tuple(synthesis_tasks or DEFAULT_SYNTHESIS_TASKS),
            synthesis_timeout_s,
            workers,
        )
    return report


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_report(report: dict) -> str:
    """Human-readable table for the CLI."""
    columnar = any("columnar_eps" in e for e in report["schemes"].values())
    header = (
        f"{'scheme':<22} {'interpreted':>13} {'compiled':>12} {'batch':>12} "
        f"{'jit':>7} {'batch':>7}"
    )
    if columnar:
        header += f" {'columnar':>13} {'col':>8}"
    lines = [
        f"runtime throughput ({report['elements']} elements, "
        f"best of {report['repeats']}, {report['stream']} stream, "
        f"{report.get('cpu_count', '?')} core(s))",
        header,
    ]
    for name, entry in report["schemes"].items():
        line = (
            f"{name:<22} {entry['interpreted_eps']:>10.0f} eps "
            f"{entry['compiled_eps']:>9.0f} eps {entry['batch_eps']:>9.0f} eps "
            f"{entry['speedup']:>6.1f}x {entry['batch_speedup']:>6.2f}x"
        )
        if columnar:
            if "columnar_eps" in entry:
                line += (
                    f" {entry['columnar_eps']:>10.0f} eps "
                    f"{entry['columnar_speedup']:>6.1f}x"
                )
            else:
                line += f" {'(exact)':>13} {'—':>8}"
        lines.append(line)
    summary = report["summary"]
    median_line = (
        f"{'median':<22} {'':>13} {'':>12} {'':>12} "
        f"{summary['median_speedup']:>6.1f}x "
        f"{summary['median_batch_speedup']:>6.2f}x"
    )
    if "median_columnar_speedup" in summary:
        median_line += f" {'':>13} {summary['median_columnar_speedup']:>6.1f}x"
    lines.append(median_line)
    synth = report.get("synthesis")
    if synth:
        lines.append(
            f"synthesis wall-clock on {len(synth['tasks'])} tasks "
            f"(uncached, workers={synth['workers']}): "
            f"jit {synth['jit_wall_s']:.2f}s vs no-jit {synth['nojit_wall_s']:.2f}s "
            f"({synth['speedup']:.2f}x)"
        )
    return "\n".join(lines)
