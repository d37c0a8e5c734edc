"""Runtime benchmark — the *point* of online algorithms.

Not a paper table, but the motivation behind all of them (Section 1): an
online scheme processes each element in O(1) work and O(1) memory, whereas
re-running the batch program on every prefix costs O(n) per element (O(n^2)
total).  This file measures three regimes on the variance scheme:

* online (compiled scheme step, the default) vs per-prefix batch — the
  asymptotic win of the paper;
* compiled vs interpreted scheme steps — the constant-factor win of the
  codegen backend (:mod:`repro.ir.compile`), also exported as the
  ``BENCH_runtime.json`` throughput report (same machinery as
  ``repro bench runtime`` and the CI perf smoke job).

Run:  pytest benchmarks/bench_runtime.py --benchmark-only -s
"""

import time
from fractions import Fraction

import pytest

from repro.baselines import OperaFull
from repro.core import SynthesisConfig
from repro.evaluation import (
    compare_reports,
    comparison_exit_code,
    resolve_cache,
    run_suite,
)
from repro.evaluation.runtime_bench import (
    DEFAULT_SCHEMES,
    format_report,
    run_runtime_benchmark,
    write_report,
)
from repro.ir import run_offline
from repro.runtime import OnlineOperator
from repro.suites import get_benchmark

STREAM = [Fraction(i % 23) + Fraction(1, 1 + (i % 5)) for i in range(400)]


@pytest.fixture(scope="module")
def variance_scheme():
    bench = get_benchmark("variance")
    suite = run_suite(
        OperaFull(),
        [bench],
        SynthesisConfig(timeout_s=60),
        cache=resolve_cache(),  # the scheme, not its synthesis, is timed here
    )
    report = suite.reports["variance"]
    assert report.success
    return bench.program, report.scheme


def test_online_per_prefix(benchmark, variance_scheme):
    _, scheme = variance_scheme

    def run_online():
        op = OnlineOperator(scheme)
        for x in STREAM:
            op.push(x)
        return op.value

    result = benchmark(run_online)
    assert result is not None


def test_batch_per_prefix(benchmark, variance_scheme):
    program, _ = variance_scheme
    prefix = STREAM[:60]  # quadratic regime: keep the benchmark bounded

    def run_batch_every_prefix():
        out = None
        for i in range(1, len(prefix) + 1):
            out = run_offline(program, prefix[:i])
        return out

    result = benchmark(run_batch_every_prefix)
    assert result is not None


def test_asymptotic_win(variance_scheme):
    """Online beats per-prefix batch recomputation, increasingly with n."""
    program, scheme = variance_scheme

    def time_online(n):
        start = time.perf_counter()
        op = OnlineOperator(scheme)
        for x in STREAM[:n]:
            op.push(x)
        return time.perf_counter() - start, op.value

    def time_batch(n):
        start = time.perf_counter()
        out = None
        for i in range(1, n + 1):
            out = run_offline(program, STREAM[:i])
        return time.perf_counter() - start, out

    n = 120
    online_t, online_v = time_online(n)
    batch_t, batch_v = time_batch(n)
    assert online_v == batch_v  # same answer
    speedup = batch_t / online_t
    print(f"\nn={n}: online {online_t*1000:.1f} ms, per-prefix batch "
          f"{batch_t*1000:.1f} ms, speedup {speedup:.1f}x")
    assert speedup > 3.0


def test_batch_kernel_push_many(benchmark, variance_scheme):
    """The whole-batch StepKernel on the same stream as
    test_online_per_prefix (which pushes per element through the scalar
    closure) — the pair quantifies the loop-compilation win."""
    _, scheme = variance_scheme

    def run_batched():
        op = OnlineOperator(scheme)
        op.push_many(STREAM)
        return op.value

    result = benchmark(run_batched)
    assert result is not None


def test_interpreted_vs_compiled_step(benchmark, variance_scheme):
    """The interpreter backend on the same loop as test_online_per_prefix
    (which runs compiled by default) — the pair quantifies the codegen win
    in pytest-benchmark's own tables."""
    _, scheme = variance_scheme
    interpreted = scheme.interpreted_step

    def run_interpreted():
        state = scheme.initializer
        for x in STREAM:
            state = interpreted(state, x, None)
        return state[0]

    result = benchmark(run_interpreted)
    assert result is not None


def test_throughput_report(variance_scheme):
    """The BENCH_runtime.json report: every default scheme must run faster
    compiled than interpreted (generous slack), and the
    report's built-in differential check must hold."""
    report = run_runtime_benchmark(DEFAULT_SCHEMES, elements=1000, repeats=2)
    print()
    print(format_report(report))
    # Format v3 invariants: raw per-repeat timings and provenance ride
    # along for `repro bench compare`.
    assert report["version"] == 3
    assert {"git_commit", "timestamp", "clock"} <= set(report["meta"])
    for name, entry in report["schemes"].items():
        assert entry["states_match"], name
        assert entry["speedup"] > 1.2, (name, entry)
        # The batch kernel is differential-checked too; its speedup is a
        # regime property (overhead-bound vs arithmetic-bound), so only
        # sanity-bound it here; `repro bench compare` judges the trend.
        assert entry["batch_speedup"] > 0.5, (name, entry)
        for key in ("interpreted_s", "compiled_s", "batch_s"):
            assert len(entry["raw"][key]) == report["repeats"], (name, key)
    # A report never significantly regresses against itself (on capable
    # machines it is no-significant-change throughout; constrained
    # environments yield explicit incomparable verdicts, never a failure).
    comparison = compare_reports(report, report)
    assert comparison_exit_code(comparison) == 0
    assert comparison["summary"]["regressed"] == 0
    try:
        write_report(report, "BENCH_runtime.json")
    except OSError:
        pass  # read-only working directory: the artifact is best-effort
