"""Runtime benchmark — the *point* of online algorithms.

Not a paper table, but the motivation behind all of them (Section 1): an
online scheme processes each element in O(1) work and O(1) memory, whereas
re-running the batch program on every prefix costs O(n) per element (O(n^2)
total).  This file measures three regimes on the variance scheme:

* online (compiled scheme step, the default) vs per-prefix batch — the
  asymptotic win of the paper;
* compiled vs interpreted scheme steps — the constant-factor win of the
  codegen backend (:mod:`repro.ir.compile`).

End-to-end deployment throughput is measured by ``perfbench/``.

Run:  pytest benchmarks/bench_runtime.py --benchmark-only -s
"""

import time
from fractions import Fraction

import pytest

from repro.baselines import OperaFull
from repro.core import SynthesisConfig
from repro.evaluation import resolve_cache, run_suite
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


def test_compiled_step_beats_interpreter(variance_scheme):
    """The compiled scalar step ends in the interpreter's state and beats it
    by more than 1.2x (best of three folds each)."""
    _, scheme = variance_scheme

    def fold(step):
        best, state = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            state = scheme.initializer
            for x in STREAM:
                state = step(state, x, None)
            best = min(best, time.perf_counter() - start)
        return best, state

    interpreted_t, interpreted_state = fold(scheme.interpreted_step)
    compiled_t, compiled_state = fold(scheme.compiled_step())
    assert compiled_state == interpreted_state
    speedup = interpreted_t / compiled_t
    print(f"\ncompiled step {speedup:.1f}x faster than the interpreter")
    assert speedup > 1.2
