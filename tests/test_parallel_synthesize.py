"""Tests for intra-task parallel synthesis (one process-pool job per sketch
hole) and the shared :class:`repro.supervisor.ProcessSupervisor`."""

import multiprocessing as mp
import os
import time
from fractions import Fraction

import pytest
from test_enumerative_grammar import built_per_tier, record_tiers

import repro.core.enumerative as enumerative
from repro.core import SynthesisConfig, synthesize
from repro.evaluation import default_hole_workers
from repro.evaluation.hole_bench import hole_bench_targets
from repro.store import synthesis_key
from repro.suites import get_benchmark
from repro.supervisor import Job, ProcessSupervisor

#: Multi-hole suite benchmarks covering every solve method (implicate,
#: template, enumerative) — the determinism suite of the hole-sharding PR.
MULTI_HOLE = ("variance", "harmonic_mean", "covariance", "correlation")


def _comparable(report):
    """Everything a report contains except wall-clock."""
    return (
        report.task,
        report.success,
        report.scheme,
        [(h.hole_id, h.method, h.spec_size, h.solution_size) for h in report.holes],
        report.method_counts,
        report.failure_reason,
    )


def _synthesize(name, **config_kwargs):
    bench = get_benchmark(name)
    config = SynthesisConfig(
        timeout_s=60, element_arity=bench.element_arity, **config_kwargs
    )
    return synthesize(bench.program, config, name)


class TestHoleShardingDeterminism:
    @pytest.mark.parametrize("name", MULTI_HOLE)
    def test_reports_identical_across_hole_workers(self, name):
        """The contract of the feature: hole_workers is an execution knob,
        never a search knob — byte-identical reports modulo elapsed_s."""
        reports = {
            hw: _synthesize(name, hole_workers=hw) for hw in (1, 2, 4)
        }
        assert reports[1].success
        assert len(reports[1].holes) >= 2  # actually exercises the pool
        expected = _comparable(reports[1])
        assert _comparable(reports[2]) == expected
        assert _comparable(reports[4]) == expected

    def test_stress_benchmarks_identical_across_hole_workers(self):
        """The balanced-holes stress tasks of `bench holes` obey the same
        contract (they are the tasks the CI speedup gate runs)."""
        bench = hole_bench_targets()["stress_moments"]
        reports = {}
        for hw in (1, 2):
            config = SynthesisConfig(timeout_s=120, hole_workers=hw)
            reports[hw] = synthesize(bench.program, config, bench.name)
        assert reports[1].success
        assert len(reports[1].holes) >= 4
        assert _comparable(reports[1]) == _comparable(reports[2])

    def test_deterministic_failures_identical_across_hole_workers(self, monkeypatch):
        """A deterministic failure (an enumeration tier over budget, not
        wall-clock) replays with the same stated reason in any process, and
        the over-budget tier builds no candidate."""
        calls = record_tiers(monkeypatch)
        monkeypatch.setattr(enumerative, "BUDGET", 40)  # forked workers inherit it
        reports = {
            hw: _synthesize("variance", use_symbolic=False, hole_workers=hw) for hw in (1, 2)
        }
        assert _comparable(reports[1]) == _comparable(reports[2])
        tiers, stats = calls[-1]  # the failing hole, recorded in this process
        count, _ = tiers[-1]
        assert count > 40 and all(c <= 40 for c, _ in tiers[:-1])
        assert built_per_tier(tiers, stats)[-1] == 0
        assert not reports[1].success
        assert reports[1].failure_reason.startswith("HoleSynthesisFailure: hole □")
        assert reports[1].failure_reason.endswith(
            f": search space of {count} programs at size {len(tiers)} exceeds budget 40"
        )

    def test_budget_still_bounds_the_whole_task(self):
        """The hard wall-clock guarantee survives hole-level dispatch: no
        sub-task outlives the task budget by more than the kill grace."""
        bench = get_benchmark("kurtosis")  # the paper's expected failure
        config = SynthesisConfig(timeout_s=1.0, hole_workers=2)
        start = time.monotonic()
        report = synthesize(bench.program, config, "kurtosis")
        wall = time.monotonic() - start
        assert not report.success
        assert wall < 10.0


class TestCacheKeyStability:
    def test_fingerprint_excludes_hole_workers(self):
        base = SynthesisConfig()
        assert base.fingerprint() == SynthesisConfig(hole_workers=8).fingerprint()

    def test_cache_key_unchanged_by_hole_workers(self):
        program = get_benchmark("variance").program
        sequential = synthesis_key(
            "opera", program, SynthesisConfig(timeout_s=10, hole_workers=1)
        )
        parallel = synthesis_key(
            "opera", program, SynthesisConfig(timeout_s=10, hole_workers=4)
        )
        assert sequential == parallel

    def test_default_hole_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOLE_WORKERS", "3")
        assert default_hole_workers() == 3
        monkeypatch.setenv("REPRO_HOLE_WORKERS", "zero")
        with pytest.raises(ValueError, match="REPRO_HOLE_WORKERS"):
            default_hole_workers()
        monkeypatch.delenv("REPRO_HOLE_WORKERS")
        assert default_hole_workers() == 1


# -- the shared supervisor ---------------------------------------------------
# Payload functions are module-level so they pickle under spawn contexts.


def _payload_return(value):
    return value


def _payload_raise():
    raise RuntimeError("boom")


def _payload_exit():
    os._exit(3)


def _payload_sleep(seconds):
    time.sleep(seconds)
    return "done"


def _payload_bytes(size):
    return b"x" * size


class TestProcessSupervisor:
    def test_ok_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(
            sup.run([Job("k", _payload_return, (Fraction(1, 3),), 10.0)])
        )
        assert (result.kind, result.value) == ("ok", Fraction(1, 3))
        assert result.job.key == "k"

    def test_error_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_raise, (), 10.0)]))
        assert result.kind == "error"
        assert "RuntimeError: boom" in result.message

    def test_crash_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_exit, (), 10.0)]))
        assert (result.kind, result.exitcode) == ("crashed", 3)

    def test_timeout_kills_at_deadline(self):
        sup = ProcessSupervisor(workers=1)
        start = time.monotonic()
        [result] = list(sup.run([Job("k", _payload_sleep, (30.0,), 0.4)]))
        assert result.kind == "timeout"
        assert time.monotonic() - start < 5.0

    def test_result_larger_than_the_pipe_buffer_is_ok(self):
        """A child blocked sending a big result must be read, not killed at
        its deadline and reported as a timeout."""
        sup = ProcessSupervisor(workers=1)
        start = time.monotonic()
        [result] = list(sup.run([Job("k", _payload_bytes, (1 << 20,), 3.0)]))
        assert result.kind == "ok"
        assert result.value == b"x" * (1 << 20)
        assert time.monotonic() - start < 5.0

    def test_global_deadline_caps_generous_job_budgets(self):
        sup = ProcessSupervisor(workers=1)
        start = time.monotonic()
        [result] = list(
            sup.run(
                [Job("k", _payload_sleep, (30.0,), 60.0)],
                deadline=time.monotonic() + 0.4,
            )
        )
        assert result.kind == "timeout"
        assert time.monotonic() - start < 5.0

    def test_close_kills_active_and_drops_pending(self):
        """Closing ``run()`` after the first result is how hole-parallel
        synthesis stops the other holes once one fails decisively."""
        sup = ProcessSupervisor(workers=2)
        jobs = [
            Job("first", _payload_return, (1,), 60.0),
            Job("active", _payload_sleep, (30.0,), 60.0),  # running at close
            Job("pending", _payload_sleep, (30.0,), 60.0),  # queued at close
        ]
        start = time.monotonic()
        results = sup.run(jobs)
        first = next(results)
        results.close()
        assert (first.job.key, first.kind) == ("first", "ok")
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []
        assert time.monotonic() - start < 10.0

    def test_wait_is_deadline_driven_not_polling(self, monkeypatch):
        """The supervisor must sleep until min(deadline, event) — the old
        100 ms wait cap busy-woke it ~10x per idle second."""
        import multiprocessing.connection as mpc

        calls = []
        real_wait = mpc.wait

        def counting_wait(handles, timeout=None):
            calls.append(timeout)
            return real_wait(handles, timeout=timeout)

        monkeypatch.setattr(mpc, "wait", counting_wait)
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_sleep, (1.2,), 30.0)]))
        assert result.kind == "ok"
        # One wait spanning the whole sleep (plus scheduling slack), not a
        # dozen 100 ms naps.
        assert len(calls) <= 4
        assert max(calls) > 5.0  # the wait actually extended to the deadline
