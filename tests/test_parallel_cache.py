"""Tests for the parallel suite runner and the persistent result cache."""

import multiprocessing as mp
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.baselines import OperaFull
from repro.core import SynthesisConfig
from repro.core.report import SynthesisReport
from repro.evaluation import (
    ResultCache,
    Task,
    default_timeout,
    default_workers,
    execute_tasks,
    resolve_cache,
    run_suite,
)
from repro.evaluation.runner import SuiteResult
from repro.suites import get_benchmark


class RunawaySolver:
    """Ignores the cooperative budget entirely — must be hard-killed."""

    name = "runaway"

    def synthesize(self, program, config, task_name):
        while True:
            time.sleep(0.02)


class CrashingSolver:
    name = "crashy"

    def synthesize(self, program, config, task_name):
        raise RuntimeError("boom")


class DyingSolver:
    """Exits without reporting, as a segfaulting native helper would."""

    name = "dying"

    def synthesize(self, program, config, task_name):
        os._exit(3)


class DaemonProbeSolver:
    """Reports whether the worker process it runs in is daemonic."""

    name = "daemon-probe"

    def synthesize(self, program, config, task_name):
        return SynthesisReport(
            task=task_name, success=False, elapsed_s=0.0,
            failure_reason=f"daemon={mp.current_process().daemon}",
        )


def small_suite():
    return [get_benchmark(n) for n in ("sum", "mean", "max")]


class TestHardTimeout:
    def test_runaway_worker_is_killed_at_budget(self):
        tasks = [
            Task(0, RunawaySolver(), get_benchmark("sum"),
                 SynthesisConfig(timeout_s=0.6))
        ]
        start = time.monotonic()
        [(_, report)] = list(execute_tasks(tasks, workers=1))
        wall = time.monotonic() - start
        assert not report.success
        assert "Timeout" in report.failure_reason
        assert report.elapsed_s == 0.6  # the budget, as in the paper's regime
        assert wall < 5.0

    def test_siblings_not_stalled_by_runaway(self):
        """A runaway task must not delay other workers past its own budget."""
        runaway = Task(0, RunawaySolver(), get_benchmark("sum"),
                       SynthesisConfig(timeout_s=1.0))
        quick = [
            Task(i + 1, OperaFull(), bench, SynthesisConfig(timeout_s=20))
            for i, bench in enumerate(small_suite())
        ]
        start = time.monotonic()
        results = dict()
        for task, report in execute_tasks([runaway] + quick, workers=4):
            results[task.index] = report
        wall = time.monotonic() - start
        assert not results[0].success
        assert all(results[i].success for i in (1, 2, 3))
        assert wall < 10.0

    def test_crashing_solver_reports_failure(self):
        tasks = [Task(0, CrashingSolver(), get_benchmark("sum"),
                      SynthesisConfig(timeout_s=5))]
        [(_, report)] = list(execute_tasks(tasks, workers=1))
        assert not report.success
        assert "RuntimeError" in report.failure_reason

    def test_dead_worker_reports_crash(self):
        tasks = [Task(0, DyingSolver(), get_benchmark("sum"),
                      SynthesisConfig(timeout_s=5))]
        [(_, report)] = list(execute_tasks(tasks, workers=1))
        assert not report.success
        assert "WorkerCrashed" in report.failure_reason

    def test_run_suite_applies_hard_kill(self):
        result = run_suite(
            RunawaySolver(), small_suite(), SynthesisConfig(timeout_s=0.5),
            workers=3,
        )
        assert len(result.reports) == 3
        assert all("Timeout" in r.failure_reason
                   for r in result.reports.values())


class TestNestedWorkers:
    def test_hole_workers_make_bench_workers_non_daemonic(self):
        """Daemonic processes may not have children, so a task that asks
        for hole workers must run in a non-daemonic bench worker."""
        for hole_workers, daemon in ((1, True), (2, False)):
            config = SynthesisConfig(timeout_s=5, hole_workers=hole_workers)
            tasks = [Task(0, DaemonProbeSolver(), get_benchmark("sum"), config)]
            [(_, report)] = list(execute_tasks(tasks, workers=1))
            assert report.failure_reason == f"daemon={daemon}"


class TestDeterminism:
    def test_parallel_equals_sequential(self):
        config = SynthesisConfig(timeout_s=20)
        seq = run_suite(OperaFull(), small_suite(), config)
        par = run_suite(OperaFull(), small_suite(), config, workers=3)
        assert list(par.reports) == list(seq.reports)  # benchmark order
        for name, expected in seq.reports.items():
            got = par.reports[name]
            assert got.success == expected.success
            assert got.scheme == expected.scheme
            assert got.holes == expected.holes
            assert got.method_counts == expected.method_counts
            assert got.failure_reason == expected.failure_reason

    def test_report_and_config_are_picklable(self):
        config = SynthesisConfig(timeout_s=5)
        config.start_clock()
        clone = pickle.loads(pickle.dumps(config))
        assert clone._deadline is None  # deadlines never cross processes
        assert clone.fingerprint() == config.fingerprint()

        bench = get_benchmark("mean")
        report = OperaFull().synthesize(
            bench.program, SynthesisConfig(timeout_s=20), "mean"
        )
        assert pickle.loads(pickle.dumps(report)).scheme == report.scheme


class TestCache:
    def _run(self, cache, config=None, solver=None):
        return run_suite(
            solver or OperaFull(),
            small_suite(),
            config or SynthesisConfig(timeout_s=20),
            cache=cache,
        )

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._run(cache)
        assert (cache.hits, cache.misses) == (0, 3)
        again = self._run(cache)
        assert cache.hits == 3
        for name in first.reports:
            assert again.reports[name].scheme == first.reports[name].scheme
            # Cached reports replay even elapsed_s verbatim.
            assert again.reports[name].elapsed_s == first.reports[name].elapsed_s

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._run(cache)
        cache.hits = cache.misses = 0
        self._run(cache, config=SynthesisConfig(timeout_s=20, unroll_depth=4))
        assert cache.hits == 0 and cache.misses == 3

    def test_timeout_change_does_not_invalidate_successes(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._run(cache, config=SynthesisConfig(timeout_s=20))
        cache.hits = cache.misses = 0
        self._run(cache, config=SynthesisConfig(timeout_s=30))
        assert cache.hits == 3

    def test_failures_rerun_under_larger_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        bench = get_benchmark("sum")
        key = cache.task_key("opera", bench, SynthesisConfig(timeout_s=1))
        failure = SynthesisReport("sum", False, 1.0, failure_reason="Timeout")
        cache.put(key, 1.0, failure)
        assert cache.get(key, 0.5) is not None  # smaller budget: still fails
        assert cache.get(key, 5.0) is None      # larger budget: worth a retry

    def test_benchmark_fingerprint_keys_task_content(self):
        sum_bench = get_benchmark("sum")
        assert sum_bench.source_fingerprint() == sum_bench.source_fingerprint()
        assert (sum_bench.source_fingerprint()
                != get_benchmark("mean").source_fingerprint())
        # Doc-only edits do not invalidate cached results.
        redoc = replace(sum_bench, description="something else")
        assert redoc.source_fingerprint() == sum_bench.source_fingerprint()

    def test_config_fingerprint_ignores_budget_only(self):
        base = SynthesisConfig()
        assert base.fingerprint() == SynthesisConfig(timeout_s=999).fingerprint()
        assert base.fingerprint() != SynthesisConfig(unroll_depth=4).fingerprint()
        assert base.fingerprint() != SynthesisConfig(seed=7).fingerprint()

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        bench = get_benchmark("sum")
        key = cache.task_key("opera", bench, SynthesisConfig(timeout_s=5))
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key, 5.0) is None

    def test_foreign_entry_shapes_degrade_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        bench = get_benchmark("sum")
        key = cache.task_key("opera", bench, SynthesisConfig(timeout_s=5))
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        for foreign in ({"a": 1}, (1, 2, 3), ("x", SynthesisReport("s", True, 0.1))):
            path.write_bytes(pickle.dumps(foreign))
            assert cache.get(key, 5.0) is None

    def test_worker_crashes_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        suite = run_suite(
            DyingSolver(), [get_benchmark("sum")],
            SynthesisConfig(timeout_s=5), workers=2, cache=cache,
        )
        assert "WorkerCrashed" in suite.reports["sum"].failure_reason
        # An environment failure must not be replayed on the next run.
        cache.hits = cache.misses = 0
        run_suite(
            DyingSolver(), [get_benchmark("sum")],
            SynthesisConfig(timeout_s=5), workers=2, cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 1)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._run(cache)
        assert cache.clear() == 3
        assert cache.clear() == 0

    def test_resolve_cache_knobs(self, tmp_path, monkeypatch):
        assert resolve_cache(enabled=False) is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        cache = resolve_cache()
        assert cache is not None and cache.root == tmp_path / "here"


class TestEnvValidation:
    def test_default_timeout_rejects_garbage(self, monkeypatch):
        for bad in ("abc", "-5", "0", "inf", "nan"):
            monkeypatch.setenv("REPRO_BENCH_TIMEOUT", bad)
            with pytest.raises(ValueError, match="REPRO_BENCH_TIMEOUT"):
                default_timeout()

    def test_default_timeout_accepts_numbers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "42.5")
        assert default_timeout() == 42.5

    def test_default_workers_rejects_garbage(self, monkeypatch):
        for bad in ("two", "0", "-3", "1.5"):
            monkeypatch.setenv("REPRO_BENCH_WORKERS", bad)
            with pytest.raises(ValueError, match="REPRO_BENCH_WORKERS"):
                default_workers()

    def test_default_workers_accepts_integers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "8")
        assert default_workers() == 8
        monkeypatch.delenv("REPRO_BENCH_WORKERS")
        assert default_workers(fallback=3) == 3


class TestSuiteResultHelpers:
    def test_average_time_default_param(self):
        empty = SuiteResult(solver="none")
        assert empty.average_time(default=0.0) == 0.0

    def test_merged(self):
        a = SuiteResult(solver="s")
        a.reports["x"] = SynthesisReport("x", True, 0.1)
        b = SuiteResult(solver="s")
        b.reports["y"] = SynthesisReport("y", False, 0.2)
        merged = SuiteResult.merged("s", [a, b])
        assert set(merged.reports) == {"x", "y"}


class TestCliIntegration:
    def test_bench_workers_and_cache_flags(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "bench", "stats", "--task", "sum", "--task", "max",
            "--workers", "2", "--timeout", "20",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2/2 solved" in out
        assert "0 hits, 2 misses" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 hits, 0 misses" in out

    def test_bench_rejects_bad_timeout_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "soon")
        assert main(["bench", "--task", "sum"]) == 2
        assert "REPRO_BENCH_TIMEOUT" in capsys.readouterr().err

    def test_bench_rejects_bad_flag_values(self, capsys):
        from repro.cli import main

        # nan/inf would disable both budget mechanisms; negatives are junk.
        for bad in ("nan", "inf", "-5", "0"):
            assert main(["bench", "--task", "sum", "--timeout", bad]) == 2
            assert "--timeout" in capsys.readouterr().err
        assert main(["bench", "--task", "sum", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bench_no_cache(self, capsys):
        from repro.cli import main

        code = main(["bench", "--task", "max", "--timeout", "20", "--no-cache"])
        assert code == 0
        assert "cache:" not in capsys.readouterr().out
