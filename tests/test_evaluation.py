"""Tests for the evaluation harness: runner, tables, CDFs, report export
and the `bench holes` speedup gate."""

import math
import os
import subprocess

import pytest

from repro.baselines import OperaFull
from repro.cli import main
from repro.core import SynthesisConfig
from repro.core.report import SynthesisReport
from repro.evaluation import (
    ascii_cdf,
    bench_metadata,
    cdf_series,
    default_timeout,
    qualitative,
    run_matrix,
    run_suite,
    table1,
    table2,
)
from repro.evaluation import hole_bench
from repro.evaluation.export import git_commit
from repro.evaluation.runner import SuiteResult
from repro.suites import all_benchmarks, get_benchmark


def small_suite():
    return [get_benchmark(n) for n in ("sum", "mean", "max")]


class TestRunner:
    def test_run_suite_collects_all(self):
        result = run_suite(OperaFull(), small_suite(), SynthesisConfig(timeout_s=20))
        assert set(result.reports) == {"sum", "mean", "max"}
        assert result.percent_solved() == 100.0

    def test_element_arity_propagated(self):
        bench = get_benchmark("weighted_mean")
        result = run_suite(OperaFull(), [bench], SynthesisConfig(timeout_s=30))
        assert result.reports["weighted_mean"].success

    def test_run_matrix_keys(self):
        matrix = run_matrix([OperaFull()], small_suite(), SynthesisConfig(timeout_s=20))
        assert set(matrix) == {"opera"}

    def test_average_time_nan_when_empty(self):
        result = SuiteResult(solver="none")
        assert math.isnan(result.average_time())

    def test_default_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "42.5")
        assert default_timeout() == 42.5
        monkeypatch.delenv("REPRO_BENCH_TIMEOUT")
        assert default_timeout(7.0) == 7.0


class TestTables:
    def test_table1_contains_domains(self):
        text = table1(all_benchmarks())
        assert "Stats" in text and "Auction" in text

    def test_table2_renders_matrix(self):
        suite = SuiteResult(solver="opera")
        suite.reports["sum"] = SynthesisReport("sum", True, 0.1)
        text = table2({"opera": {"stats": suite}})
        assert "opera" in text
        assert "100%" in text

    def test_qualitative_counts(self):
        suite = run_suite(OperaFull(), small_suite(), SynthesisConfig(timeout_s=20))
        text = qualitative(small_suite(), suite)
        assert "solved tasks" in text


class TestCdf:
    def _suite(self, times):
        suite = SuiteResult(solver="s")
        for i, t in enumerate(times):
            suite.reports[f"t{i}"] = SynthesisReport(f"t{i}", True, t)
        return suite

    def test_series_is_cumulative(self):
        series = cdf_series(self._suite([1.0, 2.0, 3.0]))
        assert [t for t, _ in series] == [1.0, 3.0, 6.0]
        assert series[-1][1] == 100.0

    def test_series_accounts_for_failures(self):
        suite = self._suite([1.0])
        suite.reports["fail"] = SynthesisReport("fail", False, 5.0)
        series = cdf_series(suite)
        assert series[-1][1] == 50.0

    def test_empty_suite(self):
        assert cdf_series(SuiteResult(solver="e")) == []

    def test_ascii_render(self):
        plot = ascii_cdf({"a": self._suite([0.5, 1.0]), "b": self._suite([2.0])})
        assert "o a" in plot and "x b" in plot
        assert "100%" in plot


class TestExport:
    def _matrix(self):
        suite = SuiteResult(solver="opera")
        suite.reports["sum"] = SynthesisReport("sum", True, 0.25)
        suite.reports["kurtosis"] = SynthesisReport(
            "kurtosis", False, 5.0, failure_reason="SynthesisTimeout: budget"
        )
        return {"opera": suite}

    def test_records(self):
        from repro.evaluation import suite_to_records

        records = suite_to_records(self._matrix()["opera"])
        by_task = {r["task"]: r for r in records}
        assert by_task["sum"]["success"] is True
        assert by_task["kurtosis"]["failure_reason"].startswith("SynthesisTimeout")

    def test_json_roundtrip(self):
        import json

        from repro.evaluation import matrix_to_json

        payload = json.loads(matrix_to_json(self._matrix()))
        assert payload["opera"]["percent_solved"] == 50.0
        assert len(payload["opera"]["tasks"]) == 2

    def test_csv_shape(self):
        from repro.evaluation import matrix_to_csv

        lines = matrix_to_csv(self._matrix()).strip().splitlines()
        assert lines[0].startswith("solver,task,")
        assert len(lines) == 3

    def test_write_artifacts(self, tmp_path):
        from repro.evaluation import write_artifacts

        jp, cp = tmp_path / "m.json", tmp_path / "m.csv"
        write_artifacts(self._matrix(), str(jp), str(cp))
        assert jp.exists() and cp.exists()


class TestMetadata:
    def test_bench_metadata_shape(self):
        meta = bench_metadata()
        assert set(meta) == {"git_commit", "timestamp", "clock"}
        assert meta["timestamp"].endswith("Z")
        assert "monotonic" in meta["clock"]

    def test_git_commit_matches_rev_parse_in_checkout(self):
        expected = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if expected.returncode != 0:
            pytest.skip("not running inside a git checkout")
        assert git_commit() == expected.stdout.strip()

    def test_git_commit_unknown_outside_checkout(self, tmp_path):
        assert git_commit(cwd=str(tmp_path)) == "unknown"


class TestBenchHolesGate:
    """`repro bench holes --assert-speedup` over a canned report: the gate
    is judged without running any synthesis."""

    @staticmethod
    def _canned(speedup):
        # What a 2-CPU host records even when the process is pinned to one.
        return {
            "format": "repro/bench-holes",
            "version": 3,
            "meta": bench_metadata(),
            "python": "3",
            "hole_workers": 2,
            "cpu_count": 2,
            "platform": "test",
            "timeout_s": 60.0,
            "repeats": 1,
            "benchmarks": {
                "stress_moments": {
                    "holes": 2,
                    "success": True,
                    "sequential_s": 1.0,
                    "parallel_s": round(1.0 / speedup, 4),
                    "speedup": speedup,
                    "raw": {"sequential_s": [1.0], "parallel_s": [1.0 / speedup]},
                }
            },
        }

    @pytest.fixture
    def gate(self, monkeypatch, tmp_path):
        """Run the gate over a canned report, on a 2-CPU host of which
        ``usable`` CPUs are open to this process."""

        def run(speedup, usable, bound="1.5"):
            monkeypatch.setattr(
                hole_bench, "run_hole_benchmark", lambda *a, **k: self._canned(speedup)
            )
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            monkeypatch.delattr(os, "process_cpu_count", raising=False)
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False
            )
            out = tmp_path / "BENCH_holes.json"
            code = main(["bench", "holes", "--assert-speedup", bound, "--out", str(out)])
            assert out.exists()
            return code

        return run

    def test_one_usable_cpu_warns_and_passes(self, gate, capsys):
        assert gate(speedup=1.0, usable=1) == 0
        assert "1 usable CPU(s)" in capsys.readouterr().err

    def test_below_gate_fails(self, gate, capsys):
        assert gate(speedup=1.2, usable=2) == 1
        assert "below the 1.5x gate" in capsys.readouterr().err

    def test_at_or_above_gate_passes(self, gate, capsys):
        assert gate(speedup=1.5, usable=2) == 0
        assert gate(speedup=1.9, usable=2) == 0
        assert "1.90x >= 1.5x" in capsys.readouterr().out
