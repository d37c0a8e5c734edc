"""Tests for the perf-statistics layer: Mann-Whitney U, bootstrap CIs,
report comparison verdicts, the append-only bench history, and the
``repro bench compare`` CLI contract (exit codes 0/1/2)."""

import itertools
import json
import subprocess
from statistics import median

import pytest

from repro.cli import main
from repro.evaluation import (
    bench_metadata,
    bootstrap_ci,
    bootstrap_ratio_ci,
    compare_reports,
    comparison_exit_code,
    format_comparison,
    mann_whitney_u,
    run_runtime_benchmark,
)
from repro.evaluation.benchstats import (
    VERDICT_IMPROVED,
    VERDICT_INCOMPARABLE,
    VERDICT_NO_CHANGE,
    VERDICT_REGRESSED,
    CompareError,
)
from repro.evaluation.history import (
    append_report,
    git_commit,
    latest,
    report_kind,
    resolve_history_dir,
)

# --------------------------------------------------------------------------
# Report builders
# --------------------------------------------------------------------------

#: Tight/slow per-repeat wall-clocks (seconds) with zero overlap, so the
#: exact Mann-Whitney p-value is 2/C(10,5) ~ 0.0079 < alpha.
FAST = [0.010, 0.011, 0.012, 0.0105, 0.0115]
SLOW = [0.020, 0.021, 0.022, 0.0205, 0.0215]

#: Near-constant sample: a 1% shift of it is fully separated (significant)
#: but below the default 2% minimum effect size.
TIGHT = [0.010000, 0.010005, 0.010010, 0.010015, 0.010020]


def runtime_report(times, *, cpu_count=4, elements=1000, schemes=("count",), stream="int"):
    report = {
        "format": "repro/bench-runtime",
        "version": 3,
        "meta": {"git_commit": "a" * 40, "timestamp": "2026-08-08T00:00:00Z"},
        "cpu_count": cpu_count,
        "elements": elements,
        "stream": stream,
        "schemes": {},
    }
    for scheme in schemes:
        report["schemes"][scheme] = {
            "raw": {
                "interpreted_s": list(times),
                "compiled_s": list(times),
                "batch_s": list(times),
            }
        }
    return report


def holes_report(seq, par, *, cpu_count=4, hole_workers=2, timeout_s=60.0):
    return {
        "format": "repro/bench-holes",
        "version": 3,
        "meta": {"git_commit": "b" * 40, "timestamp": "2026-08-08T00:00:00Z"},
        "cpu_count": cpu_count,
        "hole_workers": hole_workers,
        "timeout_s": timeout_s,
        "benchmarks": {
            "skewness": {"raw": {"sequential_s": list(seq), "parallel_s": list(par)}}
        },
    }


# --------------------------------------------------------------------------
# Mann-Whitney U
# --------------------------------------------------------------------------


def brute_force_p(xs, ys):
    """Two-sided exact p (2 * lower tail of U1, like the implementation and
    scipy) by enumerating every label arrangement."""
    pooled = list(xs) + list(ys)
    m = len(xs)

    def u1_of(indices):
        chosen = set(indices)
        first = [pooled[i] for i in chosen]
        rest = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        return sum(1 for a in first for b in rest if a > b)

    u1 = u1_of(range(m))
    observed = min(u1, m * (len(pooled) - m) - u1)
    arrangements = list(itertools.combinations(range(len(pooled)), m))
    tail = sum(1 for arr in arrangements if u1_of(arr) <= observed)
    return min(1.0, 2.0 * tail / len(arrangements))


class TestMannWhitney:
    def test_fully_separated_small_samples(self):
        result = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert result.method == "exact"
        assert result.u == 0
        assert result.p_value == pytest.approx(0.1)

    def test_textbook_five_vs_four(self):
        # Classic tie-free example: U = 3, two-sided exact p = 2 * 7/126.
        result = mann_whitney_u([19, 22, 16, 29, 24], [20, 11, 17, 12])
        assert result.method == "exact"
        assert result.u == 3
        assert result.p_value == pytest.approx(2 * 7 / 126)

    def test_exact_matches_brute_force(self):
        cases = [
            ([1.0, 5.0, 8.0], [2.0, 3.0, 9.0, 11.0]),
            ([0.5, 2.5, 4.5, 6.5], [1.5, 3.5, 5.5]),
            ([10.0, 20.0], [5.0, 15.0, 25.0, 35.0]),
        ]
        for xs, ys in cases:
            result = mann_whitney_u(xs, ys)
            assert result.method == "exact"
            assert result.p_value == pytest.approx(brute_force_p(xs, ys))

    def test_symmetry(self):
        a, b = [1.0, 4.0, 6.0, 7.0], [2.0, 3.0, 5.0, 8.0, 9.0]
        assert mann_whitney_u(a, b).p_value == pytest.approx(mann_whitney_u(b, a).p_value)

    def test_ties_use_normal_method(self):
        result = mann_whitney_u([1.0, 2.0, 2.0, 3.0], [2.0, 4.0, 5.0, 6.0])
        assert result.method == "normal"
        assert 0.0 < result.p_value <= 1.0

    def test_all_identical_is_no_evidence(self):
        result = mann_whitney_u([3.0] * 5, [3.0] * 5)
        assert result.p_value == 1.0

    def test_large_samples_use_normal_method(self):
        xs = [float(i) for i in range(30)]
        ys = [float(i) + 0.5 for i in range(30)]
        assert mann_whitney_u(xs, ys).method == "normal"

    def test_clear_shift_is_significant_both_methods(self):
        xs = [float(i) for i in range(26)]
        ys = [float(i) + 100 for i in range(26)]
        assert mann_whitney_u(xs, ys).p_value < 1e-6

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestBootstrap:
    def test_median_ci_brackets_true_median(self):
        samples = [float(i) for i in range(1, 101)]
        lo, hi = bootstrap_ci(samples)
        assert lo < median(samples) < hi
        assert 35.0 < lo and hi < 66.0

    def test_constant_sample_zero_width(self):
        assert bootstrap_ci([7.0] * 10) == (7.0, 7.0)

    def test_single_observation_zero_width(self):
        assert bootstrap_ci([42.0]) == (42.0, 42.0)

    def test_deterministic_for_fixed_seed(self):
        # A wide sample keeps the percentile tails off the extremes, so two
        # seeds virtually never produce the same interval.
        samples = [float(i) ** 1.5 for i in range(30)]
        assert bootstrap_ci(samples, seed=1) == bootstrap_ci(samples, seed=1)
        assert bootstrap_ci(samples, seed=1) != bootstrap_ci(samples, seed=2)

    def test_ratio_ci_excludes_one_on_clear_shift(self):
        old = [1.0, 1.1, 0.9, 1.05, 0.95]
        new = [2.0, 2.2, 1.8, 2.1, 1.9]
        lo, hi = bootstrap_ratio_ci(old, new)
        assert 1.0 < lo <= hi
        assert lo == pytest.approx(2.0, abs=0.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ratio_ci([], [1.0])


# --------------------------------------------------------------------------
# compare_reports verdicts
# --------------------------------------------------------------------------


class TestCompareVerdicts:
    def test_runtime_speedup_is_improved(self):
        # Lower wall-clock -> higher eps -> improved (runtime is higher-better).
        comparison = compare_reports(runtime_report(SLOW), runtime_report(FAST))
        assert comparison["verdict"] == VERDICT_IMPROVED
        for entry in comparison["metrics"].values():
            assert entry["verdict"] == VERDICT_IMPROVED
            assert entry["ratio"] == pytest.approx(2.0, rel=0.1)
            assert entry["p_value"] < 0.05
        assert comparison_exit_code(comparison) == 0

    def test_runtime_slowdown_is_regression(self):
        comparison = compare_reports(runtime_report(FAST), runtime_report(SLOW))
        assert comparison["verdict"] == VERDICT_REGRESSED
        assert comparison_exit_code(comparison) == 1

    def test_identical_samples_no_change(self):
        comparison = compare_reports(runtime_report(FAST), runtime_report(FAST))
        assert comparison["verdict"] == VERDICT_NO_CHANGE
        assert comparison_exit_code(comparison) == 0

    def test_significant_but_tiny_effect_is_no_change(self):
        # Perfectly separated samples (p < alpha) but a ~1% shift < min_effect.
        nudged = [t * 1.01 for t in TIGHT]
        comparison = compare_reports(runtime_report(TIGHT), runtime_report(nudged))
        assert comparison["verdict"] == VERDICT_NO_CHANGE
        entry = next(iter(comparison["metrics"].values()))
        assert entry["p_value"] < 0.05  # significant, just too small to matter

    def test_holes_direction_lower_is_better(self):
        faster = compare_reports(holes_report(SLOW, SLOW), holes_report(FAST, FAST))
        assert faster["verdict"] == VERDICT_IMPROVED
        slower = compare_reports(holes_report(FAST, FAST), holes_report(SLOW, SLOW))
        assert slower["verdict"] == VERDICT_REGRESSED
        assert comparison_exit_code(slower) == 1

    def test_single_core_is_incomparable_not_skipped(self):
        comparison = compare_reports(
            runtime_report(FAST, cpu_count=1), runtime_report(SLOW, cpu_count=1)
        )
        assert comparison["verdict"] == VERDICT_INCOMPARABLE
        for entry in comparison["metrics"].values():
            assert entry["verdict"] == VERDICT_INCOMPARABLE
            assert "single-core" in entry["reason"]
        # The gate passes: incomparable is visible, never a failure.
        assert comparison_exit_code(comparison) == 0

    def test_cpu_count_mismatch_is_incomparable(self):
        comparison = compare_reports(
            runtime_report(FAST, cpu_count=4), runtime_report(FAST, cpu_count=8)
        )
        assert comparison["verdict"] == VERDICT_INCOMPARABLE
        assert "cpu_count mismatch" in next(iter(comparison["metrics"].values()))["reason"]

    def test_workload_mismatch_is_incomparable(self):
        comparison = compare_reports(
            runtime_report(FAST, elements=1000), runtime_report(FAST, elements=2000)
        )
        assert comparison["verdict"] == VERDICT_INCOMPARABLE
        assert "elements differs" in next(iter(comparison["metrics"].values()))["reason"]

    def test_mismatched_scheme_sets_are_incomparable_per_metric(self):
        old = runtime_report(FAST, schemes=("count",))
        new = runtime_report(FAST, schemes=("count", "variance"))
        comparison = compare_reports(old, new)
        assert comparison["metrics"]["variance/batch"]["verdict"] == VERDICT_INCOMPARABLE
        assert comparison["metrics"]["variance/batch"]["reason"] == "only in the new report"
        assert comparison["metrics"]["count/batch"]["verdict"] == VERDICT_NO_CHANGE

    def test_legacy_pipeline_block_keeps_comparing(self):
        # Older runtime reports (and history entries) carry a top-level block
        # for the retired multi-scheme pipeline measurement; newer ones do
        # not.  The block yields no metric, so no missing-metric verdict.
        legacy = runtime_report(FAST)
        legacy["FUSED".lower()] = {
            "arity1": {
                "schemes": ["count", "max"],
                "raw": {"fused_s": list(FAST)},
                "states_match": True,
            }
        }
        for old, new in ((legacy, runtime_report(FAST)), (runtime_report(FAST), legacy)):
            comparison = compare_reports(old, new)
            assert comparison["verdict"] == VERDICT_NO_CHANGE
            assert set(comparison["metrics"]) == {
                "count/interpreted", "count/compiled", "count/batch"
            }
            assert all(
                entry["verdict"] != VERDICT_INCOMPARABLE
                for entry in comparison["metrics"].values()
            )
            assert comparison_exit_code(comparison) == 0

    def test_pre_v3_report_without_raw_is_incomparable(self):
        old = runtime_report(FAST)
        for entry in old["schemes"].values():
            del entry["raw"]
        comparison = compare_reports(old, runtime_report(FAST))
        assert comparison["verdict"] == VERDICT_INCOMPARABLE
        assert "pre-v3" in next(iter(comparison["metrics"].values()))["reason"]

    def test_too_few_repeats_is_incomparable(self):
        comparison = compare_reports(runtime_report(FAST[:2]), runtime_report(SLOW[:2]))
        assert comparison["verdict"] == VERDICT_INCOMPARABLE
        assert "too few repeats" in next(iter(comparison["metrics"].values()))["reason"]

    def test_kind_mismatch_raises(self):
        with pytest.raises(CompareError):
            compare_reports(runtime_report(FAST), holes_report(FAST, FAST))

    def test_non_bench_report_raises(self):
        with pytest.raises(CompareError):
            compare_reports({"format": "something-else"}, runtime_report(FAST))

    def test_bad_alpha_raises(self):
        with pytest.raises(CompareError):
            compare_reports(runtime_report(FAST), runtime_report(FAST), alpha=1.5)

    def test_comparison_is_json_serializable_and_formats(self):
        comparison = compare_reports(runtime_report(SLOW), runtime_report(FAST))
        text = format_comparison(json.loads(json.dumps(comparison)))
        assert "verdict: improved" in text
        assert "count/batch" in text

    def test_deterministic_output(self):
        a = compare_reports(runtime_report(SLOW), runtime_report(FAST))
        b = compare_reports(runtime_report(SLOW), runtime_report(FAST))
        assert a == b


# --------------------------------------------------------------------------
# History store
# --------------------------------------------------------------------------


class TestHistory:
    def test_append_and_latest_round_trip(self, tmp_path):
        report = runtime_report(FAST)
        dest = append_report(report, tmp_path)
        assert dest.exists()
        assert dest.parent.name == "runtime"
        assert json.loads(dest.read_text()) == report
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index["entries"]) == 1
        entry = index["entries"][0]
        assert entry["kind"] == "runtime"
        assert entry["commit"] == "a" * 40
        assert entry["cpu_count"] == 4
        assert latest("runtime", tmp_path) == dest
        assert latest("holes", tmp_path) is None

    def test_same_second_appends_both_survive(self, tmp_path):
        report = runtime_report(FAST)
        first = append_report(report, tmp_path)
        second = append_report(report, tmp_path)
        assert first != second
        assert second.name.endswith("-2.json")
        assert latest("runtime", tmp_path) == second

    def test_latest_skips_pruned_files(self, tmp_path):
        older = append_report(runtime_report(FAST), tmp_path)
        newer = append_report(runtime_report(SLOW), tmp_path)
        newer.unlink()
        assert latest("runtime", tmp_path) == older

    def test_kinds_are_separated(self, tmp_path):
        append_report(runtime_report(FAST), tmp_path)
        holes_dest = append_report(holes_report(FAST, FAST), tmp_path)
        assert holes_dest.parent.name == "holes"
        assert latest("holes", tmp_path) == holes_dest

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            append_report({"format": "not-a-bench"}, tmp_path)
        with pytest.raises(ValueError):
            report_kind({})

    def test_resolve_history_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_HISTORY", raising=False)
        assert str(resolve_history_dir()) == "bench_history"
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path))
        assert resolve_history_dir() == tmp_path
        assert resolve_history_dir(tmp_path / "explicit") == tmp_path / "explicit"


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


class TestReportFormatV3:
    def test_runtime_report_embeds_raw_and_meta(self):
        report = run_runtime_benchmark(["count"], elements=200, repeats=3)
        assert report["version"] == 3
        assert set(report["meta"]) == {"git_commit", "timestamp", "clock"}
        raw = report["schemes"]["count"]["raw"]
        for key in ("interpreted_s", "compiled_s", "batch_s"):
            assert len(raw[key]) == 3
            assert all(t >= 0 for t in raw[key])
        # Headline numbers stay best-of-repeats (eps = elements / min time).
        assert report["schemes"]["count"]["interpreted_eps"] == pytest.approx(
            200 / min(raw["interpreted_s"])
        )
        assert report_kind(report) == "runtime"


# --------------------------------------------------------------------------
# CLI: repro bench compare + history wiring
# --------------------------------------------------------------------------


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


class TestCompareCli:
    def test_exit_zero_on_improvement(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", runtime_report(SLOW))
        new = write_json(tmp_path / "new.json", runtime_report(FAST))
        assert main(["bench", "compare", old, new]) == 0
        assert "verdict: improved" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", runtime_report(FAST))
        new = write_json(tmp_path / "new.json", runtime_report(SLOW))
        assert main(["bench", "compare", old, new]) == 1
        assert "verdict: regressed" in capsys.readouterr().out

    def test_exit_two_on_usage_and_format_errors(self, tmp_path, capsys):
        runtime = write_json(tmp_path / "r.json", runtime_report(FAST))
        holes = write_json(tmp_path / "h.json", holes_report(FAST, FAST))
        bad = write_json(tmp_path / "bad.json", {"format": "nope"})
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json", encoding="utf-8")
        assert main(["bench", "compare", runtime]) == 2  # one positional, no baseline
        assert main(["bench", "compare", runtime, holes]) == 2  # kind mismatch
        assert main(["bench", "compare", runtime, bad]) == 2
        assert main(["bench", "compare", runtime, str(garbled)]) == 2
        assert main(["bench", "compare", runtime, str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_min_effect_gate_suppresses_tiny_shift(self, tmp_path, capsys):
        nudged = runtime_report([t * 1.01 for t in TIGHT])
        old = write_json(tmp_path / "old.json", runtime_report(TIGHT))
        new = write_json(tmp_path / "new.json", nudged)
        assert main(["bench", "compare", old, new]) == 0
        assert main(["bench", "compare", old, new, "--min-effect", "0.001"]) == 1
        capsys.readouterr()

    def test_compare_out_writes_machine_readable_verdict(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", runtime_report(FAST))
        new = write_json(tmp_path / "new.json", runtime_report(SLOW))
        out = tmp_path / "cmp.json"
        assert main(["bench", "compare", old, new, "--compare-out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro/bench-compare"
        assert payload["verdict"] == VERDICT_REGRESSED
        assert payload["new"]["path"] == new
        capsys.readouterr()

    def test_baseline_latest_resolves_from_history(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        append_report(runtime_report(SLOW), hist)
        new = write_json(tmp_path / "new.json", runtime_report(FAST))
        code = main(
            ["bench", "compare", new, "--baseline", "latest", "--history-dir", str(hist)]
        )
        assert code == 0
        assert "verdict: improved" in capsys.readouterr().out
        # No history at all -> usage/format error, not a crash.
        assert (
            main(
                [
                    "bench",
                    "compare",
                    new,
                    "--baseline",
                    "latest",
                    "--history-dir",
                    str(tmp_path / "empty"),
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_baseline_path_and_two_positionals_conflict(self, tmp_path, capsys):
        old = write_json(tmp_path / "old.json", runtime_report(SLOW))
        new = write_json(tmp_path / "new.json", runtime_report(FAST))
        assert main(["bench", "compare", new, "--baseline", old]) == 0
        assert main(["bench", "compare", old, new, "--baseline", old]) == 2
        capsys.readouterr()


class TestBenchHistoryCli:
    def test_bench_runtime_appends_history(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        out = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "runtime",
                "--schemes",
                "count",
                "--elements",
                "200",
                "--repeats",
                "3",
                "--out",
                str(out),
                "--history-dir",
                str(hist),
            ]
        )
        assert code == 0
        assert "bench history: appended" in capsys.readouterr().out
        index = json.loads((hist / "index.json").read_text())
        assert len(index["entries"]) == 1
        assert latest("runtime", hist) is not None
        report = json.loads(out.read_text())
        assert report["version"] == 3

    def test_no_history_flag_skips_append(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        code = main(
            [
                "bench",
                "runtime",
                "--schemes",
                "count",
                "--elements",
                "200",
                "--repeats",
                "3",
                "--out",
                str(tmp_path / "report.json"),
                "--history-dir",
                str(hist),
                "--no-history",
            ]
        )
        assert code == 0
        assert "bench history" not in capsys.readouterr().out
        assert not hist.exists()
