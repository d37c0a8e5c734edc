"""Tests over the benchmark suites: registry integrity, ground-truth
correctness (Definition 3.3) and inductiveness of ground truths where the
accumulator layout matches an RFS."""

from fractions import Fraction

import pytest

from repro.core import SynthesisConfig, check_scheme_equivalence
from repro.ir import run_offline
from repro.ir.traversal import ast_size, inline_lets, validate_online_expr
from repro.suites import all_benchmarks, benchmarks_for, get_benchmark


class TestRegistry:
    def test_counts_match_paper(self):
        assert len(benchmarks_for("stats")) == 34
        assert len(benchmarks_for("auction")) == 17
        assert len(all_benchmarks()) == 51

    def test_names_unique(self):
        names = [b.name for b in all_benchmarks()]
        assert len(names) == len(set(names))

    def test_get_benchmark(self):
        assert get_benchmark("variance").domain == "stats"
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_exactly_one_expected_failure(self):
        hard = [b.name for b in all_benchmarks() if b.expected_hard]
        assert hard == ["kurtosis"]

    def test_every_benchmark_has_ground_truth(self):
        assert all(b.ground_truth is not None for b in all_benchmarks())

    def test_every_benchmark_has_description(self):
        assert all(b.description for b in all_benchmarks())

    def test_element_arity_sane(self):
        for b in all_benchmarks():
            assert b.element_arity in (1, 2)

    def test_extra_params_consistency(self):
        for b in all_benchmarks():
            gt = b.ground_truth
            assert gt.program.extra_params == b.program.extra_params, b.name


class TestGroundTruths:
    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_equivalent_to_offline(self, bench):
        config = SynthesisConfig(
            equivalence_tests=10, element_arity=bench.element_arity
        )
        assert check_scheme_equivalence(bench.program, bench.ground_truth, config)

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_ground_truth_is_online(self, bench):
        for out in bench.ground_truth.program.outputs:
            assert validate_online_expr(out)

    def test_offline_programs_evaluate(self):
        for bench in all_benchmarks():
            elem = (2, 1) if bench.element_arity == 2 else 2
            extras = {p: 3 for p in bench.program.extra_params}
            run_offline(bench.program, [elem, elem], extras)  # must not raise

    def test_offline_programs_return_numbers(self):
        for bench in all_benchmarks():
            elem = (2, 1) if bench.element_arity == 2 else 2
            extras = {p: 3 for p in bench.program.extra_params}
            for n in (1, 2, 5):
                out = run_offline(bench.program, [elem] * n, extras)
                assert isinstance(out, (int, float, Fraction)), bench.name
                assert not isinstance(out, bool), bench.name


class TestSuiteShape:
    def test_stats_online_larger_than_offline(self):
        """The Table 1 relationship: online stats programs are bigger."""
        ratio_sum, count = 0.0, 0
        for bench in benchmarks_for("stats"):
            offline = ast_size(inline_lets(bench.program.body))
            online = sum(
                ast_size(o) for o in bench.ground_truth.program.outputs
            )
            ratio_sum += online / offline
            count += 1
        assert ratio_sum / count > 1.1

    def test_paper_examples_present(self):
        """Benchmarks named in the paper's text all exist."""
        for name in ("variance", "skewness", "kurtosis", "sem",
                     "geometric_mean", "logsumexp", "mean"):
            assert get_benchmark(name) is not None

    def test_some_python_sources_provided(self):
        assert sum(1 for b in all_benchmarks() if b.python_source) >= 3

    def test_auction_has_parameterized_queries(self):
        assert any(
            b.program.extra_params for b in benchmarks_for("auction")
        )

    def test_auction_has_record_streams(self):
        assert any(b.element_arity == 2 for b in benchmarks_for("auction"))
