"""Tests for the testing-based equivalence oracles."""

import dataclasses
from fractions import Fraction

import pytest

from repro.core import SynthesisConfig, synthesize
from repro.core.equivalence import (
    check_expr_equivalence,
    check_inductiveness,
    check_scheme_equivalence,
    make_rng,
    random_element,
    random_list,
    random_rational,
    rfs_binder,
    rfs_environment,
)
from repro.core.rfs import RFS, construct_rfs
from repro.core.scheme import OnlineScheme
from repro.ir.compile import _compile_cached
from repro.ir.dsl import XS, add, div, fold_sum, length, mul, program, sub
from repro.ir.nodes import OnlineProgram, Proj, Var
from repro.suites import get_benchmark


def cfg(**kw):
    return SynthesisConfig(**kw)


def mean_prog():
    return program(div(fold_sum(XS), length(XS)))


class TestGenerators:
    def test_deterministic_rng(self):
        a = [random_rational(make_rng(cfg(), "s")) for _ in range(10)]
        b = [random_rational(make_rng(cfg(), "s")) for _ in range(10)]
        assert a == b

    def test_salt_changes_stream(self):
        a = [random_rational(make_rng(cfg(), "s1")) for _ in range(10)]
        b = [random_rational(make_rng(cfg(), "s2")) for _ in range(10)]
        assert a != b

    def test_zero_frequency(self):
        """The distribution must hit exact zeros (safe-division probes)."""
        rng = make_rng(cfg(), "zeros")
        values = [random_rational(rng) for _ in range(300)]
        assert values.count(Fraction(0)) >= 5

    def test_tuple_elements(self):
        rng = make_rng(cfg(), "t")
        elem = random_element(rng, 2)
        assert isinstance(elem, tuple) and len(elem) == 2

    def test_list_bounds(self):
        rng = make_rng(cfg(), "l")
        for _ in range(50):
            xs = random_list(rng, max_len=4, min_len=1)
            assert 1 <= len(xs) <= 4


class TestRfsEnvironment:
    def test_bindings_match_specs(self):
        rfs = construct_rfs(mean_prog())
        env = rfs_environment(rfs, [1, 2, 3], {})
        assert env is not None
        assert env[rfs.result_param] == 2  # mean of [1,2,3]

    def test_binder_matches_environment(self):
        rfs = construct_rfs(mean_prog())
        bind = rfs_binder(rfs)
        for xs in ([], [1], [4, Fraction(1, 2), -3]):
            assert bind(xs, {}) == rfs_environment(rfs, xs, {})

    def test_failing_entry_discards_the_sample(self, jit_mode):
        """A spec that raises EvaluationError at run time (a projection of a
        number) discards the sample, compiled or interpreted."""
        bad = Proj(fold_sum(XS), 0)
        rfs = RFS(entries={"y1": fold_sum(XS), "y2": bad})
        assert _compile_cached(bad, ("xs",)) is not None  # the compiled path runs
        assert rfs_environment(rfs, [1, 2], {}) is None
        assert rfs_binder(rfs)([1, 2], {}) is None


class TestJitDoesNotChangeSynthesis:
    """Synthesis evaluates through compiled closures by default; the
    reports must equal those of the interpreter (``REPRO_JIT=0``)."""

    @pytest.mark.parametrize(
        "name, method", [("variance", "template"), ("harmonic_mean", "enumerative")]
    )
    def test_reports_equal(self, name, method, monkeypatch):
        bench = get_benchmark(name)
        reports = {}
        for jit in ("1", "0"):
            monkeypatch.setenv("REPRO_JIT", jit)
            config = SynthesisConfig(timeout_s=60, element_arity=bench.element_arity)
            report = synthesize(bench.program, config, name)
            reports[jit] = dataclasses.replace(report, elapsed_s=0.0)
        assert reports["1"].success
        assert method in reports["1"].method_counts
        assert reports["1"] == reports["0"]
        assert reports["1"].scheme.initializer == reports["0"].scheme.initializer


class TestExprEquivalence:
    def test_accepts_correct_candidate(self):
        rfs = construct_rfs(mean_prog())
        sum_name = rfs.param_for_spec(fold_sum(XS))
        candidate = add(Var(sum_name), Var("x"))
        assert check_expr_equivalence(fold_sum(XS), candidate, rfs, cfg())

    def test_rejects_wrong_candidate(self):
        rfs = construct_rfs(mean_prog())
        sum_name = rfs.param_for_spec(fold_sum(XS))
        candidate = sub(Var(sum_name), Var("x"))
        assert not check_expr_equivalence(fold_sum(XS), candidate, rfs, cfg())

    def test_rejects_safe_division_mismatch(self):
        # (x*y + 1)/x equals y + 1/x except at x = 0; the oracle must see it.
        rfs = construct_rfs(program(fold_sum(XS)))
        y = rfs.result_param
        recombined = div(add(mul("x", Var(y)), 1), "x")
        spec = fold_sum(XS)  # not actually this spec; candidate is just wrong
        assert not check_expr_equivalence(spec, recombined, rfs, cfg())


class TestSchemeEquivalence:
    def good_scheme(self):
        return OnlineScheme(
            (0, 0),
            OnlineProgram(
                ("m", "n"),
                "x",
                (div(add(mul("m", "n"), "x"), add("n", 1)), add("n", 1)),
            ),
        )

    def bad_scheme(self):
        return OnlineScheme(
            (0, 0),
            OnlineProgram(
                ("m", "n"),
                "x",
                (div(add("m", "x"), add("n", 1)), add("n", 1)),
            ),
        )

    def test_accepts_correct(self):
        assert check_scheme_equivalence(mean_prog(), self.good_scheme(), cfg())

    def test_rejects_wrong(self):
        assert not check_scheme_equivalence(mean_prog(), self.bad_scheme(), cfg())

    def test_checks_initializer(self):
        scheme = OnlineScheme(
            (99, 0),
            self.good_scheme().program,
        )
        assert not check_scheme_equivalence(mean_prog(), scheme, cfg())


class TestInductiveness:
    def test_mean_scheme_inductive(self):
        rfs = construct_rfs(mean_prog(), add_length=True)
        # Build the online program matching the RFS layout exactly:
        # y1 = mean, y2 = sum, y3 = length.
        y1, y2, y3 = rfs.names
        scheme = OnlineScheme(
            (0, 0, 0),
            OnlineProgram(
                (y1, y2, y3),
                "x",
                (
                    div(add(Var(y2), Var("x")), add(Var(y3), 1)),
                    add(Var(y2), Var("x")),
                    add(Var(y3), 1),
                ),
            ),
        )
        assert check_inductiveness(rfs, scheme, cfg())

    def test_non_inductive_rejected(self):
        rfs = construct_rfs(mean_prog())
        y1, y2, y3 = rfs.names
        scheme = OnlineScheme(
            (0, 0, 0),
            OnlineProgram(
                (y1, y2, y3),
                "x",
                (Var(y1), add(Var(y2), Var("x")), add(Var(y3), 2)),
            ),
        )
        assert not check_inductiveness(rfs, scheme, cfg())
