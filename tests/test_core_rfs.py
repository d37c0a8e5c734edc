"""Tests for RFS inference (Algorithm 2) and initializer construction."""

import pytest

from repro.core.exceptions import UnsupportedProgram
from repro.core.initializer import build_initializer
from repro.core.rfs import construct_rfs
from repro.ir.dsl import (
    XS,
    add,
    div,
    fold,
    fold_max,
    fold_sum,
    gt,
    ite,
    lam,
    length,
    powi,
    program,
    sub,
)
from repro.ir.nodes import Var


def mean_program():
    return program(div(fold_sum(XS), length(XS)))


def variance_program():
    avg = div(fold_sum(XS), length(XS))
    sq = fold(lam("acc", "v", add("acc", powi(sub("v", avg), 2))), 0, XS)
    return program(div(sq, length(XS)))


class TestConstructRFS:
    def test_first_entry_is_body(self):
        rfs = construct_rfs(mean_program())
        assert rfs.spec_of(rfs.result_param) == mean_program().body

    def test_mean_has_three_entries(self):
        # body, sum fold, length
        rfs = construct_rfs(mean_program())
        assert len(rfs) == 3

    def test_variance_matches_figure_4(self):
        # v (body), sq fold, s fold, n — the RFS of Figure 4.
        rfs = construct_rfs(variance_program())
        assert len(rfs) == 4
        specs = list(rfs.entries.values())
        assert specs[0] == variance_program().body

    def test_length_param_detected(self):
        rfs = construct_rfs(mean_program())
        assert rfs.length_param is not None
        assert rfs.spec_of(rfs.length_param) == length(XS)

    def test_length_added_when_missing(self):
        rfs = construct_rfs(program(fold_sum(XS)))
        assert rfs.length_param is not None

    def test_length_not_added_in_baseline_mode(self):
        rfs = construct_rfs(program(fold_sum(XS)), add_length=False)
        assert rfs.length_param is None
        assert len(rfs) == 1

    def test_extra_params_carried(self):
        prog = program(
            fold(lam("a", "v", ite(gt("v", "t"), add("a", 1), Var("a"))), 0, XS),
            ("t",),
        )
        rfs = construct_rfs(prog)
        assert rfs.extra_params == ("t",)

    def test_lets_are_inlined(self):
        from repro.ir.dsl import let

        prog = program(
            let("s", fold_sum(XS), div("s", length(XS)))
        )
        rfs = construct_rfs(prog)
        # After inlining, the body is the mean; the sum fold appears as entry.
        assert any(spec == fold_sum(XS) for spec in rfs.entries.values())

    def test_duplicate_list_exprs_get_one_entry(self):
        prog = program(div(fold_sum(XS), fold_sum(XS)))
        rfs = construct_rfs(prog)
        folds = [s for s in rfs.entries.values() if s == fold_sum(XS)]
        assert len(folds) == 1

    def test_describe_renders_every_entry(self):
        rfs = construct_rfs(mean_program())
        text = rfs.describe()
        assert text.count("↦") == len(rfs)


class TestInitializer:
    def test_mean_initializer_is_zero(self):
        rfs = construct_rfs(mean_program())
        init = build_initializer(rfs)
        assert init == (0,) * len(rfs)

    def test_max_initializer_is_sentinel(self):
        rfs = construct_rfs(program(fold_max(XS)))
        init = build_initializer(rfs)
        assert init[0] == -(10**9)

    def test_variance_initializer_matches_figure_4(self):
        rfs = construct_rfs(variance_program())
        assert build_initializer(rfs) == (0, 0, 0, 0)

    def test_extra_param_independent_initializer(self):
        prog = program(
            fold(lam("a", "v", ite(gt("v", "t"), add("a", 1), Var("a"))), 0, XS),
            ("t",),
        )
        rfs = construct_rfs(prog)
        init = build_initializer(rfs)
        assert init[0] == 0

    def test_extra_param_dependent_initializer_rejected(self):
        # A body whose empty-list value depends on the extra parameter is
        # outside Figure 7's constant-initializer scheme.
        prog = program(add(fold_sum(XS), Var("t")), ("t",))
        rfs = construct_rfs(prog)
        with pytest.raises(UnsupportedProgram):
            build_initializer(rfs)

    def test_tuple_initializer(self):
        from repro.ir.dsl import maximum, minimum, proj, tup

        top2 = fold(
            lam(
                "t",
                "v",
                tup(
                    maximum(proj("t", 0), "v"),
                    maximum(proj("t", 1), minimum(proj("t", 0), "v")),
                ),
            ),
            tup(-100, -100),
            XS,
        )
        rfs = construct_rfs(program(proj(top2, 1)))
        init = build_initializer(rfs)
        assert init[0] == -100
        assert (-100, -100) in init
