"""Tests for structural traversals: substitution, free names, let-inlining,
list-expression discovery, the stream element's shape, AST size."""

import random

import pytest

from repro.ir.analysis import UNKNOWN_BOUNDS
from repro.ir.analysis.divzero import _element_pool
from repro.ir.dsl import (
    XS,
    add,
    div,
    ffilter,
    fmap,
    fold,
    fold_sum,
    gt,
    lam,
    length,
    let,
    mul,
    powi,
    program,
    sub,
)
from repro.ir.nodes import Const, ListVar, OnlineProgram, Proj, Snoc, Var
from repro.ir.traversal import (
    ast_size,
    contains_list_var,
    element_shape,
    fill_holes,
    free_vars,
    inline_lets,
    is_list_expr,
    list_exprs,
    substitute,
    substitute_list_var,
    used_builtins,
    validate_online_expr,
)
from repro.ir.vectorize import ColumnarError, plan_columns


class TestSubstitution:
    def test_simple(self):
        expr = add("a", "b")
        assert substitute(expr, {"a": Const(1)}) == add(1, "b")

    def test_lambda_shadowing(self):
        lam_expr = lam("a", add("a", "b"))
        result = substitute(lam_expr, {"a": Const(1), "b": Const(2)})
        assert result == lam("a", add("a", 2))

    def test_let_shadowing(self):
        expr = let("t", Const(1), add("t", "u"))
        result = substitute(expr, {"t": Const(9), "u": Const(2)})
        # The bound occurrence of t is untouched; u is replaced.
        assert result == let("t", Const(1), add("t", 2))

    def test_empty_mapping_is_identity(self):
        expr = add("a", 1)
        assert substitute(expr, {}) is expr

    def test_substitute_list_var(self):
        expr = fold_sum(XS)
        snoc = Snoc(XS, Var("x"))
        replaced = substitute_list_var(expr, "xs", snoc)
        assert replaced.lst == snoc


class TestFreeVars:
    def test_lambda_binds(self):
        assert free_vars(lam("a", add("a", "b"))) == frozenset({"b"})

    def test_let_binds_body_only(self):
        expr = let("t", Var("u"), add("t", "v"))
        assert free_vars(expr) == frozenset({"u", "v"})

    def test_listvar_not_a_free_scalar(self):
        assert free_vars(fold_sum(XS)) == frozenset()

    def test_list_names_on_request(self):
        assert free_vars(fold_sum(XS), lists=True) == frozenset({"xs"})
        assert free_vars(add(length(ListVar("ys")), "a"), lists=True) == frozenset({"ys", "a"})

    def test_binders_shadow_list_names(self):
        expr = lam("ys", length(ListVar("ys")))
        assert free_vars(expr, lists=True) == frozenset()
        assert free_vars(let("ys", Var("a"), length(ListVar("ys"))), lists=True) == {"a"}


def _step(*outputs):
    return OnlineProgram(tuple(f"s{i}" for i in range(len(outputs))), "x", outputs)


X0, X1 = Proj(Var("x"), 0), Proj(Var("x"), 1)

#: name -> (program, element_shape, vectorize's element columns or None for
#: its refusal)
SHAPES = {
    "whole-only": (_step(add("s0", "x"), mul("x", "x")), (0, True), 1),
    "projected-only": (_step(add("s0", X1), add("s1", X0)), (2, False), 2),
    "projected-high-field": (_step(add("s0", Proj(Var("x"), 2))), (3, False), 3),
    "mixed": (_step(add("s0", X0), add("s1", "x")), (1, True), None),
    "unused": (_step(add("s0", 1)), (0, False), 1),
}


class TestElementShape:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shape(self, name):
        program, shape, _ = SHAPES[name]
        assert element_shape(program) == shape

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_vectorize_columns_and_refusal(self, name):
        program, _, columns = SHAPES[name]
        initializer = (0,) * program.arity
        if columns is None:
            with pytest.raises(ColumnarError, match="element used both whole and projected"):
                plan_columns(program, initializer)
        else:
            assert plan_columns(program, initializer).elem_arity == columns

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_divzero_probes_take_the_projected_arity(self, name):
        program, (fields, _), _ = SHAPES[name]
        pool = _element_pool(program, UNKNOWN_BOUNDS, random.Random(0))
        assert {len(e) if isinstance(e, tuple) else 1 for e in pool} == {max(fields, 1)}


class TestInlineLets:
    def test_single_let(self):
        expr = let("t", add(1, 2), mul("t", "t"))
        assert inline_lets(expr) == mul(add(1, 2), add(1, 2))

    def test_nested_lets(self):
        expr = let("a", Const(1), let("b", add("a", 1), add("a", "b")))
        assert inline_lets(expr) == add(Const(1), add(Const(1), 1))

    def test_let_under_lambda(self):
        # The variance program of Figure 3a uses a let whose value is
        # captured inside a fold's lambda.
        avg = div(fold_sum(XS), length(XS))
        expr = let(
            "avg",
            avg,
            fold(lam("acc", "v", add("acc", powi(sub("v", "avg"), 2))), 0, XS),
        )
        inlined = inline_lets(expr)
        assert "avg" not in free_vars(inlined)
        assert contains_list_var(inlined.func.body)


class TestListExprs:
    def test_fold_is_list_expr(self):
        assert is_list_expr(fold_sum(XS))

    def test_length_is_list_expr(self):
        assert is_list_expr(length(XS))

    def test_length_of_filter_is_list_expr(self):
        assert is_list_expr(length(ffilter(lam("v", gt("v", 0)), XS)))

    def test_composition_is_not(self):
        assert not is_list_expr(div(fold_sum(XS), length(XS)))

    def test_fold_over_map_is_single_list_expr(self):
        expr = fold_sum(fmap(lam("v", mul("v", "v")), XS))
        assert is_list_expr(expr)
        assert list_exprs(expr) == [expr]

    def test_variance_has_three_list_exprs(self):
        avg = div(fold_sum(XS), length(XS))
        body = div(
            fold(lam("acc", "v", add("acc", powi(sub("v", avg), 2))), 0, XS),
            length(XS),
        )
        found = list_exprs(body)
        # outer fold, inner sum fold, length
        assert len(found) == 3

    def test_duplicates_collapsed(self):
        body = div(fold_sum(XS), fold_sum(XS))
        assert len(list_exprs(body)) == 1


class TestOnlineValidation:
    def test_accepts_scalar_expr(self):
        assert validate_online_expr(add("y1", "x"))

    def test_rejects_fold(self):
        assert not validate_online_expr(fold_sum(XS))

    def test_rejects_length(self):
        assert not validate_online_expr(length(XS))

    def test_rejects_hole(self):
        from repro.ir.nodes import Hole

        assert not validate_online_expr(add(Hole(1), Const(1)))


class TestMisc:
    def test_ast_size_counts_nodes(self):
        assert ast_size(Const(1)) == 1
        assert ast_size(add(1, 2)) == 3
        # Lambda counts itself plus body; Fold counts func, init, list.
        assert ast_size(fold_sum(XS)) == 1 + (1 + 3) + 1 + 1

    def test_used_builtins(self):
        expr = add(mul(1, 2), length(XS))
        assert used_builtins(expr) == frozenset({"add", "mul", "length"})

    def test_fill_holes(self):
        from repro.ir.nodes import Hole

        expr = add(Hole(1), Hole(2))
        filled = fill_holes(expr, {1: Const(10), 2: Var("y")})
        assert filled == add(10, "y")

    def test_program_inlines_to_figure_6_fragment(self):
        # After inlining, the two-pass variance contains no Let nodes.
        from repro.ir.nodes import Let
        from repro.ir.traversal import iter_subexprs

        avg = div(fold_sum(XS), length(XS))
        prog = program(
            let(
                "avg",
                avg,
                div(
                    fold(lam("acc", "v", add("acc", powi(sub("v", "avg"), 2))), 0, XS),
                    length(XS),
                ),
            )
        )
        inlined = inline_lets(prog.body)
        assert not any(isinstance(e, Let) for e in iter_subexprs(inlined))
