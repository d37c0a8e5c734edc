"""Tests for expression simplification and accumulator pruning."""

from fractions import Fraction

from repro.core.postprocess import prune_unused_accumulators
from repro.core.rfs import construct_rfs
from repro.core.simplify import simplify_expr
from repro.ir.dsl import XS, add, div, fold_sum, ite, length, mul, neg, powi, program, sub
from repro.ir.nodes import Call, Const, If, OnlineProgram, Var

#: An operand the kind analysis proves numeric, where the identities apply.
NUM = add("a", "b")


class TestSimplify:
    def test_add_zero(self):
        assert simplify_expr(add(NUM, 0)) == NUM
        assert simplify_expr(add(0, NUM)) == NUM
        assert simplify_expr(sub(NUM, 0)) == NUM

    def test_mul_identities(self):
        assert simplify_expr(mul(NUM, 1)) == NUM
        assert simplify_expr(mul(1, NUM)) == NUM
        # Absorbing rewrites drop the operand's type and faults: kept as is.
        assert simplify_expr(mul("a", 0)) == mul("a", 0)

    def test_identities_leave_operands_of_unknown_kind(self):
        # A bare variable may be a tuple (``a + 0`` raises) or a bool
        # (``a + 0`` raises, ``a / 1`` is 1), so nothing rewrites it to ``a``.
        for expr in (
            add("a", 0),
            add(0, "a"),
            sub("a", 0),
            mul("a", 1),
            mul(1, "a"),
            div("a", 1),
            powi("a", 1),
            neg(neg("a")),
        ):
            assert simplify_expr(expr) == expr

    def test_sub_self(self):
        assert simplify_expr(sub("a", "a")) == sub("a", "a")

    def test_div_by_one(self):
        assert simplify_expr(div(NUM, 1)) == NUM

    def test_constant_folding(self):
        assert simplify_expr(add(mul(2, 3), 4)) == Const(10)

    def test_nested_constant_denominators_merge(self):
        expr = div(div("a", 2), 3)
        assert simplify_expr(expr) == div("a", 6)

    def test_pow_identities(self):
        assert simplify_expr(powi(NUM, 1)) == NUM
        assert simplify_expr(powi("a", 0)) == powi("a", 0)

    def test_if_constant_condition(self):
        assert simplify_expr(If(Const(True), Var("a"), Var("b"))) == Var("a")
        assert simplify_expr(If(Const(False), Var("a"), Var("b"))) == Var("b")

    def test_if_same_branches(self):
        assert simplify_expr(ite(Call("gt", (Var("x"), Const(0))), "a", "a")) == Var("a")

    def test_proj_of_tuple(self):
        from repro.ir.dsl import proj, tup

        assert simplify_expr(proj(tup("a", "b"), 1)) == Var("b")

    def test_double_negation(self):
        assert simplify_expr(neg(neg(NUM))) == NUM

    def test_division_not_cancelled_unsoundly(self):
        # e / e is NOT 1 under safe division (it is 0 when e = 0).
        expr = div("a", "a")
        assert simplify_expr(expr) == expr

    def test_semantics_preserved_on_random_inputs(self):
        from repro.ir.evaluator import evaluate

        expr = add(mul(sub("a", "a"), "b"), div(mul("c", 1), 2))
        simplified = simplify_expr(expr)
        for env in ({"a": 1, "b": 2, "c": 3}, {"a": Fraction(1, 2), "b": 0, "c": -4}):
            assert evaluate(expr, env) == evaluate(simplified, env)


class TestPrune:
    def test_unused_accumulator_dropped(self):
        rfs = construct_rfs(program(fold_sum(XS)))
        # Outputs: y1' = y1 + x (uses only itself), y2' = y2 + 1 (unused).
        online = OnlineProgram(
            rfs.names, "x", (add(rfs.names[0], "x"), add(rfs.names[1], 1))
        )
        pruned = prune_unused_accumulators(rfs, (0, 0), online)
        assert pruned.kept_params == (rfs.names[0],)
        assert pruned.initializer == (0,)
        assert len(pruned.program.outputs) == 1

    def test_transitively_needed_kept(self):
        rfs = construct_rfs(program(div(fold_sum(XS), length(XS))))
        y1, y2, y3 = rfs.names
        online = OnlineProgram(
            rfs.names,
            "x",
            (
                div(add(Var(y2), Var("x")), add(Var(y3), 1)),  # y1' reads y2, y3
                add(Var(y2), Var("x")),
                add(Var(y3), 1),
            ),
        )
        pruned = prune_unused_accumulators(rfs, (0, 0, 0), online)
        assert set(pruned.kept_params) == {y1, y2, y3}

    def test_result_always_kept(self):
        rfs = construct_rfs(program(fold_sum(XS)))
        online = OnlineProgram(rfs.names, "x", (Var("x"), add(rfs.names[1], 1)))
        pruned = prune_unused_accumulators(rfs, (0, 0), online)
        assert rfs.names[0] in pruned.kept_params
