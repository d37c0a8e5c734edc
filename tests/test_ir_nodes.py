"""Unit tests for IR node construction and basic invariants."""

from fractions import Fraction

import pytest

from repro.ir.nodes import (
    Call,
    Const,
    Fold,
    Hole,
    If,
    Lambda,
    ListVar,
    MakeTuple,
    Proj,
    Snoc,
    Var,
    const,
)


class TestConstNormalization:
    def test_fraction_with_unit_denominator_becomes_int(self):
        c = const(Fraction(6, 2))
        assert c.value == 3
        assert isinstance(c.value, int)

    def test_integral_float_becomes_int(self):
        assert const(4.0).value == 4
        assert isinstance(const(4.0).value, int)

    def test_proper_fraction_preserved(self):
        c = const(Fraction(1, 3))
        assert c.value == Fraction(1, 3)

    def test_bool_preserved(self):
        assert const(True).value is True


class TestStructuralEquality:
    def test_equal_trees_are_equal(self):
        a = Call("add", (Var("x"), Const(1)))
        b = Call("add", (Var("x"), Const(1)))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_ops_differ(self):
        a = Call("add", (Var("x"), Const(1)))
        b = Call("sub", (Var("x"), Const(1)))
        assert a != b

    def test_usable_as_dict_keys(self):
        mapping = {Call("add", (Var("x"), Const(1))): "one"}
        assert mapping[Call("add", (Var("x"), Const(1)))] == "one"


class TestConstIdentity:
    """Constants are equal only when their values have the same type and
    are equal, floats told apart as ``repr`` tells them: the interpreter's
    results differ in type, so no memo may answer for the other."""

    @pytest.mark.parametrize(
        "a,b",
        [
            (Const(1), Const(1.0)),
            (Const(1), Const(True)),
            (Const(1.0), Const(True)),
            (Const(0), Const(False)),
            (Const(Fraction(1, 2)), Const(0.5)),
            (Const(0.0), Const(-0.0)),
            (Call("add", (Var("x"), Const(1))), Call("add", (Var("x"), Const(1.0)))),
        ],
        ids=repr,
    )
    def test_constants_of_different_type_or_sign_differ(self, a, b):
        assert a != b and b != a
        assert len({a, b}) == 2

    def test_nan_constant_equals_itself(self):
        a, b = Const(float("nan")), Const(float("nan"))
        assert a == b and hash(a) == hash(b)
        assert If(Var("c"), a, Const(1)) == If(Var("c"), b, Const(1))

    @pytest.mark.parametrize("value", [0, 1, True, False, Fraction(2, 3), 0.5, -0.0, float("inf")])
    def test_equal_nodes_hash_equal(self, value):
        a = MakeTuple((Const(value), Call("neg", (Const(value),))))
        b = MakeTuple((Const(value), Call("neg", (Const(value),))))
        assert a == b and hash(a) == hash(b)
        assert {a: "v"}[b] == "v"


class TestChildren:
    def test_leaf_children_empty(self):
        assert Const(1).children() == ()
        assert Var("x").children() == ()
        assert ListVar("xs").children() == ()
        assert Hole(3).children() == ()

    def test_call_children_are_args(self):
        call = Call("add", (Var("x"), Const(1)))
        assert call.children() == (Var("x"), Const(1))

    def test_call_with_lambda_includes_function(self):
        lam = Lambda(("a",), Var("a"))
        call = Call(lam, (Const(1),))
        assert call.children() == (lam, Const(1))

    def test_fold_children_order(self):
        lam = Lambda(("a", "b"), Var("a"))
        fold = Fold(lam, Const(0), ListVar("xs"))
        assert fold.children() == (lam, Const(0), ListVar("xs"))

    def test_if_children(self):
        node = If(Const(True), Const(1), Const(2))
        assert node.children() == (Const(True), Const(1), Const(2))

    def test_snoc_children(self):
        node = Snoc(ListVar("xs"), Var("x"))
        assert node.children() == (ListVar("xs"), Var("x"))

    def test_tuple_and_proj(self):
        tup = MakeTuple((Const(1), Const(2)))
        assert tup.arity == 2
        assert Proj(tup, 1).children() == (tup,)

    def test_is_combinator(self):
        lam = Lambda(("a", "b"), Var("a"))
        assert Fold(lam, Const(0), ListVar("xs")).is_combinator()
        assert not Const(1).is_combinator()
