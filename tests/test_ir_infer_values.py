"""Tests for runtime values, the safe builtin semantics and the builtin registry."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builtins import all_builtins, get_builtin, is_builtin
from repro.ir.compile import compile_expr
from repro.ir.evaluator import evaluate
from repro.ir.nodes import Call, Var
from repro.ir.values import (
    safe_div,
    safe_exp,
    safe_log,
    safe_pow,
    safe_sqrt,
    values_close,
)


class TestSafeOps:
    def test_safe_div_by_zero(self):
        assert safe_div(5, 0) == 0
        assert safe_div(Fraction(1, 2), Fraction(0)) == 0

    def test_safe_div_exact(self):
        assert safe_div(1, 3) == Fraction(1, 3)

    def test_safe_pow_integer(self):
        assert safe_pow(Fraction(2, 3), 2) == Fraction(4, 9)
        assert safe_pow(2, -1) == Fraction(1, 2)
        assert safe_pow(0, -1) == 0

    def test_safe_pow_fractional(self):
        assert safe_pow(4, Fraction(1, 2)) == 2.0
        assert safe_pow(-4, Fraction(1, 2)) == 0  # safe convention

    def test_safe_pow_huge_degrades(self):
        result = safe_pow(Fraction(10) ** 100, 1000)
        assert isinstance(result, (int, float))  # no exact blow-up

    def test_safe_sqrt(self):
        assert safe_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert safe_sqrt(-1) == 0
        assert safe_sqrt(2) == pytest.approx(math.sqrt(2))

    def test_safe_log_exp(self):
        assert safe_log(0) == 0
        assert safe_log(1) == 0
        assert safe_exp(0) == 1

    def test_partial_ops_on_exact_values_beyond_float_range(self):
        huge = Fraction(1 << 40000, 3)
        assert safe_pow(huge, Fraction(1, 2)) == math.inf
        assert safe_pow(huge, Fraction(-1, 2)) == 0.0
        assert safe_pow(-huge, Fraction(1, 2)) == 0
        assert safe_pow(2, Fraction(1 << 40000, 3)) == math.inf
        assert safe_pow(10.0**300, 1.5) == math.inf
        assert safe_sqrt(huge) == math.inf
        assert safe_log(huge) == pytest.approx(40000 * math.log(2) - math.log(3))
        assert safe_log(1 / huge) == pytest.approx(math.log(3) - 40000 * math.log(2))
        # past the float range but with a representable result: not saturated
        big = Fraction(1 << 1100, 3)
        root = 2.0**550 / math.sqrt(3)
        assert safe_pow(big, Fraction(1, 2)) == pytest.approx(root, rel=1e-12)
        assert safe_sqrt(big) == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "nojit"])
    @pytest.mark.parametrize("func", ["pow", "sqrt", "log"])
    def test_partial_ops_beyond_float_range_do_not_raise(self, func, jit):
        huge = Fraction(1 << 40000, 3)
        args = (huge, Fraction(1, 2)) if func == "pow" else (huge,)
        names = ("x", "y")[: len(args)]
        expr = Call(func, tuple(Var(name) for name in names))
        if jit:
            got = compile_expr(expr, names)(*args)
        else:
            got = evaluate(expr, dict(zip(names, args)))
        assert type(got) is float and got == get_builtin(func).impl(*args)

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    def test_safe_div_total(self, a, b):
        result = safe_div(a, b)
        if b != 0:
            assert result == a / b
        else:
            assert result == 0


class TestValuesClose:
    def test_exact_equal(self):
        assert values_close(Fraction(1, 3), Fraction(1, 3))

    def test_float_tolerance(self):
        assert values_close(0.1 + 0.2, 0.3)

    def test_mixed_exact_float(self):
        assert values_close(Fraction(1, 2), 0.5)

    def test_tuples_recursive(self):
        assert values_close((1, (2, 3)), (1, (2, 3)))
        assert not values_close((1, 2), (1, 3))

    def test_nan_equal_nan(self):
        assert values_close(float("nan"), float("nan"))

    def test_bool_not_number(self):
        assert not values_close(True, 2)


class TestBuiltins:
    def test_registry_lookup(self):
        assert is_builtin("add")
        assert not is_builtin("frobnicate")
        with pytest.raises(KeyError):
            get_builtin("frobnicate")

    def test_kinds_partition(self):
        kinds = {b.kind for b in all_builtins()}
        assert kinds == {"poly", "uninterp", "predicate", "list"}

    def test_tuple_arithmetic_rejected(self):
        with pytest.raises(TypeError):
            get_builtin("mul").impl((1, 2), 3)

    def test_huge_operands_degrade_to_float(self):
        huge = Fraction(10) ** 400_000
        result = get_builtin("mul").impl(huge, huge)
        assert isinstance(result, (int, float))
        # value is inf or 0 — but never a 2.6-million-bit exact integer
        if isinstance(result, int):
            assert result == 0
