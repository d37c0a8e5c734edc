"""Runtime values and numeric helpers shared by the evaluator and oracles.

The IR is evaluated over exact rationals (``int`` / ``fractions.Fraction``)
whenever possible so that the testing-based equivalence oracle of Section 6 is
deterministic.  Irrational built-ins (``sqrt``, ``exp``, ``log``, fractional
powers) fall back to ``float``; comparisons involving floats use a relative
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Union

Number = Union[int, Fraction, float]
Value = Any  # Number | bool | tuple[Value, ...] | list[Value]

#: Relative tolerance for float comparisons in the equivalence oracle.
FLOAT_RTOL = 1e-7
FLOAT_ATOL = 1e-9


def is_number(v: Value) -> bool:
    return isinstance(v, (int, Fraction, float)) and not isinstance(v, bool)


def normalize_number(v: Number) -> Number:
    """Collapse ``Fraction`` with unit denominator to ``int``."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def safe_div(a: Number, b: Number) -> Number:
    """Division with the paper's convention: ``a / 0 == 0``.

    Mixed float/Fraction operands can underflow to a zero float even when the
    exact divisor is nonzero; any arithmetic failure falls back to 0, keeping
    the convention total.
    """
    if b == 0:
        return 0
    try:
        if isinstance(a, float) or isinstance(b, float):
            return a / b
        return normalize_number(Fraction(a) / Fraction(b))
    except (ZeroDivisionError, OverflowError):
        return 0


def _bit_size(v: Number) -> int:
    """Rough magnitude of an exact number in bits (floats count as small).
    An integral ``Fraction`` counts as its numerator, so ``Fraction(k)`` and
    ``k`` take the same side of every threshold built on this size."""
    if isinstance(v, Fraction):
        bits = v.numerator.bit_length()
        denominator = v.denominator
        return bits if denominator == 1 else bits + denominator.bit_length()
    if isinstance(v, int):
        return v.bit_length()
    return 64


def _log_exact(v: Number) -> float:
    """``log(v)`` of a positive exact number, including ones whose float
    conversion overflows or underflows: ``math.log`` takes big ints whole."""
    if isinstance(v, Fraction):
        return math.log(v.numerator) - math.log(v.denominator)
    return math.log(v)


def _saturate_exp(x: float) -> float:
    """``exp(x)``, saturating to ``inf`` past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def safe_pow(base: Number, exp: Number) -> Number:
    """Exponentiation that stays exact for integer exponents.

    Fractional exponents (e.g. ``x ** 0.5``) produce floats; negative bases
    with fractional exponents produce 0 (the paper's "safe" convention applied
    to partial operations).  Float results past the float range saturate to
    ``inf`` or ``0.0`` instead of raising.
    """
    if isinstance(exp, Fraction) and exp.denominator == 1:
        exp = int(exp)
    if isinstance(exp, int):
        # Exact exponentiation for moderate results; enumeration can stack
        # powers (((v^64)^64)^64 ...), so anything whose exact result would
        # exceed ~4M bits goes through floats to stay bounded.
        if abs(exp) > 64 or _bit_size(base) * max(abs(exp), 1) > 1 << 22:
            try:
                return float(base) ** exp if base != 0 else 0
            except (OverflowError, ZeroDivisionError):
                return 0
        try:
            if exp >= 0:
                if isinstance(base, float):
                    return base**exp
                return normalize_number(Fraction(base) ** exp)
            if base == 0:
                return 0
            if isinstance(base, float):
                return base**exp
            return normalize_number(Fraction(base) ** exp)
        except (OverflowError, ZeroDivisionError):
            return 0
    try:
        exp_f = float(exp)
    except OverflowError:  # an exact exponent beyond the float range
        exp_f = math.inf if exp > 0 else -math.inf
    try:
        base_f = float(base)
    except OverflowError:  # an exact base beyond the float range
        if base < 0:
            return 0
        return _saturate_exp(exp_f * _log_exact(base))
    if base_f < 0:
        return 0
    if base_f == 0:
        return 0 if exp_f <= 0 else 0.0
    try:
        return base_f**exp_f
    except OverflowError:
        return math.inf


def safe_sqrt(v: Number) -> Number:
    if v < 0:
        return 0
    if isinstance(v, (int, Fraction)):
        frac = Fraction(v)
        num_root = math.isqrt(frac.numerator)
        den_root = math.isqrt(frac.denominator)
        if num_root * num_root == frac.numerator and den_root * den_root == frac.denominator:
            return normalize_number(Fraction(num_root, den_root))
    try:
        return math.sqrt(float(v))
    except OverflowError:  # an exact value beyond the float range
        return _saturate_exp(_log_exact(v) / 2)


def safe_log(v: Number) -> Number:
    if v <= 0:
        return 0
    if v == 1:
        return 0
    try:
        f = float(v)
    except OverflowError:
        f = 0.0
    if f == 0.0:  # an exact positive value above or below the float range
        return _log_exact(v)
    return math.log(f)


def safe_exp(v: Number) -> Number:
    if v == 0:
        return 1
    try:
        return math.exp(float(v))
    except OverflowError:
        return float("inf")


def values_close(a: Value, b: Value) -> bool:
    """Structural equality with float tolerance; the oracle's comparator."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if is_number(a) and is_number(b):
        if isinstance(a, float) or isinstance(b, float):
            fa, fb = float(a), float(b)
            if math.isnan(fa) and math.isnan(fb):
                return True
            if math.isinf(fa) or math.isinf(fb):
                return fa == fb
            return math.isclose(fa, fb, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(values_close(x, y) for x, y in zip(a, b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_close(x, y) for x, y in zip(a, b))
    return a == b
