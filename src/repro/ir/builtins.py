"""Registry of built-in functions for the IR.

Each built-in carries:

* a runtime implementation over :mod:`repro.ir.values` values;
* an *algebraic kind* telling the symbolic layer how to encode calls:

  - ``"poly"`` — the operation is polynomial/rational arithmetic and is
    interpreted exactly by :mod:`repro.algebra` (``+ - * / ** neg``);
  - ``"uninterp"`` — the call becomes an opaque atom over encoded arguments
    (``min``, ``max``, ``sqrt``, ``exp``, ``log``, ``abs``);
  - ``"predicate"`` — boolean-valued comparison/connective; encoded as a
    boolean atom so it can be copied verbatim into online expressions;
  - ``"list"`` — consumes a list (``length``, ``sum`` aliases); such calls are
    list expressions in the sense of Algorithm 2 and always become RFS
    entries / sketch holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .values import (
    Value,
    _bit_size,
    is_number,
    normalize_number,
    safe_div,
    safe_exp,
    safe_log,
    safe_pow,
    safe_sqrt,
)


@dataclass(frozen=True)
class Builtin:
    name: str
    arity: int
    impl: Callable[..., Value]
    kind: str = "poly"  # poly | uninterp | predicate | list


_REGISTRY: dict[str, Builtin] = {}


def register(builtin: Builtin) -> Builtin:
    if builtin.name in _REGISTRY:
        raise ValueError(f"duplicate builtin {builtin.name!r}")
    _REGISTRY[builtin.name] = builtin
    return builtin


def get_builtin(name: str) -> Builtin:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}") from None


def is_builtin(name: str) -> bool:
    return name in _REGISTRY


def all_builtins() -> Sequence[Builtin]:
    return tuple(_REGISTRY.values())


def _num2(f):
    """Wrap a binary numeric op: normalize exact results, and degrade to
    float arithmetic when operands grow astronomically large (enumerative
    search can stack squarings; exact big-int math must stay bounded)."""

    def wrapped(a: Value, b: Value) -> Value:
        if not (is_number(a) and is_number(b)):
            # Arithmetic is defined on numbers only; Python would happily
            # compute e.g. tuple * int (replication!), which is never what an
            # IR program means.
            raise TypeError(f"numeric operation on non-numbers: {a!r}, {b!r}")
        if _bit_size(a) + _bit_size(b) > 1 << 20:
            try:
                return f(float(a), float(b))
            except (OverflowError, ZeroDivisionError):
                return 0
        return normalize_number(f(a, b))

    return wrapped


register(Builtin("add", 2, _num2(lambda a, b: a + b), "poly"))
register(Builtin("sub", 2, _num2(lambda a, b: a - b), "poly"))
register(Builtin("mul", 2, _num2(lambda a, b: a * b), "poly"))
register(Builtin("div", 2, safe_div, "poly"))
register(Builtin("neg", 1, lambda a: normalize_number(-a), "poly"))
register(Builtin("pow", 2, safe_pow, "poly"))

register(Builtin("min", 2, lambda a, b: min(a, b), "uninterp"))
register(Builtin("max", 2, lambda a, b: max(a, b), "uninterp"))
register(Builtin("abs", 1, lambda a: normalize_number(abs(a)), "uninterp"))
register(Builtin("sqrt", 1, safe_sqrt, "uninterp"))
register(Builtin("exp", 1, safe_exp, "uninterp"))
register(Builtin("log", 1, safe_log, "uninterp"))
register(Builtin("expm1", 1, lambda a: math.expm1(float(a)) if a != 0 else 0, "uninterp"))
register(Builtin("log1p", 1, lambda a: math.log1p(float(a)) if a > -1 else 0, "uninterp"))
register(Builtin("sign", 1, lambda a: (a > 0) - (a < 0), "uninterp"))
register(Builtin("floor", 1, lambda a: math.floor(a), "uninterp"))
register(Builtin("ceil", 1, lambda a: math.ceil(a), "uninterp"))

register(Builtin("lt", 2, lambda a, b: a < b, "predicate"))
register(Builtin("le", 2, lambda a, b: a <= b, "predicate"))
register(Builtin("gt", 2, lambda a, b: a > b, "predicate"))
register(Builtin("ge", 2, lambda a, b: a >= b, "predicate"))
register(Builtin("eq", 2, lambda a, b: a == b, "predicate"))
register(Builtin("ne", 2, lambda a, b: a != b, "predicate"))
register(Builtin("and", 2, lambda a, b: bool(a) and bool(b), "predicate"))
register(Builtin("or", 2, lambda a, b: bool(a) or bool(b), "predicate"))
register(Builtin("not", 1, lambda a: not bool(a), "predicate"))

register(Builtin("length", 1, lambda lst: len(lst), "list"))
