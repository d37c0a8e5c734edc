"""Helpers the tests share: the bit-for-bit comparison, the interpreter
fold, a few small schemes and the stream families (``test_conformance.py``
crosses them with every backend)."""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core.scheme import OnlineScheme
from repro.ir.dsl import add, div, mul
from repro.ir.nodes import OnlineProgram
from repro.runtime import sources
from repro.serve.worker import decode_batch, encode_batch


def assert_same_value(a, b, where=""):
    """Bit-for-bit: equal values of identical Python types, recursively."""
    assert type(a) is type(b), f"{where}: {type(a).__name__} != {type(b).__name__} ({a!r} vs {b!r})"
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{where}: {a!r} vs {b!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and a != a:  # nan: both sides produced one
        assert b != b, f"{where}: nan vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def canonical_stream(elements: list) -> list:
    """``elements`` as a serve worker receives them in the canonical wire
    form: every integral ``Fraction``, at any depth, becomes its ``int``."""
    return decode_batch(encode_batch(elements, canonical=True))


def interpreted(scheme, elements, extra=None) -> tuple:
    """The oracle: the state after folding ``elements`` through
    :meth:`OnlineScheme.interpreted_step`."""
    state = scheme.initializer
    for element in elements:
        state = scheme.interpreted_step(state, element, extra)
    return state


def sum_scheme() -> OnlineScheme:
    return OnlineScheme((0,), OnlineProgram(("s",), "x", (add("s", "x"),)))


def mean_scheme() -> OnlineScheme:
    """Example 3.2: P'((y, z), x) = ((y*z + x)/(z + 1), z + 1)."""
    updates = (div(add(mul("y", "z"), "x"), add("z", 1)), add("z", 1))
    return OnlineScheme((0, 0), OnlineProgram(("y", "z"), "x", updates))


def rate_scheme() -> OnlineScheme:
    """The sum of x * rate, with rate an extra parameter."""
    return OnlineScheme(
        (0,), OnlineProgram(("s",), "x", (add("s", mul("x", "rate")),), ("rate",))
    )


def keyed_stream(n, keys=16, seed=3):
    return list(sources.zipf_keys(n, keys=keys, seed=seed))


def extras_for(scheme) -> dict:
    """Integral bindings for a scheme's extra parameters (thresholds,
    rates, categories), inside the range the stream families cover."""
    return dict(zip(scheme.program.extra_params, (2, 0, -3, 1)))


# -- stream families ---------------------------------------------------------

#: Safe-division edges first: mean divides by its zero count on the first
#: step, and harmonic mean's sums pass through zero on 1, -1.
_EDGE_PREFIX = (0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 0)

#: Ints in [-3, 7] and fractions in [-9/4, 22/7]; test_ir_analysis bounds
#: its soundness checks by exactly this range.
_ADVERSARIAL_POOL = (
    0, 1, -1, 2, -3, 7,
    Fraction(0), Fraction(1, 3), Fraction(-2, 5),
    Fraction(6, 3),  # normalizes to int through arithmetic
    Fraction(22, 7), Fraction(-9, 4),
)


def adversarial_stream(arity: int, seed: str, n: int = 60) -> list:
    """Zeros, negatives, non-integral ``Fraction``s and int/``Fraction``
    mixes: the values where safe division and normalization matter.
    Second fields of pair streams lie in [0, 3]."""
    rng = random.Random(seed)
    values = list(_EDGE_PREFIX[:n])
    values += [rng.choice(_ADVERSARIAL_POOL) for _ in range(n - len(values))]
    if arity <= 1:
        return values
    return list(zip(values, [rng.choice((0, 1, 2, Fraction(1), Fraction(3))) for _ in values]))


def integral_stream(arity: int, n: int = 60) -> list:
    """``Fraction(k)`` values with int second fields: the shape of every
    built-in source (``repro.runtime.sources``)."""
    values = [Fraction((i * 37) % 101 - 20) for i in range(n)]
    values[::7] = [Fraction(0)] * len(values[::7])
    if arity <= 1:
        return values
    return list(zip(values, [(i * 3) % 4 for i in range(n)]))


def small_int_stream(arity: int, n: int = 60) -> list:
    """Small ints with positive int second fields: int64-certifiable for
    the schemes the columnar backend admits."""
    values = [(i * 7) % 11 - 3 for i in range(n)]
    if arity <= 1:
        return values
    return list(zip(values, [(i * 3) % 4 + 1 for i in range(n)]))
