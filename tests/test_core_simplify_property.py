"""Property tests: ``simplify_expr`` is idempotent and meaning-preserving.

The simplifier runs over every synthesized scheme before it is reported or
stored, so its contract is load-bearing:

* **total** — it must return (not raise) on any IR tree, including trees
  that would fault at runtime (constant folding must leave faulting
  constant subtrees in place);
* **idempotent** — applying it twice changes nothing beyond the first
  application (a non-idempotent "fixpoint" would mean the bounded rewrite
  loop returns unconverged expressions);
* **value-preserving** — on any environment where the original expression
  evaluates successfully, the simplified expression evaluates successfully
  to the same value.
* **non-growing** — reported AST sizes stay comparable with the hand
  written ground truth, so simplification never enlarges a tree;
* **type-preserving on identities** — an identity operand is ``0``, ``1``,
  ``True`` or ``False`` of its own type: ``x + 0.0`` is a float and
  ``x * True`` raises, so neither simplifies to ``x``; and ``x + 0`` is
  ``x`` only for a numeric ``x`` (on a tuple it raises).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from differential import assert_same_value
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ir_compile import ORACLE_ERRORS, random_candidate

from repro.core.simplify import simplify_expr
from repro.ir.dsl import add, div, ite, lt, mul, neg, powi, sub
from repro.ir.nodes import Const
from repro.ir.evaluator import evaluate
from repro.ir.traversal import ast_size
from repro.ir.values import values_close

_NAMES = ("a", "b", "x")

_POOL = (0, 1, -1, 2, -3, 7, Fraction(1, 3), Fraction(-7, 2), Fraction(6, 3))


def _environments(rng: random.Random, count: int = 6) -> list[dict]:
    return [{name: rng.choice(_POOL) for name in _NAMES} for _ in range(count)]


def _outcome(expr, env):
    """(value, None) on success, (None, error class) on an oracle error."""
    try:
        return evaluate(expr, dict(env)), None
    except ORACLE_ERRORS as exc:
        return None, type(exc)


def assert_meaning_preserved(expr, simplified, env, where):
    """Wherever the original succeeds, the simplified form must succeed
    with the same value (the simplifier's contract on verified candidates)."""
    value, raised = _outcome(expr, env)
    if raised is not None:
        return
    s_value, s_raised = _outcome(simplified, env)
    assert s_raised is None, f"{where}: simplification introduced {s_raised}"
    assert values_close(value, s_value), f"{where}: {value!r} vs {s_value!r}"


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_random_candidates_idempotent_and_semantics_preserving(seed):
    """>= 150 random candidates per seed — the population the enumerator
    actually produces — each checked on several random environments."""
    rng = random.Random(seed)
    envs = _environments(rng)
    for i in range(150):
        expr = random_candidate(rng, _NAMES, rng.randint(1, 4))
        simplified = simplify_expr(expr)
        assert simplify_expr(simplified) == simplified, f"seed {seed} #{i}: not idempotent"
        assert ast_size(simplified) <= ast_size(expr), f"seed {seed} #{i}: grew"
        for env in envs:
            assert_meaning_preserved(expr, simplified, env, f"seed {seed} #{i}")


@given(
    a=st.fractions(min_value=-10, max_value=10, max_denominator=6),
    b=st.fractions(min_value=-10, max_value=10, max_denominator=6),
    x=st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_noise_shapes_simplify_and_preserve_meaning(a, b, x):
    """The decoder's actual noise shapes (identity operands, constant
    subtrees, same-branch conditionals) on hypothesis-generated values."""
    env = {"a": a, "b": b, "x": x}
    # Identities rewrite only operands the kind analysis proves numeric.
    noisy = [
        add(mul(sub("a", "a"), "b"), div(mul(add("x", 1), 1), 2)),
        mul(add(sub("a", "b"), 0), powi(add(neg("b"), 0), 1)),
        ite(lt("a", "b"), add(mul("x", 2), 0), add(mul("x", 2), 0)),
        div(div("a", 2), 3),
        sub(add("a", "b"), 0),
    ]
    for expr in noisy:
        simplified = simplify_expr(expr)
        assert simplify_expr(simplified) == simplified
        assert ast_size(simplified) < ast_size(expr)
        assert_meaning_preserved(expr, simplified, env, repr(expr))


def test_total_on_faulting_constant_subtrees():
    """Constant folding must not raise when a constant subtree faults
    (e.g. a folded comparison feeding numeric arithmetic); the subtree is
    left in place so the fault still happens at runtime."""
    expr = add(lt(1, 2), -3)  # folds to add(Const(True), Const(-3))
    simplified = simplify_expr(expr)
    assert simplify_expr(simplified) == simplified
    with pytest.raises(TypeError):
        evaluate(simplified, {})


#: Identity-shaped operands of another type than the identity itself.
_TYPED_PROBES = [
    add("x", Const(0.0)),
    mul("x", Const(1.0)),
    mul("x", Const(True)),
    add("x", Const(False)),
    powi("x", Const(1.0)),
    ite(lt("x", 3), Const(1), Const(1.0)),
    # Identity shapes: TypeError on a tuple ``x``, whatever the identity.
    add("x", 0),
    add(0, "x"),
    sub("x", 0),
    mul("x", 1),
    mul(1, "x"),
    div("x", 1),
    powi("x", 1),
    neg(neg("x")),
    # Absorbing shapes: 0.0 / 1.0 on a float ``x``, TypeError on a tuple.
    mul("x", 0),
    mul(0, "x"),
    sub("x", "x"),
    div(0, "x"),
    powi("x", 0),
]


@pytest.mark.parametrize("expr", _TYPED_PROBES, ids=repr)
def test_identities_keep_constant_types(expr):
    """The simplified form gives the same value of the same type, or raises
    the same exception class, as the original."""
    simplified = simplify_expr(expr)
    for x in (2, -3, 7, Fraction(1, 3), 2.5, (1, 2)):
        value, raised = _outcome(expr, {"x": x})
        s_value, s_raised = _outcome(simplified, {"x": x})
        assert s_raised is raised, f"x={x!r}: {simplified!r} raised {s_raised}, not {raised}"
        assert_same_value(s_value, value, f"x={x!r}: {simplified!r}")
