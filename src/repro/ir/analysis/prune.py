"""Static candidate pruning for the enumerative synthesizer.

``consider`` already deduplicates candidates by their value signature on
the oracle environments — correct but paid per candidate (a full
evaluation over every env).  The rules here discard a candidate *before*
evaluation when, on **every** possible environment, it either faults
(signature ``None`` — the bank drops those) or is value-identical to a
subexpression the bank has already processed (its signature is guaranteed
seen, because candidate children are drawn from the kept pools).

Soundness is strict pointwise equality under the *safe* builtin semantics,
including their corner cases.  Notably absent, because the ``_num2``
float-degrade on huge exact values breaks them: ``add(e, 0)``,
``mul(e, 1)``, ``sub(e, e)``, ``mul(e, 0)`` — ``add(huge, 0)`` degrades to
a float and acquires a *new* signature, and ``Const(0)`` need not even be
in a sharded terminal pool.  ``div(e, 1)`` survives because ``safe_div``
has no degrade path; ``neg(neg(e))`` because ``neg`` is unguarded exact
negation (and bool inputs collide hash-wise with their int images).  Kinds
come from :func:`~repro.ir.analysis.liveness.kind_and_totality`.
"""

from __future__ import annotations

import functools

from ..nodes import ONE, Call, Const, Expr, If, MakeTuple, Proj
from .liveness import BOOL_K, NUM_K, Kind, kind_and_totality

#: Builtins that raise ``TypeError`` when *any* argument is a tuple
#: (``_num2`` / explicit numeric coercion reject non-numbers outright).
_SCALAR_ONLY = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "pow",
        "neg",
        "abs",
        "sqrt",
        "exp",
        "log",
        "expm1",
        "log1p",
        "sign",
        "floor",
        "ceil",
    }
)


@functools.lru_cache(maxsize=4096)
def _kind(expr: Expr) -> Kind:
    """``expr``'s kind whenever it returns.  Cached: candidates' operands are
    the same few pool members over and over, and the analysis walks each."""
    return kind_and_totality(expr, {})[0]


def statically_redundant(expr: Expr) -> bool:
    """Candidate can be dropped without consulting the oracle envs: on every
    environment it faults or duplicates an already-banked signature."""
    if isinstance(expr, Call) and isinstance(expr.func, str):
        name = expr.func
        args = expr.args
        # div(e, 1) == e exactly (safe_div never degrades precision).
        if name == "div" and len(args) == 2 and args[1] == ONE:
            return True
        # min/max of an expression with itself is that expression.
        if name in ("min", "max") and len(args) == 2 and args[0] == args[1]:
            return True
        # neg(neg(e)): exact double negation — equals e (or collides with
        # e's signature hash for bool e), or faults exactly when e's
        # operand faults.
        if (
            name == "neg" and len(args) == 1 and isinstance(args[0], Call) and args[0].func == "neg"
        ):
            return True
        # A numeric builtin fed a guaranteed tuple always raises TypeError.
        if name in _SCALAR_ONLY and any(_kind(a)[0] == "tuple" for a in args):
            return True
    if isinstance(expr, If):
        # Constant condition: the candidate IS one of its branches.
        if isinstance(expr.cond, Const):
            return True
        # Identical branches: the candidate is that branch (or faults with
        # the condition, and faulting candidates are dropped anyway).
        if expr.then == expr.orelse:
            return True
    if isinstance(expr, Proj):
        # Projection from a certain scalar always faults.
        if _kind(expr.tup) in (NUM_K, BOOL_K):
            return True
        # Proj(MakeTuple(..), i): equals item i (whose signature is banked)
        # or faults — either way never a new signature.
        if isinstance(expr.tup, MakeTuple):
            return True
        # Out-of-range projection from a literal tuple always faults.  (An
        # in-range one may denote a constant whose signature is NOT banked,
        # so it must go through the oracle.)
        if (
            isinstance(expr.tup, Const)
            and isinstance(expr.tup.value, tuple)
            and not 0 <= expr.index < len(expr.tup.value)
        ):
            return True
    return False
