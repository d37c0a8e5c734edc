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
negation (and bool inputs collide hash-wise with their int images).
"""

from __future__ import annotations

from ..builtins import get_builtin, is_builtin
from ..nodes import ONE, Call, Const, Expr, If, MakeTuple, Proj
from ..values import is_number

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


def _definite_kind(expr: Expr) -> str | None:
    """``"num"`` / ``"bool"`` / ``"tuple"`` when the value kind is certain
    *whenever the expression returns*; ``None`` otherwise."""
    if isinstance(expr, Const):
        v = expr.value
        if isinstance(v, bool):
            return "bool"
        if isinstance(v, tuple):
            return "tuple"
        if is_number(v):
            return "num"
        return None
    if isinstance(expr, MakeTuple):
        return "tuple"
    if isinstance(expr, Call) and isinstance(expr.func, str) and is_builtin(expr.func):
        kind = get_builtin(expr.func).kind
        if kind == "predicate":
            return "bool"
        if kind != "list" and expr.func not in ("min", "max"):
            # min/max return one of their arguments, whatever its kind.
            return "num"
    return None


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
        if name in _SCALAR_ONLY and any(_definite_kind(a) == "tuple" for a in args):
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
        kind = _definite_kind(expr.tup)
        # Projection from a certain scalar always faults.
        if kind in ("num", "bool"):
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
