"""Algebraic tidying of synthesized online expressions.

The decoder and template solver can leave arithmetic noise behind
(``x * 1``, ``0 + e``, constant subtrees).  This pass performs local,
semantics-preserving rewrites only — it exists so that reported AST sizes and
pretty-printed schemes are comparable with the hand-written ground truth, not
for correctness.

The safe-division convention makes some classical identities unsound
(``e / e`` is 0, not 1, when ``e = 0``), so only identities valid under the
paper's semantics are applied.  An identity operand is the node ``ZERO``,
``ONE``, ``TRUE`` or ``FALSE`` itself: ``x + 0.0`` is a float and ``x * True``
raises, so neither is ``x``; nor is ``x + 0`` unless ``kind_and_totality``
proves ``x`` a number (a tuple or bool ``x`` raises).  Absorbing rewrites
(``x * 0``, ``x - x``, ``0 / x``, ``x ** 0``) are not applied: they would
drop the operand's float type and its faults.
"""

from __future__ import annotations

from fractions import Fraction

from ..ir.analysis.liveness import NUM_K, kind_and_totality
from ..ir.builtins import get_builtin, is_builtin
from ..ir.nodes import FALSE, ONE, TRUE, ZERO, Call, Const, Expr, If, MakeTuple, Proj, const
from ..ir.traversal import transform_bottom_up
from ..ir.values import is_number


def _fold_constants(node: Expr) -> Expr:
    if isinstance(node, Call) and isinstance(node.func, str):
        if all(isinstance(a, Const) for a in node.args) and is_builtin(node.func):
            builtin = get_builtin(node.func)
            try:
                value = builtin.impl(*(a.value for a in node.args))  # type: ignore[union-attr]
            except (ArithmeticError, ValueError, OverflowError, TypeError):
                # A constant subtree that faults (e.g. a bool fed to numeric
                # arithmetic) is left in place so the fault stays at runtime.
                return node
            if is_number(value) and not isinstance(value, float):
                return const(value)
            if isinstance(value, bool):
                return Const(value)
    return node


def _numeric(expr: Expr | None) -> bool:
    """``expr`` is a number whenever it returns."""
    return expr is not None and kind_and_totality(expr, {})[0] == NUM_K


def _local(node: Expr) -> Expr:
    node = _fold_constants(node)
    if isinstance(node, Call) and isinstance(node.func, str):
        a = node.args[0] if node.args else None
        b = node.args[1] if len(node.args) > 1 else None
        op = node.func
        if op == "add":
            if a == ZERO and _numeric(b):
                return b  # type: ignore[return-value]
            if b == ZERO and _numeric(a):
                return a  # type: ignore[return-value]
        elif op == "sub":
            if b == ZERO and _numeric(a):
                return a  # type: ignore[return-value]
        elif op == "mul":
            if a == ONE and _numeric(b):
                return b  # type: ignore[return-value]
            if b == ONE and _numeric(a):
                return a  # type: ignore[return-value]
        elif op == "div":
            if b == ONE and _numeric(a):
                return a  # type: ignore[return-value]
            # Nested constant denominators: (e / c1) / c2 -> e / (c1*c2).
            if (
                isinstance(a, Call)
                and a.func == "div"
                and isinstance(a.args[1], Const)
                and isinstance(b, Const)
                and not isinstance(a.args[1].value, bool)
                and not isinstance(b.value, bool)
            ):
                merged = Fraction(a.args[1].value) * Fraction(b.value)
                return Call("div", (a.args[0], const(merged)))
        elif op == "pow":
            if b == ONE and _numeric(a):
                return a  # type: ignore[return-value]
        elif op == "neg" and isinstance(a, Call) and a.func == "neg" and _numeric(a.args[0]):
            return a.args[0]
    if isinstance(node, If):
        if node.cond == TRUE:
            return node.then
        if node.cond == FALSE:
            return node.orelse
        if node.then == node.orelse:
            return node.then
    if isinstance(node, Proj) and isinstance(node.tup, MakeTuple):
        if 0 <= node.index < len(node.tup.items):
            return node.tup.items[node.index]
    return node


def simplify_expr(expr: Expr) -> Expr:
    """Bottom-up local simplification to a fixpoint (bounded)."""
    current = expr
    for _ in range(8):
        simplified = transform_bottom_up(current, _local)
        if simplified == current:
            return current
        current = simplified
    return current
