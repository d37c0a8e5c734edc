"""Combinator axioms (Figure 10) as a rewriting system.

``FindImplicate`` needs to relate combinator applications over ``xs ++ [x]``
to applications over ``xs``.  Rather than asserting the axioms as formulas,
we *orient* them left-to-right and rewrite the specification
``E[(xs ++ [x])/xs]`` to a normal form in which every ``Snoc`` has been
pushed out of the combinators:

    foldl(g, c, xs ++ [x])   ->  g(foldl(g, c, xs), x)
    map(g, xs ++ [x])        ->  map(g, xs) ++ [g(x)]
    filter(g, xs ++ [x])     ->  g(x) ? filter(g, xs) ++ [x] : filter(g, xs)
    length(xs ++ [x])        ->  length(xs) + 1

The ``filter`` rule introduces conditionals *at list type*; these are floated
out of enclosing combinators by the distribution rules

    foldl(g, c, b ? L1 : L2) -> b ? foldl(g, c, L1) : foldl(g, c, L2)

(and similarly for ``map``, ``filter``, ``length`` and ``Snoc``), so that the
normal form only applies combinators to plain list expressions over ``xs``.
Rewriting runs to a fixpoint; the system terminates because every rule
strictly moves ``Snoc``/``If`` nodes toward the root or eliminates them.
"""

from __future__ import annotations

from ..ir.nodes import (
    Call,
    Const,
    Expr,
    Filter,
    Fold,
    If,
    Lambda,
    Snoc,
)
from ..ir.nodes import Map as MapNode
from ..ir.traversal import rebuild, substitute

_MAX_REWRITE_PASSES = 64


def apply_lambda(func: Lambda, *args: Expr) -> Expr:
    """Beta-reduce a combinator's lambda applied to ``args``."""
    if not isinstance(func, Lambda):
        raise ValueError(f"cannot apply non-lambda {func!r}")
    if len(func.params) != len(args):
        raise ValueError(f"lambda arity {len(func.params)} vs {len(args)} arguments")
    return substitute(func.body, dict(zip(func.params, args)))


def _rewrite_once(expr: Expr) -> Expr:
    """One bottom-up pass of the oriented axioms; returns a (possibly)
    rewritten tree."""
    new_children = tuple(_rewrite_once(c) for c in expr.children())
    node = rebuild(expr, new_children)

    # -- axioms of Figure 10 ------------------------------------------------
    if isinstance(node, Fold) and isinstance(node.lst, Snoc):
        rest = Fold(node.func, node.init, node.lst.lst)
        return apply_lambda(node.func, rest, node.lst.elem)
    if isinstance(node, MapNode) and isinstance(node.lst, Snoc):
        mapped_rest = MapNode(node.func, node.lst.lst)
        return Snoc(mapped_rest, apply_lambda(node.func, node.lst.elem))
    if isinstance(node, Filter) and isinstance(node.lst, Snoc):
        kept = Filter(node.func, node.lst.lst)
        cond = apply_lambda(node.func, node.lst.elem)
        return If(cond, Snoc(kept, node.lst.elem), kept)
    if (
        isinstance(node, Call)
        and node.func == "length"
        and len(node.args) == 1
        and isinstance(node.args[0], Snoc)
    ):
        return Call("add", (Call("length", (node.args[0].lst,)), Const(1)))

    # -- distribution of list-typed conditionals -----------------------------
    if isinstance(node, Fold) and isinstance(node.lst, If):
        cond = node.lst
        return If(
            cond.cond,
            Fold(node.func, node.init, cond.then),
            Fold(node.func, node.init, cond.orelse),
        )
    if isinstance(node, MapNode) and isinstance(node.lst, If):
        cond = node.lst
        return If(
            cond.cond,
            MapNode(node.func, cond.then),
            MapNode(node.func, cond.orelse),
        )
    if isinstance(node, Filter) and isinstance(node.lst, If):
        cond = node.lst
        return If(
            cond.cond,
            Filter(node.func, cond.then),
            Filter(node.func, cond.orelse),
        )
    if (
        isinstance(node, Call)
        and node.func == "length"
        and len(node.args) == 1
        and isinstance(node.args[0], If)
    ):
        cond = node.args[0]
        return If(
            cond.cond,
            Call("length", (cond.then,)),
            Call("length", (cond.orelse,)),
        )
    if isinstance(node, Snoc) and isinstance(node.lst, If):
        cond = node.lst
        return If(
            cond.cond,
            Snoc(cond.then, node.elem),
            Snoc(cond.orelse, node.elem),
        )
    return node


def push_snoc(expr: Expr) -> Expr:
    """Rewrite to fixpoint with the oriented axioms of Figure 10."""
    current = expr
    for _ in range(_MAX_REWRITE_PASSES):
        rewritten = _rewrite_once(current)
        if rewritten == current:
            return current
        current = rewritten
    return current
