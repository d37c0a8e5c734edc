"""Generic AST traversals: substitution, free variables, let-inlining,
list-expression discovery, the stream element's shape, and AST size (the
paper's Table 1 metric).

Every function here is purely structural and returns new trees; IR nodes are
immutable.  Each structural question has one answer here: the backends and
analyses ask :func:`free_vars` which names an expression reads, and
:func:`element_shape` how an online program reads its element.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .builtins import get_builtin, is_builtin
from .nodes import (
    Call,
    Const,
    Expr,
    Filter,
    Fold,
    Hole,
    If,
    Lambda,
    Let,
    ListVar,
    MakeTuple,
    Map,
    OnlineProgram,
    Proj,
    Snoc,
    Var,
)

def rebuild(expr: Expr, new_children: tuple[Expr, ...]) -> Expr:
    """Reconstruct ``expr`` with ``new_children`` (same order as ``children``)."""
    if isinstance(expr, (Const, Var, ListVar, Hole)):
        return expr
    if isinstance(expr, Lambda):
        (body,) = new_children
        return Lambda(expr.params, body)
    if isinstance(expr, Call):
        if isinstance(expr.func, Lambda):
            func, *args = new_children
            return Call(func, tuple(args))
        return Call(expr.func, tuple(new_children))
    if isinstance(expr, If):
        cond, then, orelse = new_children
        return If(cond, then, orelse)
    if isinstance(expr, (Map, Filter, Fold)):
        if isinstance(expr.func, Lambda):
            return type(expr)(*new_children)
        return type(expr)(expr.func, *new_children)
    if isinstance(expr, Let):
        value, body = new_children
        return Let(expr.name, value, body)
    if isinstance(expr, Snoc):
        lst, elem = new_children
        return Snoc(lst, elem)
    if isinstance(expr, MakeTuple):
        return MakeTuple(tuple(new_children))
    if isinstance(expr, Proj):
        (tup,) = new_children
        return Proj(tup, expr.index)
    raise TypeError(f"unhandled node {type(expr).__name__}")


def transform_bottom_up(expr: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Apply ``f`` to every node, children first."""
    new_children = tuple(transform_bottom_up(c, f) for c in expr.children())
    return f(rebuild(expr, new_children))


def iter_subexprs(expr: Expr) -> Iterator[Expr]:
    """Pre-order iteration over all sub-expressions including ``expr``."""
    yield expr
    for child in expr.children():
        yield from iter_subexprs(child)


def ast_size(expr: Expr) -> int:
    """Number of AST nodes; the size metric of Table 1."""
    return 1 + sum(ast_size(c) for c in expr.children())


def free_vars(expr: Expr, lists: bool = False) -> frozenset[str]:
    """Names ``expr`` reads free: its ``Var`` names, and its ``ListVar``
    names too when ``lists`` is set.  ``Lambda`` parameters and ``Let``
    names bind both kinds."""
    if isinstance(expr, Var) or (lists and isinstance(expr, ListVar)):
        return frozenset({expr.name})
    if isinstance(expr, Lambda):
        return free_vars(expr.body, lists) - frozenset(expr.params)
    if isinstance(expr, Let):
        return free_vars(expr.value, lists) | (free_vars(expr.body, lists) - {expr.name})
    result: frozenset[str] = frozenset()
    for child in expr.children():
        result |= free_vars(child, lists)
    return result


def element_shape(program: OnlineProgram) -> tuple[int, bool]:
    """How the outputs of an online program read its stream element:
    ``(fields, whole)``.  ``fields`` is the largest index projected off the
    element (``Proj(x, i)``) plus one, 0 when it is never projected;
    ``whole`` says whether the element is also read other than through such
    a projection."""
    elem = program.elem_param
    fields, whole = 0, False
    pending = list(program.outputs)
    while pending:
        expr = pending.pop()
        if isinstance(expr, Proj) and isinstance(expr.tup, Var) and expr.tup.name == elem:
            fields = max(fields, expr.index + 1)
        elif isinstance(expr, Var) and expr.name == elem:
            whole = True
        else:
            pending.extend(expr.children())
    return fields, whole


def contains_list_var(expr: Expr, name: str = "xs") -> bool:
    return any(isinstance(sub, ListVar) and sub.name == name for sub in iter_subexprs(expr))


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of scalar variables.

    Binders (``Lambda`` params, ``Let`` names) shadow outer bindings; since
    substituted values in this codebase are either closed online expressions
    or fresh variables, full alpha-renaming is unnecessary — we simply drop
    shadowed keys.
    """
    if not mapping:
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Lambda):
        inner = {k: v for k, v in mapping.items() if k not in expr.params}
        return Lambda(expr.params, substitute(expr.body, inner))
    if isinstance(expr, Let):
        value = substitute(expr.value, mapping)
        inner = {k: v for k, v in mapping.items() if k != expr.name}
        return Let(expr.name, value, substitute(expr.body, inner))
    new_children = tuple(substitute(c, mapping) for c in expr.children())
    return rebuild(expr, new_children)


def substitute_list_var(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every ``ListVar(name)`` with ``replacement`` — implements the
    ``E[(xs ++ [x]) / xs]`` substitution of Definition 5.3."""

    def step(node: Expr) -> Expr:
        if isinstance(node, ListVar) and node.name == name:
            return replacement
        return node

    return transform_bottom_up(expr, step)


def inline_lets(expr: Expr) -> Expr:
    """Remove all ``Let`` nodes by substituting the bound value into the body.

    The surface syntax of Figure 3a uses lets for readability; the analysis
    of Sections 4-5 assumes the let-free grammar of Figure 6.
    """
    if isinstance(expr, Let):
        value = inline_lets(expr.value)
        body = inline_lets(expr.body)
        return substitute(body, {expr.name: value})
    new_children = tuple(inline_lets(c) for c in expr.children())
    return rebuild(expr, new_children)


def is_list_typed(expr: Expr) -> bool:
    """Does ``expr`` denote a list?  (grammar category ``L`` of Figure 6)"""
    return isinstance(expr, (ListVar, Map, Filter, Snoc))


def is_list_expr(expr: Expr) -> bool:
    """Is ``expr`` a *list expression* in the sense of Algorithm 2 / rule List?

    These are the maximal scalar-valued expressions that directly consume the
    input list: ``foldl`` applications, and built-in calls (e.g. ``length``)
    any of whose arguments is list-typed.  Such expressions become RFS
    entries and sketch holes.
    """
    if isinstance(expr, Fold):
        return True
    if isinstance(expr, Call) and isinstance(expr.func, str):
        return any(is_list_typed(a) for a in expr.args)
    return False


def list_exprs(expr: Expr) -> list[Expr]:
    """All distinct list expressions of ``expr`` in pre-order (Algorithm 2).

    Nested list expressions (e.g. a fold whose lambda mentions another fold)
    are reported too, because each may need its own accumulator; duplicates
    are collapsed.
    """
    seen: dict[Expr, None] = {}

    def walk(node: Expr) -> None:
        if is_list_expr(node):
            seen.setdefault(node, None)
        for child in node.children():
            walk(child)

    walk(expr)
    return list(seen.keys())


def collect_holes(expr: Expr) -> list[Hole]:
    return [sub for sub in iter_subexprs(expr) if isinstance(sub, Hole)]


def fill_holes(expr: Expr, fills: dict[int, Expr]) -> Expr:
    def step(node: Expr) -> Expr:
        if isinstance(node, Hole) and node.hole_id in fills:
            return fills[node.hole_id]
        return node

    return transform_bottom_up(expr, step)


def used_builtins(expr: Expr) -> frozenset[str]:
    """Names of built-ins called anywhere in ``expr`` (drives grammar setup)."""
    names = set()
    for sub in iter_subexprs(expr):
        if isinstance(sub, Call) and isinstance(sub.func, str) and is_builtin(sub.func):
            names.add(sub.func)
    return frozenset(names)


def validate_online_expr(expr: Expr) -> bool:
    """Online programs (Figure 7) must not contain list combinators, list
    variables, ``Snoc``, or unfilled holes."""
    for sub in iter_subexprs(expr):
        if isinstance(sub, (Map, Filter, Fold, ListVar, Snoc, Hole)):
            return False
        if isinstance(sub, Call) and isinstance(sub.func, str):
            # Unknown names are not list builtins; the well-formedness audit
            # reports them separately.
            if is_builtin(sub.func) and get_builtin(sub.func).kind == "list":
                return False
    return True
