"""Well-formedness and determinism audit for online schemes.

``parser.parse_online_program`` rejects the worst offenders at load time,
but programs also arrive from synthesis internals, old store entries, and
tests that build IR directly.  This audit re-checks everything statically —
unbound variables, unfilled holes, unknown builtins, arity mismatches and
non-online constructs (list variables, combinators and builtins) — and
classifies each problem as an ``error`` (the step *will* raise) or a
``warn`` (suspicious but executable).

Every IR builtin is a pure function of its arguments, so any well-formed
scheme is deterministic; the audit reports that as a fact, plus an info
note when float-valued builtins make exactness stream-order sensitive.
"""

from __future__ import annotations

from ..builtins import get_builtin, is_builtin
from ..nodes import (
    Call,
    Expr,
    Filter,
    Fold,
    Hole,
    Lambda,
    Let,
    Map,
    OnlineProgram,
    Var,
)
from ..traversal import iter_subexprs, used_builtins, validate_online_expr
from ..values import Value

#: Builtins whose results may be floats — exactness, not determinism, caveat.
_FLOATY = frozenset({"sqrt", "exp", "log", "expm1", "log1p", "pow"})


def _finding(level: str, message: str, site: str | None = None) -> dict:
    out = {"analysis": "wellformed", "level": level, "message": message}
    if site is not None:
        out["site"] = site
    return out


def _bound_names(program: OnlineProgram) -> frozenset[str]:
    return frozenset((*program.state_params, program.elem_param, *program.extra_params))


def _check_expr(expr: Expr, bound: frozenset[str], site: str) -> list[dict]:
    findings: list[dict] = []

    def walk(node: Expr, scope: frozenset[str]) -> None:
        if isinstance(node, Var) and node.name not in scope:
            findings.append(_finding("error", f"unbound variable {node.name!r}", site))
            return
        if isinstance(node, Hole):
            findings.append(_finding("error", f"unfilled hole ?{node.hole_id}", site))
            return
        if isinstance(node, Call):
            if isinstance(node.func, str):
                if not is_builtin(node.func):
                    findings.append(_finding("error", f"unknown builtin {node.func!r}", site))
                else:
                    builtin = get_builtin(node.func)
                    if builtin.arity != len(node.args):
                        findings.append(
                            _finding(
                                "error",
                                f"{node.func} expects {builtin.arity} args, "
                                f"got {len(node.args)}",
                                site,
                            )
                        )
            elif isinstance(node.func, Lambda):
                if len(node.func.params) != len(node.args):
                    findings.append(
                        _finding(
                            "error",
                            f"lambda expects {len(node.func.params)} args, "
                            f"got {len(node.args)}",
                            site,
                        )
                    )
                walk(node.func.body, scope | frozenset(node.func.params))
            else:
                findings.append(_finding("error", f"cannot apply {type(node.func).__name__}", site))
            for a in node.args:
                walk(a, scope)
            return
        if isinstance(node, Lambda):
            walk(node.body, scope | frozenset(node.params))
            return
        if isinstance(node, (Map, Filter, Fold)) and not isinstance(node.func, Lambda):
            findings.append(_finding("error", f"cannot apply {type(node.func).__name__}", site))
        if isinstance(node, Let):
            walk(node.value, scope)
            walk(node.body, scope | {node.name})
            return
        for child in node.children():
            walk(child, scope)

    walk(expr, bound)
    return findings


def audit_program(
    program: OnlineProgram,
    initializer: tuple[Value, ...] | None = None,
) -> list[dict]:
    """All well-formedness findings for one online program."""
    findings: list[dict] = []

    names = list(program.state_params)
    if len(set(names)) != len(names):
        findings.append(_finding("error", "duplicate state component names"))
    if program.elem_param in names:
        findings.append(_finding("error", f"element param {program.elem_param!r} shadows state"))
    if initializer is not None and len(initializer) != program.arity:
        findings.append(
            _finding(
                "error",
                f"initializer has {len(initializer)} values for "
                f"{program.arity} state components",
            )
        )

    bound = _bound_names(program)
    online = []
    for i, out in enumerate(program.outputs):
        site = f"output {i} ({program.state_params[i]})" if i < len(
            program.state_params
        ) else f"output {i}"
        if validate_online_expr(out):
            online.append(out)
        else:
            findings.append(
                _finding(
                    "error",
                    "not an online expression (list construct, list builtin, "
                    "or hole)",
                    site,
                )
            )
        findings.extend(_check_expr(out, bound, site))

    # The notes below walk online outputs only: the others are errors
    # already, and a combinator there may hold a callee outside the IR.
    floaty = set()
    for out in online:
        floaty |= used_builtins(out) & _FLOATY
    has_higher_order = any(isinstance(sub, Lambda) for out in online for sub in iter_subexprs(out))
    findings.append(
        _finding(
            "info",
            "deterministic: all builtins are pure functions of their inputs",
        )
    )
    if floaty:
        findings.append(
            _finding(
                "info",
                "float-valued builtins in use "
                f"({', '.join(sorted(floaty))}): results may be inexact",
            )
        )
    if has_higher_order:
        findings.append(_finding("info", "higher-order lambdas present (inlined per call)"))
    return findings
