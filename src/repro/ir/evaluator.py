"""A definitional interpreter for the IR.

Implements the standard semantics of Figure 6 over exact rational values.
Both offline programs and candidate online expressions are executed with this
interpreter; it is the ground truth for the testing-based equivalence oracle
(Section 6) and for the streaming semantics of Figure 8 (see
:mod:`repro.core.scheme`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .builtins import get_builtin
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
    Program,
    Proj,
    Snoc,
    Var,
)
from .values import Value


class EvaluationError(Exception):
    """Raised on genuinely ill-formed programs (unbound variables, arity
    mismatches, holes); *not* used for arithmetic edge cases, which the safe
    built-ins absorb."""


_MISSING = object()


class _ChainEnv:
    """A parent-chained environment frame: O(1) to extend, lookups walk the
    chain.  Replaces the full-dict copy the interpreter used to pay on every
    closure call and every ``Let`` — bindings are immutable once created, so
    sharing the tail is safe."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict, parent):
        self.bindings = bindings
        self.parent = parent

    def get(self, name, default=None):
        env = self
        while type(env) is _ChainEnv:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        return default if env is None else env.get(name, default)

    def __contains__(self, name) -> bool:
        return self.get(name, _MISSING) is not _MISSING

    def __getitem__(self, name):
        value = self.get(name, _MISSING)
        if value is _MISSING:
            raise KeyError(name)
        return value


class Closure:
    """Runtime representation of a lambda abstraction."""

    __slots__ = ("lam", "env")

    def __init__(self, lam: Lambda, env: Mapping[str, Value]):
        self.lam = lam
        self.env = env

    def __call__(self, *args: Value) -> Value:
        params = self.lam.params
        if len(args) != len(params):
            raise EvaluationError(f"lambda expects {len(params)} args, got {len(args)}")
        frame = dict(zip(params, args)) if params else {}
        return evaluate(self.lam.body, _ChainEnv(frame, self.env))


def _closure(func, env: Mapping[str, Value]) -> Closure:
    """The callee of a combinator, or of a ``Call`` that names no builtin:
    always a ``Lambda``."""
    if isinstance(func, Lambda):
        return Closure(func, env)
    raise EvaluationError(f"cannot apply {func!r}")


def evaluate(expr: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate ``expr`` under ``env`` (variable name -> value)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        value = env.get(expr.name, _MISSING)
        if value is _MISSING:
            raise EvaluationError(f"unbound variable {expr.name!r}")
        return value
    if isinstance(expr, ListVar):
        value = env.get(expr.name, _MISSING)
        if value is _MISSING:
            raise EvaluationError(f"unbound list variable {expr.name!r}")
        return value
    if isinstance(expr, Lambda):
        # Environments are never mutated once extended (Let and closure
        # calls chain fresh frames instead), so capturing by reference is
        # safe and copy-free.
        return Closure(expr, env)
    if isinstance(expr, Call):
        func = expr.func
        fn = get_builtin(func).impl if isinstance(func, str) else _closure(func, env)
        args = [evaluate(a, env) for a in expr.args]
        return fn(*args)
    if isinstance(expr, If):
        cond = evaluate(expr.cond, env)
        return evaluate(expr.then if cond else expr.orelse, env)
    if isinstance(expr, Map):
        fn = _closure(expr.func, env)
        lst = evaluate(expr.lst, env)
        return [fn(item) for item in lst]
    if isinstance(expr, Filter):
        fn = _closure(expr.func, env)
        lst = evaluate(expr.lst, env)
        return [item for item in lst if fn(item)]
    if isinstance(expr, Fold):
        fn = _closure(expr.func, env)
        acc = evaluate(expr.init, env)
        lst = evaluate(expr.lst, env)
        for item in lst:
            acc = fn(acc, item)
        return acc
    if isinstance(expr, Let):
        value = evaluate(expr.value, env)
        return evaluate(expr.body, _ChainEnv({expr.name: value}, env))
    if isinstance(expr, Snoc):
        lst = evaluate(expr.lst, env)
        elem = evaluate(expr.elem, env)
        return list(lst) + [elem]
    if isinstance(expr, MakeTuple):
        return tuple(evaluate(item, env) for item in expr.items)
    if isinstance(expr, Proj):
        tup = evaluate(expr.tup, env)
        try:
            return tup[expr.index]
        except (IndexError, TypeError) as exc:
            raise EvaluationError(f"bad projection {expr!r}: {exc}") from None
    if isinstance(expr, Hole):
        raise EvaluationError(f"cannot evaluate sketch hole {expr!r}")
    raise EvaluationError(f"unhandled node {type(expr).__name__}")


def run_offline(
    program: Program,
    xs: Sequence[Value],
    extra: Mapping[str, Value] | None = None,
) -> Value:
    """Execute an offline program on a concrete input list (``[[P]]_xs``)."""
    env: dict[str, Value] = dict(extra or {})
    env[program.param] = list(xs)
    return evaluate(program.body, env)


def step_online(
    program: OnlineProgram,
    state: Sequence[Value],
    element: Value,
    extra: Mapping[str, Value] | None = None,
) -> tuple[Value, ...]:
    """One transition of an online program: ``P'(y, x) -> y'``."""
    if len(state) != program.arity:
        raise EvaluationError(
            f"online program expects {program.arity} state values, got {len(state)}"
        )
    env: dict[str, Value] = dict(extra or {})
    env.update(zip(program.state_params, state))
    env[program.elem_param] = element
    return tuple(evaluate(out, env) for out in program.outputs)
