"""Division-by-zero reachability: the concrete (witness) half.

The interval engine delivers the *static* half — a sound interval for every
denominator that can reach a ``div`` site, so sites whose interval excludes
zero are proved safe.  This module supplies the other direction: an
instrumented interpreter with :mod:`repro.ir.evaluator` semantics that
watches every denominator, plus a small bounded search over in-bounds
streams that tries to *hit* a zero.  A hit yields a replayable witness
(stream prefix, element index, site path, pre-step state); no hit leaves
the site ``unknown`` rather than falsely safe.

Note the runtime never actually raises on these — ``safe_div`` absorbs the
zero and returns 0 — so "reachable" findings are warnings about silent
absorption (a mean over the empty window), not crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from ..builtins import get_builtin
from ..evaluator import EvaluationError, evaluate
from ..nodes import (
    Call,
    Const,
    Expr,
    If,
    Lambda,
    Let,
    MakeTuple,
    OnlineProgram,
    Proj,
    Var,
)
from ..traversal import element_shape
from ..values import Value
from .bounds import AnalysisBounds, FieldBounds
from .engine import Path

_MISSING = object()


@dataclass(frozen=True)
class DivZeroWitness:
    """A concrete replay that drives a zero into a ``div`` denominator."""

    #: Stream prefix consumed up to and including the offending step.
    elements: tuple[Value, ...]
    #: Index (0-based) of the element whose step hit the zero.
    element_index: int
    #: Site path (output index, then child indices) of the ``div``.
    site: Path
    #: Accumulator state *before* the offending step.
    state: tuple[Value, ...]
    #: Extra-parameter bindings the replay used.
    extras: dict[str, Value] = field(default_factory=dict)


def _eval_watched(
    expr: Expr,
    env: Mapping[str, Value],
    hits: list[Path],
    path: Path,
) -> Value:
    """Evaluate with :func:`repro.ir.evaluator.evaluate` semantics, recording
    the path of every ``div`` whose denominator is a (numeric) zero.

    The path discipline matches :func:`repro.ir.analysis.engine.eval_abstract`
    exactly, so static intervals and concrete witnesses name the same sites.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        value = env.get(expr.name, _MISSING)
        if value is _MISSING:
            raise EvaluationError(f"unbound variable {expr.name!r}")
        return value
    if isinstance(expr, Call):
        args = [_eval_watched(a, env, hits, path + (i,)) for i, a in enumerate(expr.args)]
        if isinstance(expr.func, str):
            if expr.func == "div" and len(args) == 2:
                # Mirror safe_div's own zero test (bool False and 0.0 count).
                if args[1] == 0:
                    hits.append(path)
            return get_builtin(expr.func).impl(*args)
        if isinstance(expr.func, Lambda):
            lam = expr.func
            if len(args) != len(lam.params):
                raise EvaluationError(f"lambda expects {len(lam.params)} args, got {len(args)}")
            inner = dict(env)
            inner.update(zip(lam.params, args))
            return _eval_watched(lam.body, inner, hits, path + (len(args),))
        raise EvaluationError(f"cannot apply {expr.func!r}")
    if isinstance(expr, If):
        cond = _eval_watched(expr.cond, env, hits, path + (0,))
        if cond:
            return _eval_watched(expr.then, env, hits, path + (1,))
        return _eval_watched(expr.orelse, env, hits, path + (2,))
    if isinstance(expr, Let):
        value = _eval_watched(expr.value, env, hits, path + (0,))
        inner = dict(env)
        inner[expr.name] = value
        return _eval_watched(expr.body, inner, hits, path + (1,))
    if isinstance(expr, MakeTuple):
        return tuple(
            _eval_watched(item, env, hits, path + (i,)) for i, item in enumerate(expr.items)
        )
    if isinstance(expr, Proj):
        tup = _eval_watched(expr.tup, env, hits, path + (0,))
        try:
            return tup[expr.index]
        except (IndexError, TypeError) as exc:
            raise EvaluationError(f"bad projection {expr!r}: {exc}") from None
    # Non-online constructs carry no div sites we track; defer to the
    # reference interpreter for exact semantics (or its exact error).
    return evaluate(expr, dict(env))


def watched_step(
    program: OnlineProgram,
    state: Sequence[Value],
    element: Value,
    extras: Mapping[str, Value],
    hits: list[Path],
) -> tuple[Value, ...]:
    """One online step that appends zero-denominator site paths to ``hits``."""
    env: dict[str, Value] = dict(extras)
    env.update(zip(program.state_params, state))
    env[program.elem_param] = element
    return tuple(_eval_watched(out, env, hits, (i,)) for i, out in enumerate(program.outputs))


def _field_pool(fb: FieldBounds, rng) -> list[Value]:
    """A small set of in-bounds probe values for one stream field."""
    finite_lo = isinstance(fb.lo, (int, Fraction))
    finite_hi = isinstance(fb.hi, (int, Fraction))
    pool: list[Value] = []

    def keep(v: Value) -> None:
        if finite_lo and v < fb.lo:
            return
        if finite_hi and v > fb.hi:
            return
        if fb.integral and Fraction(v).denominator != 1:
            return
        if v not in pool:
            pool.append(v)

    if finite_lo:
        keep(fb.lo)
    if finite_hi:
        keep(fb.hi)
    for v in (0, 1, -1, 2):
        keep(v)
    if finite_lo and finite_hi:
        mid = Fraction(fb.lo + fb.hi, 2)
        keep(int(mid) if fb.integral else mid)
        for _ in range(3):
            if fb.integral:
                keep(rng.randint(int(fb.lo), int(fb.hi)))
            else:
                span = Fraction(fb.hi - fb.lo)
                keep(Fraction(fb.lo) + span * Fraction(rng.randint(0, 16), 16))
    else:
        for _ in range(3):
            keep(rng.randint(-9, 9))
    if not pool:  # degenerate bounds (lo > hi cannot happen, but be safe)
        pool.append(Fraction(fb.lo) if finite_lo else 0)
    return pool


def _element_pool(program: OnlineProgram, bounds: AnalysisBounds, rng) -> list[Value]:
    fields = bounds.element
    if fields is None:
        # Guess the arity from the projections; a scalar stream has none.
        arity = max(element_shape(program)[0], 1)
        fields = tuple(FieldBounds() for _ in range(arity))
    pools = [_field_pool(fb, rng) for fb in fields]
    if len(pools) == 1:
        return list(pools[0])
    # Tuple streams: align pools positionally, then add a few random mixes.
    width = max(len(p) for p in pools)
    elements: list[Value] = []
    for j in range(width):
        elements.append(tuple(p[j % len(p)] for p in pools))
    for _ in range(6):
        elements.append(tuple(rng.choice(p) for p in pools))
    seen: list[Value] = []
    for e in elements:
        if e not in seen:
            seen.append(e)
    return seen


def _candidate_streams(pool: list[Value], max_len: int, rng, max_streams: int) -> list[list[Value]]:
    streams: list[list[Value]] = []
    for v in pool:
        streams.append([v])
        streams.append([v] * max_len)
    if len(pool) > 1:
        streams.append(list(pool[:max_len]))
        streams.append(list(reversed(pool))[:max_len])
    while len(streams) < max_streams:
        streams.append([rng.choice(pool) for _ in range(rng.randint(1, max_len))])
    return streams[:max_streams]


def _candidate_extras(program: OnlineProgram, bounds: AnalysisBounds) -> list[dict[str, Value]]:
    if not program.extra_params:
        return [{}]
    base: dict[str, Value] = {}
    for name in program.extra_params:
        fb = bounds.extras.get(name)
        if fb is not None and isinstance(fb.lo, (int, Fraction)):
            base[name] = fb.lo
        elif fb is not None and isinstance(fb.hi, (int, Fraction)):
            base[name] = fb.hi
        else:
            base[name] = 1
    return [base]


def find_divzero_witness(
    program: OnlineProgram,
    initializer: Sequence[Value],
    bounds: AnalysisBounds,
    max_len: int = 6,
    seed: int = 1,
    max_streams: int = 48,
) -> DivZeroWitness | None:
    """Bounded search for a concrete in-bounds stream that drives a zero
    denominator into some ``div`` site.  ``None`` means "not found", never
    "safe" — safety only comes from the static intervals."""
    import random

    rng = random.Random(seed)
    pool = _element_pool(program, bounds, rng)
    if bounds.max_elements is not None:
        max_len = max(1, min(max_len, bounds.max_elements))
    streams = _candidate_streams(pool, max_len, rng, max_streams)
    for extras in _candidate_extras(program, bounds):
        for stream in streams:
            state = tuple(initializer)
            consumed: list[Value] = []
            for idx, elem in enumerate(stream):
                hits: list[Path] = []
                consumed.append(elem)
                try:
                    next_state = watched_step(program, state, elem, extras, hits)
                except (EvaluationError, ArithmeticError, TypeError, ValueError):
                    next_state = None
                if hits:
                    return DivZeroWitness(
                        elements=tuple(consumed),
                        element_index=idx,
                        site=hits[0],
                        state=state,
                        extras=dict(extras),
                    )
                if next_state is None:
                    break  # faulting candidate; try the next stream
                state = next_state
    return None
