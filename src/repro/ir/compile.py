"""Closure-compilation backend: IR trees to generated Python closures.

Every hot path of the system — the per-element ``step`` of a deployed online
scheme and the per-candidate test battery of the equivalence oracle —
ultimately executes a *fixed* IR tree over and over.  The definitional
interpreter (:mod:`repro.ir.evaluator`) pays per node and per evaluation:
an ``isinstance`` dispatch chain, environment churn, and a registry lookup
for every built-in call.  This module removes all of that by the standard
closure-compilation / partial-evaluation trick: translate the tree *once*
into Python source, ``compile()``/``exec`` it into a closure, and run that
closure per element.  Three techniques stack up:

* **direct references** — built-ins become names in the closure's globals
  (no registry lookup), variables become Python locals (no env dicts),
  lambdas/combinators become inlined Python lambdas and comprehensions;
* **common-subexpression elimination** — unconditionally-evaluated repeated
  subtrees (IR nodes are frozen dataclasses, so structural sharing is a
  dict lookup) are computed once into single-assignment temporaries.  Sound
  because IR expressions are pure and deterministic; the big win on
  synthesized schemes, whose output tuples share whole update expressions
  (Welford's ``sq'`` appears verbatim in two outputs of the variance
  scheme).  One emitter produces both shapes of code: temporaries for
  unconditionally evaluated positions, inline expressions for ``If``
  branches and lambda bodies, which may never run;
* **exact arithmetic fast paths** — ``add``/``sub``/``mul``/``div``/``neg``/
  ``pow``/``min``/``max`` go through hand-specialized helpers that skip the
  registry wrapper's per-call ``is_number``/``_bit_size``/
  ``normalize_number`` machinery for operand shapes where the outcome is
  provably identical (small ``int`` and ``Fraction`` operands, with
  integral ``Fraction(k)`` computed as the int ``k``), falling back to the
  *same wrapped impl* the interpreter calls for everything else.
  Comparisons inline to native operators (their registered impls are
  exactly those operators).

Semantics are preserved bit-for-bit over exact rationals; the interpreter
remains the ground truth and ``tests/test_ir_compile.py`` differential-tests
the two backends against each other on every ground-truth scheme and on
randomly enumerated candidates.

Failure contract (mirroring the interpreter's :class:`EvaluationError`
cases): conditions that are detectable statically — sketch holes, unbound
variables, unknown built-ins, a callee that is neither a built-in name nor
a ``Lambda`` — fail *at compile time* with :class:`IRCompileError`, and
every caller falls back to the interpreter, which then raises exactly as it
always did.  Conditions that the interpreter only detects at run time
(lambda arity mismatches inside a combinator, bad projections, missing
extra parameters) raise the same exception class from compiled code as
from interpreted code.

Synthesis evaluates through :func:`expr_evaluator`: an expression that is
evaluated many times (an RFS specification per random sample, both sides of
the equivalence oracle) resolves it once to ``fn(env)``, compiled when the
backend accepts the tree and interpreted otherwise.

The escape hatch, and the only interpreter switch: ``REPRO_JIT=0`` (which
``--no-jit`` on the CLI sets) disables the backend globally; every
integration point reads it through :func:`jit_enabled` (operators once).

Beyond the scalar closure, this module also compiles the *batch loop*
itself: :func:`compile_step_batch` generates the whole ``push_many`` hot
loop as source (state components live in Python locals across the chunk,
extra-parameter lookups are hoisted once per batch, the CSE'd step body is
inlined in the loop) and returns a :class:`StepKernel` — the execution plan
every runtime layer (operators, pipelines, windows) consumes instead of
hand-rolling its own per-element loop; :func:`compile_keyed_batch` is its
group-by twin, folding each key's partition record in place.
"""

from __future__ import annotations

import itertools
import os
import re
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .builtins import get_builtin, is_builtin
from .evaluator import EvaluationError, evaluate
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
from .traversal import free_vars, iter_subexprs
from .values import Value


class IRCompileError(Exception):
    """The expression cannot be compiled (holes, unbound names, unknown
    built-ins, callees outside the IR contract, or pathological nesting).
    Callers fall back to the interpreter, whose behaviour is the
    specification."""


def jit_enabled() -> bool:
    """Whether compiled execution is enabled (the ``REPRO_JIT`` env knob).

    Any of ``0`` / ``false`` / ``off`` / ``no`` (case-insensitive) disables
    the codegen backend everywhere; unset or anything else enables it.
    """
    raw = os.environ.get("REPRO_JIT")
    return raw is None or raw.strip().lower() not in ("0", "false", "off", "no")


# -- step kernels: whole-batch execution plans --------------------------------
#
# A kernel advances a scheme state over a *chunk* of elements in one call:
# ``run(state, elements, extra=None) -> (state', consumed)``.  When an
# element raises, the kernel records the state after the last fully-applied
# element on the exception before re-raising, so callers preserve exactly
# the partial progress a per-element loop would have.

#: Attribute a kernel sets on an in-flight exception: ``(state, consumed)``
#: as of the last fully-applied element.
_PARTIAL_ATTR = "__repro_partial__"


def _record_partial(exc: BaseException, state, consumed: int) -> None:
    """Attach partial batch progress to an exception about to propagate.
    Exceptions that refuse attributes (``__slots__``) lose the marker;
    :func:`kernel_partial` then reports zero progress, which is the safe
    under-approximation (never overstates the consumed prefix)."""
    try:
        setattr(exc, _PARTIAL_ATTR, (state, consumed))
    except Exception:
        pass


def kernel_partial(exc: BaseException, fallback_state) -> tuple:
    """The ``(state, consumed)`` a kernel recorded on ``exc`` before
    re-raising, consuming the marker; ``(fallback_state, 0)`` when the
    exception carries none (it did not come through a kernel loop)."""
    partial = getattr(exc, _PARTIAL_ATTR, None)
    if partial is None:
        return fallback_state, 0
    try:
        delattr(exc, _PARTIAL_ATTR)
    except Exception:
        pass
    return partial


class StepKernel:
    """A whole-batch execution plan for one online program: the unit every
    ``push_many`` hot path runs.

    ``run(state, elements, extra=None)`` folds the chunk and returns
    ``(final_state, consumed)``; a raising element propagates its exception
    with partial progress attached (see :func:`kernel_partial`).

    ``compiled`` distinguishes codegen-backed kernels from the
    interpreter-driven fallback built by :meth:`from_step` — behaviourally
    identical (bit-for-bit over exact rationals), only slower.
    Keyed kernels (:func:`compile_keyed_batch`) have their own contract.
    """

    __slots__ = ("run", "compiled", "name")

    def __init__(self, run: Callable, *, compiled: bool, name: str = "kernel"):
        self.run = run
        self.compiled = compiled
        self.name = name

    @property
    def source(self) -> str | None:
        """Generated Python source (codegen-backed kernels only)."""
        return getattr(self.run, "__repro_source__", None)

    @classmethod
    def from_step(cls, step: Callable, name: str = "step-loop") -> "StepKernel":
        """Wrap any scalar ``step(state, element, extra)`` — interpreted or
        compiled — in the generic batch loop, with the same run contract as
        a codegen-backed kernel."""

        def _run(state, elements, extra=None):
            consumed = 0
            try:
                for element in elements:
                    state = step(state, element, extra)
                    consumed += 1
            except BaseException as exc:
                _record_partial(exc, state, consumed)
                raise
            return state, consumed

        return cls(_run, compiled=False, name=name)

    @classmethod
    def keyed_from_step(cls, step: Callable, initializer: tuple, name: str) -> "StepKernel":
        """The keyed loop of :func:`compile_keyed_batch` over any scalar
        ``step(state, element, extra)``, with the same run contract."""

        def _run(partitions, elements, extra, key_fn, value_fn, partition):
            consumed = 0
            try:
                for element in elements:
                    key = key_fn(element)
                    payload = element if value_fn is None else value_fn(element)
                    part = partitions.get(key)
                    if part is None:
                        partitions[key] = partition(step(initializer, payload, extra), 1)
                    else:
                        part.acc = step(part.acc, payload, extra)
                        part.count += 1
                    consumed += 1
            except BaseException as exc:
                _record_partial(exc, None, consumed)
                raise
            return consumed

        return cls(_run, compiled=False, name=name)

    def __repr__(self) -> str:
        kind = "compiled" if self.compiled else "interpreted"
        return f"<StepKernel {self.name} ({kind})>"


# -- runtime helpers shared by all generated closures -------------------------
#
# These live in each closure's globals under fixed names.  They cover the few
# constructs that need a statement (fold's loop), a guard the interpreter
# applies (projection, closure arity), an error the interpreter raises only
# when a lambda is actually invoked, and the exact arithmetic fast paths.


def _fold(fn, acc, lst):
    for item in lst:
        acc = fn(acc, item)
    return acc


def _proj(tup, index, what):
    try:
        return tup[index]
    except (IndexError, TypeError) as exc:
        raise EvaluationError(f"bad projection {what}: {exc}") from None


def _extra_get(extra, name, what):
    """Fetch an extra parameter at its use site, with the interpreter's
    unbound-name error.  Used for extras referenced only in conditionally
    evaluated positions (If branches, lambda bodies): fetching those in the
    step prologue would raise where the interpreter — which only looks a
    name up when the branch actually runs — succeeds."""
    try:
        return extra[name]
    except (KeyError, TypeError):
        raise EvaluationError(f"unbound {what} {name!r}") from None


def _arity(expected, got):
    """Raise the interpreter's closure arity error *after* the arguments have
    been evaluated (``got`` is the already-built argument tuple)."""
    raise EvaluationError(f"lambda expects {expected} args, got {len(got)}")


def _lam(expected, fn):
    """Wrap a compiled lambda used as a first-class value so that calling it
    with the wrong arity raises ``EvaluationError`` like ``Closure`` does."""

    def _closure(*args):
        if len(args) != expected:
            raise EvaluationError(f"lambda expects {expected} args, got {len(args)}")
        return fn(*args)

    return _closure


# -- exact arithmetic fast paths ---------------------------------------------
#
# The registry impls of the "poly" built-ins (see ``_num2`` in
# repro.ir.builtins) pay two ``is_number`` checks, two ``_bit_size`` calls (a
# guard that degrades astronomically large exact values to floats past a
# combined 2**20 bits), a lambda indirection, and a ``normalize_number`` per
# call.  The helpers below take the exact path directly for operand shapes
# where the wrapper's outcome is provably the plain operation (small ints,
# small Fractions — "small" chosen so the combined bit size stays at or
# below the wrapper's 2**20 threshold), and defer to the wrapped impl
# otherwise.  Soundness, not completeness: every guarded branch returns
# exactly what the impl would, and everything else *is* the impl.
#
# Integral rationals — ``Fraction(k)``, the shape every built-in source
# yields — are unwrapped to their ``int`` numerator once they pass the small
# Fraction guard, so ``Fraction(k) + 3`` is one int addition instead of a
# Fraction construction plus a normalization.  Every fallback passes the
# *original* operands to the impl, which is exact either way:
# ``_bit_size(Fraction(k))`` is ``_bit_size(k)``, so the float degrade
# treats both alike, and the normalized result is the same value and type.
#
# ``pow`` takes ``a ** b`` for an int exponent in ``0..64`` on an int base of
# at most 2**16 bits, or on a Fraction whose numerator and denominator have
# at most 2**15 bits each; both keep ``safe_pow``'s exact result
# (``bit_size * exp <= 2**22``).  ``min``/``max`` compare int/Fraction pairs
# by cross-multiplying the slots (denominators are positive) and return the
# *same object* the native builtin would — ``max(a, b)`` is
# ``b if b > a else a`` — and leave every other type to the builtin.

_INT_LIMIT = 1 << (1 << 19)  # operands under 2**19 bits each: sum <= 2**20
_FRAC_LIMIT = 1 << (1 << 18)  # num/den under 2**18 bits each: sum <= 2**20
_POW_INT_LIMIT = 1 << (1 << 16)  # base of at most 2**16 bits, exponent <= 64
_POW_FRAC_LIMIT = 1 << (1 << 15)  # num/den of at most 2**15 bits each
# Negated bounds are precomputed: `-_INT_LIMIT` in an expression would
# re-negate (i.e. reallocate) a 2**19-bit integer on every single check.
_INT_LIMIT_NEG = -_INT_LIMIT
_FRAC_LIMIT_NEG = -_FRAC_LIMIT
_POW_INT_LIMIT_NEG = -_POW_INT_LIMIT
_POW_FRAC_LIMIT_NEG = -_POW_FRAC_LIMIT

_ADD_IMPL = get_builtin("add").impl
_SUB_IMPL = get_builtin("sub").impl
_MUL_IMPL = get_builtin("mul").impl
_DIV_IMPL = get_builtin("div").impl
_NEG_IMPL = get_builtin("neg").impl
_POW_IMPL = get_builtin("pow").impl

# CPython (and PyPy) store Fraction components in the ``_numerator`` /
# ``_denominator`` slots; the public ``numerator``/``denominator`` names are
# pure-Python properties, ~3x slower per access.  The fast paths use the
# slots when present — they sit on the hottest line of the whole system —
# and fall back to the registry impls wholesale on exotic runtimes.
_HAS_FRACTION_SLOTS = hasattr(Fraction(0), "_numerator")


def _monomorphic_fraction_ops():
    """``a + b`` on Fractions routes through the ``_operator_fallbacks``
    dispatch wrapper (an isinstance ladder per call) before reaching the
    monomorphic ``Fraction._add``.  Those monomorphic methods take ``int``
    in either position via the ``numerator``/``denominator`` duck protocol,
    so calling them directly is exact — verified here at import; anything
    off and the fast paths use the plain operators instead."""
    try:
        add, sub = Fraction._add, Fraction._sub
        mul, div = Fraction._mul, Fraction._div
        third, half = Fraction(1, 3), Fraction(1, 2)
        if (
            add(third, Fraction(1, 6)) == half
            and add(2, third) == Fraction(7, 3)
            and add(third, 2) == Fraction(7, 3)
            and sub(half, third) == Fraction(1, 6)
            and sub(2, third) == Fraction(5, 3)
            and mul(Fraction(2, 3), Fraction(3, 4)) == half
            and mul(3, third) == 1
            and div(1, Fraction(2, 3)) == Fraction(3, 2)
            and div(half, -2) == Fraction(-1, 4)
            and div(half, -2)._denominator == 4
            and div(3, 6) == half
        ):
            return add, sub, mul, div
    except (AttributeError, TypeError, ValueError):
        pass
    import operator

    # Exact generic fallbacks.  Division must stay rational for int
    # operands (operator.truediv would produce a float).
    return (
        operator.add,
        operator.sub,
        operator.mul,
        lambda a, b: Fraction(a) / Fraction(b),
    )


_F_ADD, _F_SUB, _F_MUL, _F_DIV = _monomorphic_fraction_ops()


def _fast_add(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        x = a._numerator
        if not (_FRAC_LIMIT_NEG < x < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _ADD_IMPL(a, b)
        if a._denominator != 1:
            x = a
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a + b  # ints are closed under +: already normalized
            return _ADD_IMPL(a, b)
        if not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT):
            return _ADD_IMPL(a, b)
        x = a
    else:
        return _ADD_IMPL(a, b)
    if tb is Fraction:
        y = b._numerator
        if not (_FRAC_LIMIT_NEG < y < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
            return _ADD_IMPL(a, b)
        if b._denominator != 1:
            y = b
        elif x.__class__ is int:
            return x + y
    elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
        return _ADD_IMPL(a, b)
    elif x.__class__ is int:
        return x + b
    else:
        y = b
    r = _F_ADD(x, y)
    return r._numerator if r._denominator == 1 else r


def _fast_sub(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        x = a._numerator
        if not (_FRAC_LIMIT_NEG < x < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _SUB_IMPL(a, b)
        if a._denominator != 1:
            x = a
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a - b
            return _SUB_IMPL(a, b)
        if not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT):
            return _SUB_IMPL(a, b)
        x = a
    else:
        return _SUB_IMPL(a, b)
    if tb is Fraction:
        y = b._numerator
        if not (_FRAC_LIMIT_NEG < y < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
            return _SUB_IMPL(a, b)
        if b._denominator != 1:
            y = b
        elif x.__class__ is int:
            return x - y
    elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
        return _SUB_IMPL(a, b)
    elif x.__class__ is int:
        return x - b
    else:
        y = b
    r = _F_SUB(x, y)
    return r._numerator if r._denominator == 1 else r


def _fast_mul(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        x = a._numerator
        if not (_FRAC_LIMIT_NEG < x < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _MUL_IMPL(a, b)
        if a._denominator != 1:
            x = a
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a * b
            return _MUL_IMPL(a, b)
        if not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT):
            return _MUL_IMPL(a, b)
        x = a
    else:
        return _MUL_IMPL(a, b)
    if tb is Fraction:
        y = b._numerator
        if not (_FRAC_LIMIT_NEG < y < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
            return _MUL_IMPL(a, b)
        if b._denominator != 1:
            y = b
        elif x.__class__ is int:
            return x * y
    elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
        return _MUL_IMPL(a, b)
    elif x.__class__ is int:
        return x * b
    else:
        y = b
    r = _F_MUL(x, y)
    return r._numerator if r._denominator == 1 else r


def _fast_div(a, b):
    # safe_div has no bit-size degrade: its exact path is
    # normalize(Fraction(a) / Fraction(b)) with a/0 == 0, reproduced here
    # without the isinstance ladder.
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is Fraction) and (tb is int or tb is Fraction):
        if b == 0:
            return 0
        r = _F_DIV(a, b)
        return r._numerator if r._denominator == 1 else r
    return _DIV_IMPL(a, b)


def _fast_neg(a):
    ta = type(a)
    if ta is int:
        return -a
    if ta is Fraction:
        # a cannot carry denominator 1 out of normalized arithmetic, but
        # initializers/extras supplied by callers might.
        return -a._numerator if a._denominator == 1 else -a
    return _NEG_IMPL(a)


def _fast_pow(a, b):
    if b.__class__ is int and 0 <= b <= 64:
        ta = type(a)
        if ta is int:
            if _POW_INT_LIMIT_NEG < a < _POW_INT_LIMIT:
                return a**b
        elif ta is Fraction:
            n = a._numerator
            d = a._denominator
            if _POW_FRAC_LIMIT_NEG < n < _POW_FRAC_LIMIT and d < _POW_FRAC_LIMIT:
                if d == 1:
                    return n**b
                r = a**b  # a ** 0 is Fraction(1): normalize
                return r._numerator if r._denominator == 1 else r
    return _POW_IMPL(a, b)


def _fast_max(a, b):
    ta = type(a)
    tb = type(b)
    if ta is int:
        if tb is int:
            return b if b > a else a
        if tb is Fraction:
            return b if b._numerator > a * b._denominator else a
    elif ta is Fraction:
        if tb is Fraction:
            return b if b._numerator * a._denominator > a._numerator * b._denominator else a
        if tb is int:
            return b if b * a._denominator > a._numerator else a
    return max(a, b)


def _fast_min(a, b):
    ta = type(a)
    tb = type(b)
    if ta is int:
        if tb is int:
            return b if b < a else a
        if tb is Fraction:
            return b if b._numerator < a * b._denominator else a
    elif ta is Fraction:
        if tb is Fraction:
            return b if b._numerator * a._denominator < a._numerator * b._denominator else a
        if tb is int:
            return b if b * a._denominator < a._numerator else a
    return min(a, b)


#: Built-ins dispatched to a specialized fast-path helper instead of the
#: registry impl (drop-in exact replacements, also valid as first-class
#: callables in Map/Filter/Fold position).
_FAST_IMPLS = (
    {
        "add": _fast_add,
        "sub": _fast_sub,
        "mul": _fast_mul,
        "div": _fast_div,
        "neg": _fast_neg,
        "pow": _fast_pow,
        "min": _fast_min,
        "max": _fast_max,
    }
    if _HAS_FRACTION_SLOTS
    else {}
)

#: Comparisons whose registered impl is exactly the native operator; calls
#: with the right arity inline to that operator.
_INLINE_CMP = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}

#: Operators usable for the zero-call inline int fast path (the else branch
#: falls back to the corresponding _fast_* helper, which is exact).
_INLINE_INT_OP = {"add": "+", "sub": "-", "mul": "*"}

_IDENT_RE = re.compile(r"[^0-9A-Za-z_]")
_SIMPLE_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*")
_INT_LITERAL_RE = re.compile(r"-?\d+")


def _is_simple(code: str) -> bool:
    """Emitted code that is free to repeat: a name or an int literal."""
    return _SIMPLE_RE.fullmatch(code) is not None


def _is_int_literal(code: str) -> bool:
    return _INT_LITERAL_RE.fullmatch(code) is not None


def _unconditional_free(expr: Expr, bound: frozenset[str]) -> frozenset[str]:
    """Free names that every evaluation of ``expr`` is guaranteed to look
    up: everything except ``If`` branches and function bodies (which may
    never run — conservatively including directly-applied lambdas).  Drives
    the eager-vs-lazy split of extra-parameter binding in
    :func:`compile_online_step`."""
    if isinstance(expr, (Var, ListVar)):
        return frozenset((expr.name,)) - bound
    if isinstance(expr, Lambda):
        return frozenset()
    if isinstance(expr, Let):
        return _unconditional_free(expr.value, bound) | _unconditional_free(
            expr.body, bound | {expr.name}
        )
    if isinstance(expr, If):
        return _unconditional_free(expr.cond, bound)
    result = frozenset()
    for child in expr.children():
        result |= _unconditional_free(child, bound)
    return result


class _Codegen:
    """One generated module: accumulates globals (constants, built-in impls,
    helpers) while emitting Python code for IR trees.

    One emitter, :meth:`emit`, with one handler per IR node, in two contexts:

    * statement context (a ``lines`` sink is given) for unconditionally
      evaluated positions: every non-trivial node becomes a single-assignment
      temporary, memoized by the node (IR equality tells ``1`` from ``1.0``),
      which is exactly common-subexpression elimination;
    * expression context (no ``lines``) for conditionally evaluated
      positions (``If`` branches, lambda bodies): the code is inline.  ``If``
      branches still *read* the memo (no new bindings in scope); binder
      bodies drop it (their parameters may shadow the names a memoized temp
      was computed under).
    """

    def __init__(self) -> None:
        self.globals: dict = {
            "__builtins__": {
                "len": len,
                "list": list,
                "bool": bool,
                "int": int,
                "KeyError": KeyError,
                "TypeError": TypeError,
                "BaseException": BaseException,
            },
            "EvaluationError": EvaluationError,
            "_fold": _fold,
            "_proj": _proj,
            "_arity": _arity,
            "_lam": _lam,
        }
        self._names: dict[str, str] = {}
        self._name_serial = itertools.count()
        self._serial = itertools.count()
        #: Extra-parameter names resolved lazily at each use site (via
        #: _extra_get) instead of eagerly in the step prologue — the ones
        #: referenced only in conditionally evaluated positions.
        self.lazy_extras: frozenset[str] = frozenset()

    # -- naming ------------------------------------------------------------

    def mangle(self, name: str) -> str:
        """Stable Python identifier for an IR variable name.  One identifier
        per distinct IR name, so IR shadowing maps onto Python shadowing."""
        ident = self._names.get(name)
        if ident is None:
            ident = f"_v{next(self._name_serial)}_{_IDENT_RE.sub('_', name)}"
            self._names[name] = ident
        return ident

    def fresh(self, prefix: str = "_t") -> str:
        return f"{prefix}{next(self._serial)}"

    def const(self, value) -> str:
        """Reference a constant.  Bools and small ints inline as literals;
        everything else (``Fraction``, floats including inf/nan, big ints)
        is preloaded into the globals so the closure reuses the *same*
        object the ``Const`` node carries — exactly what the interpreter
        returns."""
        if value is True:
            return "True"
        if value is False:
            return "False"
        if type(value) is int and -(2**31) < value < 2**31:
            return repr(value)
        name = self.fresh("_c")
        self.globals[name] = value
        return name

    def builtin(self, name: str) -> str:
        if not is_builtin(name):
            raise IRCompileError(f"unknown builtin {name!r}")
        ident = f"_b_{_IDENT_RE.sub('_', name)}"
        if ident not in self.globals:
            self.globals[ident] = _FAST_IMPLS.get(name) or get_builtin(name).impl
        return ident

    def string(self, text: str) -> str:
        name = self.fresh("_s")
        self.globals[name] = text
        return name

    def _name_ref(self, name: str, bound: frozenset[str], kind: str) -> str:
        """A variable reference: a Python local when bound (parameters,
        state, eagerly-fetched extras, binders), a lazy per-use fetch for
        conditionally-referenced extras, a compile-time error otherwise."""
        if name in bound:
            return self.mangle(name)
        if name in self.lazy_extras:
            self.globals.setdefault("_extra_get", _extra_get)
            return f"_extra_get(_extra, {name!r}, {kind!r})"
        raise IRCompileError(f"unbound variable {name!r}")

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        expr: Expr,
        bound: frozenset[str],
        memo: dict | None = None,
        lines: list[str] | None = None,
    ) -> str:
        """Code for ``expr``.  Without ``lines`` it is inline.  With ``lines``
        (statement context, which always carries a ``memo``) it is a simple
        reference: a literal, a variable, or a single-assignment temporary
        appended to ``lines`` and memoized by the node, so only an equal
        subtree (same constant types included) shares it."""
        if memo is not None:
            cached = memo.get(expr)
            if cached is not None:
                return cached
        code = self._node(expr, bound, memo, lines)
        if lines is None or isinstance(expr, (Const, Var, ListVar)):
            return code
        temp = self.fresh()
        lines.append(f"    {temp} = {code}")
        memo[expr] = temp
        return temp

    def _node(
        self, expr: Expr, bound: frozenset[str], memo: dict | None, lines: list[str] | None
    ) -> str:
        """Code for one node.  Its unconditionally evaluated children
        (argument, condition, list, init and value positions) are emitted in
        the node's own context, in the interpreter's evaluation order; ``If``
        branches and binder bodies are always inline."""
        if isinstance(expr, Const):
            return self.const(expr.value)
        if isinstance(expr, Var):
            return self._name_ref(expr.name, bound, "variable")
        if isinstance(expr, ListVar):
            return self._name_ref(expr.name, bound, "list variable")
        if isinstance(expr, Lambda):
            # Value position: arity-guarded like the interpreter's Closure.
            return f"_lam({len(expr.params)}, {self._lambda(expr, bound)})"
        if isinstance(expr, Call):
            args = [self.emit(a, bound, memo, lines) for a in expr.args]
            return self._apply(expr.func, args, bound)
        if isinstance(expr, If):
            cond = self.emit(expr.cond, bound, memo, lines)
            then = self.emit(expr.then, bound, memo)
            orelse = self.emit(expr.orelse, bound, memo)
            return f"({then} if {cond} else {orelse})"
        if isinstance(expr, (Map, Filter, Fold)) and not isinstance(expr.func, Lambda):
            raise IRCompileError(f"cannot apply {expr.func!r}")
        if isinstance(expr, (Map, Filter)):
            return self._comprehension(expr, bound, memo, lines)
        if isinstance(expr, Fold):
            func = expr.func
            if len(func.params) == 2:
                fn = self._lambda(func, bound)
            else:
                args = self.fresh("_a")
                fn = f"(lambda *{args}: _arity({len(func.params)}, {args}))"
            init = self.emit(expr.init, bound, memo, lines)
            lst = self.emit(expr.lst, bound, memo, lines)
            return f"_fold({fn}, {init}, {lst})"
        if isinstance(expr, Let):
            value = self.emit(expr.value, bound, memo, lines)
            param = self.mangle(expr.name)
            body = self.emit(expr.body, bound | {expr.name})
            return f"(lambda {param}: {body})({value})"
        if isinstance(expr, Snoc):
            lst = self.emit(expr.lst, bound, memo, lines)
            elem = self.emit(expr.elem, bound, memo, lines)
            return f"(list({lst}) + [{elem}])"
        if isinstance(expr, MakeTuple):
            return _tuple_code([self.emit(item, bound, memo, lines) for item in expr.items])
        if isinstance(expr, Proj):
            tup = self.emit(expr.tup, bound, memo, lines)
            return f"_proj({tup}, {expr.index}, {self.string(repr(expr))})"
        if isinstance(expr, Hole):
            raise IRCompileError(f"cannot compile sketch hole {expr!r}")
        raise IRCompileError(f"unhandled node {type(expr).__name__}")

    def _apply(self, func, args: list[str], bound: frozenset[str]) -> str:
        """A ``Call`` of a builtin name or a Lambda on already emitted
        arguments."""
        arglist = ", ".join(args)
        if isinstance(func, str):
            if len(args) == 2:
                op = _INLINE_CMP.get(func)
                if op is not None:
                    return f"({args[0]} {op} {args[1]})"
                op = _INLINE_INT_OP.get(func)
                if op is not None and all(map(_is_simple, args)):
                    return self._int_fast_path(func, op, args)
            if len(args) == 1:
                if func == "not":
                    return f"(not {args[0]})"
                if func == "length":
                    return f"len({args[0]})"
            # Arity mismatches surface as TypeError from the impl call, for
            # compiled and interpreted execution alike.
            return f"{self.builtin(func)}({arglist})"
        if isinstance(func, Lambda):
            if len(func.params) != len(args):
                # The interpreter evaluates the arguments, then Closure
                # raises; the argument tuple reproduces that order.
                tup = "(" + "".join(a + ", " for a in args) + ")"
                return f"_arity({len(func.params)}, {tup})"
            return f"{self._lambda(func, bound)}({arglist})"
        raise IRCompileError(f"cannot apply {func!r}")

    def _int_fast_path(self, func: str, op: str, args: list) -> str:
        """Zero-call inline path for add/sub/mul over small ints, guarded to
        agree exactly with the registry wrapper; anything else falls through
        to the exact ``_b_*`` helper.  Arguments are simple (single names or
        int literals), so repeating them costs nothing and literals skip
        their statically-true guards."""
        a, b = args
        self.globals.setdefault("_IL", _INT_LIMIT)
        self.globals.setdefault("_ILN", _INT_LIMIT_NEG)
        checks = []
        for operand in args:
            if not _is_int_literal(operand):
                checks.append(f"{operand}.__class__ is int")
                # _ILN is the precomputed negation: writing `-_IL` here would
                # reallocate a 2**19-bit integer on every evaluation.
                checks.append(f"_ILN < {operand} < _IL")
        if not checks:  # both literals: statically small ints, always exact
            return f"({a} {op} {b})"
        guard = " and ".join(checks)
        return f"({a} {op} {b} if {guard} else {self.builtin(func)}({a}, {b}))"

    def _lambda(self, lam: Lambda, bound: frozenset[str]) -> str:
        # A binder scope: the memo is dropped (parameters may shadow the
        # names memoized temporaries were computed under).
        params = ", ".join(self.mangle(p) for p in lam.params)
        body = self.emit(lam.body, bound | frozenset(lam.params))
        return f"(lambda {params}: {body})" if params else f"(lambda: {body})"

    def _comprehension(
        self, expr: Map | Filter, bound: frozenset[str], memo: dict | None, lines: list[str] | None
    ) -> str:
        """Map/Filter as a list comprehension whose value is the lambda's
        body."""
        func = expr.func
        lst = self.emit(expr.lst, bound, memo, lines)
        if len(func.params) == 1:
            it = self.mangle(func.params[0])
            value = self.emit(func.body, bound | frozenset(func.params))
        else:
            # Wrong arity: the interpreter raises when the closure is first
            # invoked, i.e. per element, so an empty list still maps to [].
            it = self.fresh()
            value = f"_arity({len(func.params)}, ({it},))"
        if isinstance(expr, Filter):
            return f"[{it} for {it} in {lst} if {value}]"
        return f"[{value} for {it} in {lst}]"

    # -- finalization ------------------------------------------------------

    def build(self, source: str, entry: str, what: str) -> Callable:
        try:
            code = compile(source, f"<repro-jit:{what}>", "exec")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise IRCompileError(f"generated source rejected for {what}: {exc}") from None
        namespace: dict = {}
        exec(code, self.globals, namespace)
        fn = namespace[entry]
        fn.__repro_source__ = source  # introspection / debugging
        return fn


def compile_expr(expr: Expr, params: Sequence[str], name: str = "expr") -> Callable:
    """Compile ``expr`` into ``f(*values)`` taking one positional argument
    per name in ``params`` (in order; names must be distinct).

    Equivalent to ``evaluate(expr, dict(zip(params, values)))``, minus the
    per-call tree walk.  Free names outside ``params`` make the compilation
    fail with :class:`IRCompileError` (the interpreter would raise
    ``EvaluationError`` at run time; callers keep it as the fallback).
    """
    cg = _Codegen()
    arglist = ", ".join(cg.mangle(p) for p in params)
    lines: list[str] = [f"def _compiled({arglist}):"]
    try:
        result = cg.emit(expr, frozenset(params), {}, lines)
    except RecursionError:
        raise IRCompileError(f"expression too deep to compile: {name}") from None
    lines.append(f"    return {result}")
    return cg.build("\n".join(lines) + "\n", "_compiled", name)


@lru_cache(maxsize=512)
def _compile_cached(expr: Expr, params: tuple[str, ...]) -> Callable | None:
    """Memoized :func:`compile_expr`; ``None`` caches a declined compile too.
    IR nodes hash structurally, so a spec tested against thousands of
    candidates compiles once, and an expression differing only in a
    constant's type (``Const(0)`` for ``Const(False)``) is another key."""
    try:
        return compile_expr(expr, params, name="evaluator")
    except IRCompileError:
        return None


def expr_evaluator(expr: Expr, params: Sequence[str]) -> Callable[[Mapping[str, Value]], Value]:
    """The evaluation entry point for an expression evaluated many times:
    ``fn(env)``, equal to ``evaluate(expr, env)`` for every ``env`` that binds
    each name in ``params``.

    ``expr`` is compiled to a native closure once (memoized, bounded), so
    repeated calls skip the tree walk.  Anything the codegen backend declines
    (holes, free names outside ``params``), and everything under
    ``REPRO_JIT=0``, falls back to the interpreter, with identical results and
    exceptions.  Resolve the evaluator once per battery, not per call: the
    memo lookup hashes the whole tree.
    """
    params = tuple(dict.fromkeys(params))
    fn = _compile_cached(expr, params) if jit_enabled() else None
    if fn is None:
        return lambda env: evaluate(expr, env)
    if not params:
        return lambda env: fn()
    fetch = itemgetter(*params)
    if len(params) == 1:
        return lambda env: fn(fetch(env))
    return lambda env: fn(*fetch(env))


def _extras_of(program: OnlineProgram) -> tuple[list[str], set[str], list[str]]:
    """Extra-parameter analysis shared by the scalar and batch compilers:
    ``(all extras, list-typed extras, eagerly-fetched extras)``.

    Extras every step is guaranteed to look up can be fetched once in a
    prologue; extras referenced only in conditionally evaluated positions
    (If branches, lambda bodies) must be fetched lazily at each use site,
    so a missing binding raises exactly when the interpreter would.
    """
    bound = frozenset(program.state_params) | {program.elem_param}
    all_extras: list[str] = []
    uncond: frozenset[str] = frozenset()
    list_extras: set[str] = set()
    for out in program.outputs:
        for free in sorted(free_vars(out, lists=True) - bound):
            if free not in all_extras:
                all_extras.append(free)
        uncond |= _unconditional_free(out, bound)
        for sub in iter_subexprs(out):
            if isinstance(sub, ListVar) and sub.name not in bound:
                list_extras.add(sub.name)
    eager_extras = [name for name in all_extras if name in uncond]
    return all_extras, list_extras, eager_extras


def _emit_extra_fetch(
    cg: _Codegen,
    eager_extras: Sequence[str],
    list_extras: set[str],
    lines: list,
    indent: int,
) -> None:
    """Prologue fetch of eagerly-bound extras, with the interpreter's
    unbound-name error on a missing binding (or a ``None`` mapping)."""
    pad = " " * indent
    for extra_name in eager_extras:
        kind = "list variable" if extra_name in list_extras else "variable"
        lines.append(f"{pad}try:")
        lines.append(f"{pad}    {cg.mangle(extra_name)} = _extra[{extra_name!r}]")
        lines.append(f"{pad}except (KeyError, TypeError):")
        lines.append(f"{pad}    raise EvaluationError(\"unbound {kind} {extra_name!r}\") from None")


def _emit_outputs(
    cg: _Codegen, program: OnlineProgram, eager_extras: Sequence[str], lines: list, name: str
) -> list[str]:
    """CSE'd statement-context emission of all outputs; returns the output
    references (one per new state component)."""
    all_bound = frozenset(program.state_params) | {program.elem_param} | frozenset(eager_extras)
    memo: dict = {}
    try:
        return [cg.emit(out, all_bound, memo, lines) for out in program.outputs]
    except RecursionError:
        raise IRCompileError(f"online program too deep to compile: {name}") from None


def _tuple_code(items: Sequence[str]) -> str:
    """A Python tuple display of already emitted ``items``."""
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def compile_online_step(program: OnlineProgram, name: str = "step") -> Callable:
    """Compile an online program into ``step(state, element, extra=None)``.

    A drop-in replacement for
    ``lambda s, x, e=None: step_online(program, s, x, e)`` — same results,
    same ``EvaluationError`` on a state-arity mismatch or a missing extra
    binding — with the per-element interpretation replaced by one native
    closure call.  Subexpressions shared between outputs (ubiquitous in
    synthesized schemes) are evaluated once per step.
    """
    cg = _Codegen()
    arity = program.arity
    all_extras, list_extras, eager_extras = _extras_of(program)
    cg.lazy_extras = frozenset(all_extras) - frozenset(eager_extras)

    lines = ["def _compiled_step(_state, _elem, _extra=None):"]
    lines.append(f"    if len(_state) != {arity}:")
    lines.append(
        "        raise EvaluationError("
        f"f\"online program expects {arity} state values, got {{len(_state)}}\")"
    )
    if arity == 1:
        lines.append(f"    ({cg.mangle(program.state_params[0])},) = _state")
    elif arity:
        unpack = ", ".join(cg.mangle(p) for p in program.state_params)
        lines.append(f"    {unpack} = _state")
    _emit_extra_fetch(cg, eager_extras, list_extras, lines, 4)
    # The element binds last: it shadows a state parameter of the same name,
    # exactly like env[elem_param] = element in step_online.
    lines.append(f"    {cg.mangle(program.elem_param)} = _elem")
    outputs = _emit_outputs(cg, program, eager_extras, lines, name)
    if len(outputs) == 1:
        lines.append(f"    return ({outputs[0]},)")
    else:
        lines.append(f"    return ({', '.join(outputs)})")
    return cg.build("\n".join(lines) + "\n", "_compiled_step", name)


def _check_batchable(program: OnlineProgram, what: str) -> None:
    """Batch compilation keeps state components in named locals across the
    loop; two program shapes break that invariant and are declined (the
    scalar closure driven by the generic loop reproduces them exactly):

    * an element parameter shadowing a state parameter — the loop target
      would clobber the pre-element state a mid-batch failure must report;
    * duplicate state parameters or an output count differing from the
      state arity — the name-addressed locals could not represent the
      positional state tuple the scalar step returns.
    """
    if program.elem_param in program.state_params:
        raise IRCompileError(
            f"{what}: element parameter {program.elem_param!r} shadows a "
            "state parameter; batch compilation declined"
        )
    if len(set(program.state_params)) != program.arity:
        raise IRCompileError(f"{what}: duplicate state parameters; batch compilation declined")
    if len(program.outputs) != program.arity:
        raise IRCompileError(
            f"{what}: {len(program.outputs)} outputs for arity "
            f"{program.arity}; batch compilation declined"
        )


def _batch_codegen(program: OnlineProgram, name: str) -> tuple:
    """The set-up both batch compilers share: ``(codegen, state locals,
    list-typed extras, eager extras)`` for a batchable program."""
    _check_batchable(program, name)
    cg = _Codegen()
    all_extras, list_extras, eager_extras = _extras_of(program)
    cg.lazy_extras = frozenset(all_extras) - frozenset(eager_extras)
    cg.globals["_record_partial"] = _record_partial
    return cg, [cg.mangle(p) for p in program.state_params], list_extras, eager_extras


def compile_step_batch(program: OnlineProgram, name: str = "batch") -> StepKernel:
    """Compile the whole batch loop of an online program into one closure:
    ``run(state, elements, extra=None) -> (final_state, consumed)``.

    Where :func:`compile_online_step` produces a scalar closure re-entered
    from interpreted Python once per element — paying a call, a state-tuple
    unpack, and a result-tuple pack each time — the kernel generated here
    compiles the *loop*: state components live in Python locals across the
    entire chunk, eager extra-parameter lookups are hoisted to the first
    loop iteration — once per batch, since extras cannot change mid-batch,
    and never for an empty batch, which must not look extras up — and the
    already-CSE'd step body is inlined in the loop.  Per-element state updates are a single tuple
    assignment, so they are atomic: when an element raises, the exception
    carries the state after the last fully-applied element
    (:func:`kernel_partial`), exactly the partial progress a per-element
    loop preserves.

    Results are bit-for-bit identical to folding the scalar step — same
    values, same types, same exception classes at the same elements.
    Raises :class:`IRCompileError` for programs the loop transformation
    cannot represent (see :func:`_check_batchable`); callers fall back to
    :meth:`StepKernel.from_step` over the resolved scalar step.
    """
    cg, state_vars, list_extras, eager_extras = _batch_codegen(program, name)
    arity = program.arity
    state_tuple = _tuple_code(state_vars)

    lines = ["def _compiled_batch(_state, _elems, _extra=None):"]
    lines.append("    _n = 0")
    lines.append("    try:")
    # The loop target *is* the element binding (no per-element rebind);
    # _check_batchable guarantees it cannot clobber a state local.
    lines.append(f"        for {cg.mangle(program.elem_param)} in _elems:")
    # The whole prologue — arity check, state unpack, eager extras — runs
    # on the FIRST iteration, not above the loop: an empty batch must
    # touch neither the state shape nor the extras (a per-element loop
    # never would, so jit on and off must agree on it), while a non-empty
    # one fails on element 0 before its step body — exactly like the
    # scalar closure's prologue.
    lines.append("            if not _n:")
    lines.append(f"                if len(_state) != {arity}:")
    lines.append(
        "                    raise EvaluationError("
        f"f\"online program expects {arity} state values, got {{len(_state)}}\")"
    )
    if arity == 1:
        lines.append(f"                ({state_vars[0]},) = _state")
    elif arity:
        lines.append(f"                {', '.join(state_vars)} = _state")
    _emit_extra_fetch(cg, eager_extras, list_extras, lines, 16)
    body: list[str] = []
    outputs = _emit_outputs(cg, program, eager_extras, body, name)
    lines.extend("        " + line for line in body)
    if arity:
        # One tuple assignment: the RHS is fully evaluated before any state
        # local changes, so a raising subexpression leaves the previous
        # element's state intact for the partial-progress record.
        lines.append(f"            {', '.join(state_vars)} = {', '.join(outputs)}")
    lines.append("            _n += 1")
    # With no element applied the state locals are unbound (the prologue is
    # first-iteration): pass the input state through unchanged, exactly as
    # the generic step loop does.
    lines.append("    except BaseException as _exc:")
    lines.append(f"        _record_partial(_exc, {state_tuple} if _n else _state, _n)")
    lines.append("        raise")
    lines.append(f"    return ({state_tuple} if _n else _state, _n)")
    fn = cg.build("\n".join(lines) + "\n", "_compiled_batch", name)
    return StepKernel(fn, compiled=True, name=name)


def compile_keyed_batch(
    program: OnlineProgram, initializer: Sequence[Value], name: str = "keyed"
) -> StepKernel:
    """Compile a group-by batch loop into one closure: ``run(partitions,
    elements, extra, key_fn, value_fn, partition) -> consumed``.

    Per element, in order: ``key_fn``; ``value_fn`` (or the element);
    the state ``partitions[key].acc``, or ``initializer`` for a new key; the
    inlined, CSE'd step body; the new state stored back, a new key's record
    made as ``partition(state, 1)`` only now that its step succeeded; the
    count.
    Eager extras are fetched on the first element, after its key and value.
    A raise thus leaves exactly the per-element prefix in ``partitions``
    and carries ``consumed`` (:func:`kernel_partial`).  Declines what
    :func:`compile_step_batch` declines (see :meth:`StepKernel.keyed_from_step`).
    """
    cg, state_vars, list_extras, eager_extras = _batch_codegen(program, name)
    cg.globals["_init"] = tuple(initializer)
    elem = cg.mangle(program.elem_param)

    lines = ["def _compiled_keyed(_parts, _elems, _extra, _key_fn, _value_fn, _partition):"]
    lines.append("    _n = 0")
    lines.append("    _get = _parts.get")
    lines.append("    try:")
    lines.append("        for _e in _elems:")
    lines.append("            _k = _key_fn(_e)")
    lines.append(f"            {elem} = _e if _value_fn is None else _value_fn(_e)")
    if eager_extras:
        lines.append("            if not _n:")
        _emit_extra_fetch(cg, eager_extras, list_extras, lines, 16)
    lines.append("            _p = _get(_k)")
    if program.arity:
        # _check_batchable guarantees the element cannot clobber a state local.
        lines.append(f"            {', '.join(state_vars)}, = _init if _p is None else _p.acc")
    body: list[str] = []
    outputs = _emit_outputs(cg, program, eager_extras, body, name)
    lines.extend("        " + line for line in body)
    new_state = _tuple_code(outputs)
    lines.append("            if _p is None:")
    lines.append(f"                _parts[_k] = _partition({new_state}, 1)")
    lines.append("            else:")
    lines.append(f"                _p.acc = {new_state}")
    lines.append("                _p.count += 1")
    lines.append("            _n += 1")
    lines.append("    except BaseException as _exc:")
    lines.append("        _record_partial(_exc, None, _n)")
    lines.append("        raise")
    lines.append("    return _n")
    fn = cg.build("\n".join(lines) + "\n", "_compiled_keyed", name)
    return StepKernel(fn, compiled=True, name=name)
