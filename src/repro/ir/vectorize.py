"""Certificate-licensed columnar (NumPy) execution backend.

The exact backends (:mod:`repro.ir.evaluator`, :mod:`repro.ir.compile`) pay
per-element Python dispatch and, on rational-state schemes, per-op gcd
normalization — which is why batch codegen is ~1x on gcd-bound schemes like
``variance``.  This module changes the numeric *domain* instead of the loop
shape: an :class:`~repro.ir.nodes.OnlineProgram` step is compiled to
whole-batch column operations over ``int64`` NumPy arrays, with the
inherently sequential state recurrences decomposed into per-batch scans
(``cumsum`` / ``maximum.accumulate`` / ...) and everything else evaluated
element-wise over the scanned prefix trajectories.

``int64`` is the only domain, and admission is gated by the interval
certificates (:func:`repro.ir.analysis.int64_certified`): a scheme runs
columnar only when the analysis proves every state component *and* every
reachable intermediate stays an exact int64 under the declared source
bounds — then the columnar result is bit-for-bit identical to the exact
rationals and no per-element overflow guard is needed.  Builtins whose
results are non-integral in general (``sqrt``/``exp``/``log``, fractional
or negative ``pow`` exponents) are refused at planning.  Schemes whose
update is not scan-decomposable, schemes without the certificate, and any
batch whose data falls outside the certified bounds, transparently keep /
delegate to the exact :class:`~repro.ir.compile.StepKernel` — the columnar
backend is *never* allowed to change an answer.  A certificate says a
batch is safe, not that it is faster, so a kernel also hands short batches
(and ``Fraction`` batches of single-scan plans) straight to the exact
kernel: see ``_MIN_SCAN_BATCH``.

NumPy itself is optional (``pip install repro[fast]``): the import is lazy,
``REPRO_NO_NUMPY=1`` force-disables it (for testing the degraded path), and
every caller falls back to the exact kernel with a one-line notice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Sequence

from .compile import IRCompileError, StepKernel
from .nodes import Call, Const, Expr, If, Let, MakeTuple, OnlineProgram, Proj, Var
from .traversal import element_shape, free_vars, iter_subexprs
from .values import Value

__all__ = [
    "ColumnPlan",
    "ColumnarAdmission",
    "ColumnarError",
    "ColumnarKernel",
    "ColumnarUnavailable",
    "admit_columnar",
    "compile_columns",
    "numpy_or_none",
    "plan_columns",
]


class ColumnarError(IRCompileError):
    """The program's step cannot run as column operations (structural)."""


class ColumnarUnavailable(ColumnarError):
    """NumPy is missing or disabled; the columnar backend cannot run."""


class _Bailout(Exception):
    """Runtime signal: this batch cannot run columnar (out-of-contract
    data); the kernel delegates the whole batch to the exact kernel."""


# -- lazy NumPy ---------------------------------------------------------------

_NUMPY: Any = None  # unresolved; module object once imported; False if absent


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when unavailable.

    ``REPRO_NO_NUMPY`` (any of ``1``/``true``/``on``/``yes``) disables the
    backend even when NumPy is importable — the switch the no-NumPy test
    leg and the graceful-degrade tests flip without uninstalling anything.
    """
    raw = os.environ.get("REPRO_NO_NUMPY")
    if raw is not None and raw.strip().lower() in ("1", "true", "on", "yes"):
        return None
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy  # noqa: PLC0415 - lazy by design

            _NUMPY = numpy
        except Exception:
            _NUMPY = False
    return _NUMPY or None


def _require_numpy():
    np = numpy_or_none()
    if np is None:
        raise ColumnarUnavailable(
            "NumPy is not available (install repro[fast], or unset REPRO_NO_NUMPY)"
        )
    return np


# -- structural planning ------------------------------------------------------

#: Builtins the column evaluator implements.
_SUPPORTED_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "abs", "min", "max", "pow",
        "sign", "floor", "ceil",
        "lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not",
    }
)

#: Builtins whose results are non-integral in general: refused at planning
#: rather than trusted to a certificate (``sqrt`` of a certified perfect
#: square is exact in theory, but int64 columns have no exact ``sqrt``).
_FLOAT_ONLY_OPS = frozenset({"sqrt", "exp", "log"})

#: Associative-idempotent self-accumulation ops: the component's update is
#: ``op(self, term)`` (either operand order) with ``term`` independent of
#: the component.  ``add``/``sub`` chains are handled separately by the
#: full additive decomposition (:func:`_decompose_additive`).
_ACCUMULATION_OPS = {
    "mul": "cumprod",
    "max": "cummax",
    "min": "cummin",
    "or": "cumor",
    "and": "cumand",
}


@dataclass(frozen=True)
class _Component:
    """One state component's columnar execution strategy.

    ``kind`` is ``invariant`` (``s' = s``), ``elementwise`` (no
    self-reference: the new value is a column function of the element and
    the *previous* trajectories of other components), or one of the
    accumulation scans (``cumsum``/``cumprod``/``cummax``/``cummin``/
    ``cumor``/``cumand``) whose per-element term ``term`` is a column
    function of the element and other components' previous values.

    ``mask`` (with ``mask_sense``) marks conditional accumulations —
    ``If(cond, op(self, term), self)`` — whose term is replaced by the
    scan's neutral element wherever the condition does not hold.
    """

    name: str
    kind: str
    expr: Expr | None  #: elementwise update, or the accumulation term
    depends: tuple[str, ...]  #: state components whose trajectories feed it
    mask: Expr | None = None  #: accumulate only where this condition holds
    mask_sense: bool = True  #: False: accumulate where the mask is falsy


@dataclass(frozen=True)
class ColumnPlan:
    """A whole-batch columnar execution plan.

    ``order`` lists components in a dependency order in which every
    component's referenced trajectories are computed before it; existence
    of such an order is exactly the scan-decomposability condition.
    """

    program: OnlineProgram
    components: tuple[_Component, ...]  #: in ``state_params`` order
    order: tuple[int, ...]  #: evaluation order (indices into components)
    elem_arity: int  #: element fields (1 = scalar stream)


def _validate_ops(expr: Expr) -> None:
    """Check every node is one the column evaluator implements, and every
    builtin has an exact int64 column implementation.  The planning below
    assumes a validated tree: builtin calls over these nodes only."""
    for e in iter_subexprs(expr):
        if isinstance(e, Call):
            name = e.func if isinstance(e.func, str) else None
            if name in _FLOAT_ONLY_OPS:
                raise ColumnarError(f"uses float-only builtins ({name!r} is not exact in int64)")
            if name not in _SUPPORTED_OPS:
                raise ColumnarError(f"builtin {name!r} has no column implementation")
            if name == "pow":
                exp = e.args[1]
                if not isinstance(exp, Const):
                    raise ColumnarError("pow with a non-constant exponent")
                ev = exp.value
                if not isinstance(ev, (int, Fraction, float)):
                    raise ColumnarError("pow with a non-numeric exponent")
                if ev < 0 or ev % 1:  # nan and inf too
                    raise ColumnarError(
                        "uses float-only builtins (pow with a fractional or negative "
                        "exponent is not exact in int64)"
                    )
        elif not isinstance(e, (Var, Const, If, Let, MakeTuple, Proj)):
            raise ColumnarError(f"{type(e).__name__} nodes are not columnarizable")


def _decompose_additive(expr: Expr, name: str) -> Expr | None:
    """Write ``expr`` as ``name + T`` with ``T`` independent of ``name``.

    Handles arbitrarily nested ``add``/``sub`` chains (``(m3 + A) - B``),
    ``If`` whose both branches decompose (conditional accumulation:
    ``If(c, s + x, s)`` -> ``If(c, x, 0)``), and ``Let`` over a
    name-independent binding.  Returns the increment expression, or
    ``None`` when no unit-coefficient decomposition exists.  Over exact
    int64 values the rewrite is exact (associativity of integer addition).
    """
    if isinstance(expr, Var) and expr.name == name:
        return Const(0)
    if name not in free_vars(expr):
        return None
    if isinstance(expr, Call) and isinstance(expr.func, str) and len(expr.args) == 2:
        left, right = expr.args
        in_left, in_right = name in free_vars(left), name in free_vars(right)
        if expr.func == "add" and in_left != in_right:
            if in_left:
                dec = _decompose_additive(left, name)
                return None if dec is None else Call("add", (dec, right))
            dec = _decompose_additive(right, name)
            return None if dec is None else Call("add", (left, dec))
        if expr.func == "sub" and in_left and not in_right:
            dec = _decompose_additive(left, name)
            return None if dec is None else Call("sub", (dec, right))
    if isinstance(expr, If) and name not in free_vars(expr.cond):
        then = _decompose_additive(expr.then, name)
        orelse = _decompose_additive(expr.orelse, name)
        if then is not None and orelse is not None:
            return If(expr.cond, then, orelse)
    if isinstance(expr, Let) and expr.name != name and name not in free_vars(expr.value):
        body = _decompose_additive(expr.body, name)
        return None if body is None else Let(expr.name, expr.value, body)
    return None


def _match_assoc(expr: Expr, name: str) -> tuple[str, Expr, Expr | None, bool] | None:
    """Match ``op(self, T)`` / ``If(c, op(self, T), self)`` for the
    associative-idempotent scans; returns ``(kind, term, mask, sense)``."""

    def bare(e: Expr) -> tuple[str, Expr] | None:
        if isinstance(e, Call) and isinstance(e.func, str) and len(e.args) == 2:
            kind = _ACCUMULATION_OPS.get(e.func)
            if kind in ("cummax", "cummin", "cumor", "cumand", "cumprod"):
                left, right = e.args
                if isinstance(left, Var) and left.name == name and name not in free_vars(right):
                    return kind, right
                if isinstance(right, Var) and right.name == name and name not in free_vars(left):
                    return kind, left
        return None

    hit = bare(expr)
    if hit is not None:
        return hit[0], hit[1], None, True
    if isinstance(expr, If) and name not in free_vars(expr.cond):
        if isinstance(expr.orelse, Var) and expr.orelse.name == name:
            hit = bare(expr.then)
            if hit is not None:
                return hit[0], hit[1], expr.cond, True
        if isinstance(expr.then, Var) and expr.then.name == name:
            hit = bare(expr.orelse)
            if hit is not None:
                return hit[0], hit[1], expr.cond, False
    return None


def _classify(name: str, update: Expr, state_names: frozenset[str]) -> _Component:
    """One component's strategy (dependencies not yet checked for order)."""
    if isinstance(update, Var) and update.name == name:
        return _Component(name, "invariant", None, ())
    refs = free_vars(update) & state_names
    if name not in refs:
        return _Component(name, "elementwise", update, tuple(sorted(refs)))
    # Self-referential: additive scan (cumsum) covers nested +/- chains and
    # conditional accumulation; the associative-idempotent ops cover
    # max/min/or/and/product, optionally under a single If mask.
    others = state_names - {name}
    term = _decompose_additive(update, name)
    if term is not None:
        return _Component(name, "cumsum", term, tuple(sorted(free_vars(term) & others)))
    assoc = _match_assoc(update, name)
    if assoc is not None:
        kind, term, mask, sense = assoc
        deps = free_vars(term) if mask is None else free_vars(term) | free_vars(mask)
        return _Component(name, kind, term, tuple(sorted(deps & others)), mask, sense)
    raise ColumnarError(
        f"state component {name!r}: self-referential update is not "
        f"scan-decomposable (not of the form op({name}, term))"
    )


def plan_columns(program: OnlineProgram, initializer: Sequence[Value]) -> ColumnPlan:
    """Decompose the step into per-component column strategies.

    Raises :class:`ColumnarError` (with the first blocking reason) when any
    component's update cannot run as exact int64 column operations —
    unsupported or float-only builtins, tuple-valued state, self-referential
    non-scan recurrences, or cyclic cross-component dependences.
    """
    state_names = frozenset(program.state_params)
    for name, value in zip(program.state_params, initializer):
        if isinstance(value, (tuple, list)):
            raise ColumnarError(f"state component {name!r} is tuple-valued")
    components = []
    for name, update in zip(program.state_params, program.outputs):
        if isinstance(update, MakeTuple):
            raise ColumnarError(f"state component {name!r} is tuple-valued")
        _validate_ops(update)
        components.append(_classify(name, update, state_names))

    # Dependency order: a component can be evaluated once every component
    # whose *previous trajectory* it reads has its full trajectory.  Since
    # all reads are of previous-step values, the only obstruction is a
    # cross-component cycle (mutual recurrences) — surfaced here.
    index = {c.name: i for i, c in enumerate(components)}
    resolved: set[str] = set()
    order: list[int] = []
    pending = list(components)
    while pending:
        progressed = False
        for comp in list(pending):
            if all(dep in resolved for dep in comp.depends):
                order.append(index[comp.name])
                resolved.add(comp.name)
                pending.remove(comp)
                progressed = True
        if not progressed:
            stuck = ", ".join(sorted(c.name for c in pending))
            raise ColumnarError(
                f"state components {stuck}: mutually recursive updates are "
                f"not scan-decomposable"
            )
    # Element columns: one per projected field, or the element itself.
    fields, whole = element_shape(program)
    if fields and whole:
        raise ColumnarError("element used both whole and projected")
    return ColumnPlan(program, tuple(components), tuple(order), max(fields, 1))


# -- admission ----------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarAdmission:
    """Why (or why not) a scheme may run columnar, for reports and CLI.

    ``verdict`` is ``certified-int64`` (bit-identical fast path licensed by
    the interval certificate) or ``uncertified`` (stays on the exact path;
    ``reason`` holds the first blocking reason).
    """

    verdict: str
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.verdict == "certified-int64"


def _int64_blocking_reason(program: OnlineProgram, analysis) -> str:
    """First reason the int64 certificate does not hold (for the report)."""
    from .analysis.domain import ANum, int64_certified

    def describe(av) -> str:
        if not isinstance(av, ANum):
            return "non-numeric abstraction"
        if not av.integral:
            return "value is not provably integral"
        if not av.exact:
            return "value may degrade to float"
        if not av.iv.bounded:
            return "value interval is unbounded under the given bounds"
        return "value interval exceeds int64"

    for i, av in enumerate(analysis.state):
        if not analysis.component_int64(i):
            return f"state component {program.state_params[i]!r}: {describe(av)}"
    for path, av in sorted(analysis.site_values.items()):
        if not int64_certified(av):
            site = ".".join(str(p) for p in path)
            return f"intermediate at output site {site}: {describe(av)}"
    return "not int64-certified"


def admit_columnar(
    program: OnlineProgram,
    initializer: Sequence[Value],
    bounds=None,
) -> ColumnarAdmission:
    """The columnar admission verdict for one scheme under ``bounds``.

    Pure structural + static analysis — does not require NumPy, so the
    ``--backend-report`` line is available even on exact-only installs.
    """
    try:
        plan_columns(program, initializer)
    except ColumnarError as exc:
        return ColumnarAdmission("uncertified", str(exc))
    from .analysis import UNKNOWN_BOUNDS, analyze_intervals

    analysis = analyze_intervals(program, tuple(initializer), bounds or UNKNOWN_BOUNDS)
    if analysis.int64_safe():
        return ColumnarAdmission("certified-int64")
    return ColumnarAdmission("uncertified", _int64_blocking_reason(program, analysis))


# -- column evaluation --------------------------------------------------------


def _truthy(np, v):
    """Element-wise truthiness (what the exact backend's ``bool()`` does)."""
    if getattr(v, "dtype", None) is not None and v.dtype == np.bool_:
        return v
    return v != 0


def _col_div(np, a, b):
    """``safe_div``: a/0 == 0.  The certificate proves every reachable
    quotient is integral, so floor division *is* exact division."""
    zero = np.logical_not(_truthy(np, b))
    return np.where(zero, 0, np.floor_divide(a, np.where(zero, 1, b)))


def _col_eval(np, expr: Expr, env: dict[str, Any]):
    """Evaluate one IR expression over column (or scalar) operands."""
    if isinstance(expr, Const):
        v = expr.value
        if isinstance(v, bool):
            return v
        if isinstance(v, Fraction):
            return int(v) if v.denominator == 1 else float(v)
        return v
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Let):
        inner = dict(env)
        inner[expr.name] = _col_eval(np, expr.value, env)
        return _col_eval(np, expr.body, inner)
    if isinstance(expr, If):
        cond = _truthy(np, _col_eval(np, expr.cond, env))
        return np.where(cond, _col_eval(np, expr.then, env), _col_eval(np, expr.orelse, env))
    if isinstance(expr, Proj):
        tup = _col_eval(np, expr.tup, env)
        return tup[expr.index]
    if isinstance(expr, MakeTuple):
        return tuple(_col_eval(np, item, env) for item in expr.items)
    if isinstance(expr, Call) and isinstance(expr.func, str):
        name = expr.func
        if name == "pow":
            # Planning admits only non-negative integral constant exponents.
            return _col_eval(np, expr.args[0], env) ** int(expr.args[1].value)
        args = [_col_eval(np, a, env) for a in expr.args]
        if name == "add":
            return args[0] + args[1]
        if name == "sub":
            return args[0] - args[1]
        if name == "mul":
            return args[0] * args[1]
        if name == "div":
            return _col_div(np, args[0], args[1])
        if name == "neg":
            return -args[0]
        if name == "abs":
            return np.abs(args[0])
        if name == "min":
            return np.minimum(args[0], args[1])
        if name == "max":
            return np.maximum(args[0], args[1])
        if name == "sign":
            return np.sign(args[0])
        if name in ("floor", "ceil"):
            return args[0]  # the operand is certified integral
        if name == "lt":
            return args[0] < args[1]
        if name == "le":
            return args[0] <= args[1]
        if name == "gt":
            return args[0] > args[1]
        if name == "ge":
            return args[0] >= args[1]
        if name == "eq":
            return args[0] == args[1]
        if name == "ne":
            return args[0] != args[1]
        if name == "and":
            return np.logical_and(_truthy(np, args[0]), _truthy(np, args[1]))
        if name == "or":
            return np.logical_or(_truthy(np, args[0]), _truthy(np, args[1]))
        if name == "not":
            return np.logical_not(_truthy(np, args[0]))
    raise ColumnarError(f"{type(expr).__name__} reached the column evaluator")


# -- data marshalling ---------------------------------------------------------

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# ``Fraction`` keeps its parts in slots; the exact kernels read them the
# same way (:mod:`repro.ir.compile`).
_NUMERATOR = attrgetter("_numerator")
_DENOMINATOR = attrgetter("_denominator")


def _payload_type(element, arity: int) -> type:
    """Type of one payload, or of its first field on tuple streams."""
    if arity > 1 and isinstance(element, (tuple, list)) and element:
        return type(element[0])
    return type(element)


def _integral_fraction_columns(np, chunk: list, arity: int):
    """Element columns of an all-``Fraction`` int64 batch: the numerators,
    read straight into int64 with no object array and no per-element
    conversion call.  ``None`` when some payload is not a ``Fraction`` (the
    generic path then decides); a non-integral value or a numerator beyond
    int64 bails the whole batch."""
    if arity > 1:
        try:
            if set(map(len, chunk)) != {arity}:
                raise _Bailout("element shape does not match the scheme's arity")
        except TypeError:
            return None
        values = list(chain.from_iterable(chunk))
    else:
        values = chunk
    if set(map(type, values)) != {Fraction}:
        return None
    if set(map(_DENOMINATOR, values)) != {1}:
        raise _Bailout("an element is a non-integral rational")
    try:
        arr = np.fromiter(map(_NUMERATOR, values), dtype=np.int64, count=len(values))
    except OverflowError:
        raise _Bailout("an element exceeds int64") from None
    if arity <= 1:
        return arr
    arr = arr.reshape(len(chunk), arity)
    return tuple(arr[:, i] for i in range(arity))


def _element_columns(np, chunk: list, arity: int, *, fractions: bool = False,
                     objects: bool = True):
    """Element columns for the batch: one array (scalars) or a tuple of
    per-field arrays.  Any conversion surprise — floats or bignums in an
    int64-certified stream, ragged tuples, non-numeric payloads — bails the
    batch out to the exact kernel instead of guessing.  ``fractions`` says
    the first payload is a ``Fraction`` (try the numerator path first);
    ``objects=False`` bails instead of converting object payloads."""
    if fractions:
        columns = _integral_fraction_columns(np, chunk, arity)
        if columns is not None:
            return columns
    try:
        arr = np.asarray(chunk)
    except (ValueError, TypeError, OverflowError):
        raise _Bailout("elements do not form a rectangular numeric array") from None
    if arr.dtype.kind == "O":
        if not objects:
            raise _Bailout("non-int payloads could reach the result unnormalized")
        # Exact-runtime streams carry Fraction payloads; one scalar
        # conversion pass (cheap: no gcd arithmetic) recovers the fast
        # path, and any genuinely non-numeric payload bails here instead.
        try:
            if arity <= 1:
                arr = np.asarray([_scalar_in(v, "element") for v in chunk])
            else:
                arr = np.asarray([[_scalar_in(f, "element field") for f in v] for v in chunk])
        except (ValueError, TypeError, OverflowError):
            raise _Bailout("elements do not form a rectangular numeric array") from None
        if arr.dtype.kind == "O":
            raise _Bailout("elements are not numeric")
    expected_dims = 1 if arity <= 1 else 2
    if arr.ndim != expected_dims or (arity > 1 and arr.shape[1] != arity):
        raise _Bailout("element shape does not match the scheme's arity")
    if arr.dtype.kind not in "iub" or arr.dtype.itemsize > 8:
        raise _Bailout("elements are not int64-representable")
    arr = arr.astype(np.int64, copy=False)
    if arity <= 1:
        return arr
    return tuple(arr[:, i] for i in range(arity))


def _scalar_in(value: Value, what: str):
    """One state value / extra parameter into an int64 column operand."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise _Bailout(f"{what} is a non-integral rational")
        value = int(value)
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise _Bailout(f"{what} exceeds int64")
        return value
    raise _Bailout(f"{what} is not an int64 value")


def _scalar_out(np, value) -> Value:
    """One final column value back to the exact runtime representation."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _check_bounds(np, columns, arity: int, bounds) -> None:
    """The runtime half of the certificate contract: int64 certificates are
    conditional on the declared source bounds, so a batch that strays
    outside them (or arrives when no field bounds were declared) must not
    run on the licensed fast path.  Vectorized min/max — O(1) passes, not
    per-element guards."""
    fields = getattr(bounds, "element", None) if bounds is not None else None
    if fields is None or len(fields) != max(arity, 1):
        raise _Bailout("no declared element bounds to certify this batch against")
    cols = (columns,) if arity <= 1 else columns
    for fb, col in zip(fields, cols):
        if col.size == 0:
            continue
        lo, hi = fb.lo, fb.hi
        if lo != float("-inf") and col.min() < lo:
            raise _Bailout("batch falls below the declared source bounds")
        if hi != float("inf") and col.max() > hi:
            raise _Bailout("batch exceeds the declared source bounds")


# -- result types -------------------------------------------------------------

#: Builtins whose exact result is a fresh number (normalized: ``int`` when
#: integral) or a ``bool``, never one of the operand objects.
_FRESH_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "abs", "sign", "floor", "ceil",
        "lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not",
    }
)


def _element_path(expr: Expr, elem_param: str, arity: int) -> tuple[int, ...] | None:
    """``()`` for the element itself, ``(i,)`` for its field ``i`` of a
    tuple stream, else ``None``."""
    if isinstance(expr, Var) and expr.name == elem_param:
        return ()
    if (arity > 1 and isinstance(expr, Proj) and isinstance(expr.tup, Var)
            and expr.tup.name == elem_param):
        return (expr.index,)
    return None


def _result_origin(name: str, update: Expr, elem_param: str, arity: int) -> tuple | None:
    """Which object the exact kernel's final value of one int64 component
    is, which fixes its Python type (``int`` vs an integral ``Fraction``):

    - ``("fresh",)``: a fresh normalized number (the columnar value as is);
    - ``("start",)``: the state object the batch started from;
    - ``("last", path)``: the last element (or its field);
    - ``("select", path, op, self_first)``: ``op(self, x)`` or
      ``op(x, self)`` with ``op`` max/min — the start object or the element
      that won last under the exact kernel's tie rule.

    ``None`` when the object cannot be told statically; such a scheme runs
    columnar only on batches that carry no ``Fraction`` at all.
    """
    body = update
    while isinstance(body, Let):
        body = body.body
    if isinstance(body, Call) and body.func in _FRESH_OPS:
        return ("fresh",)
    if isinstance(update, Var) and update.name == name:
        return ("start",)
    path = _element_path(update, elem_param, arity)
    if path is not None:
        return ("last", path)
    if isinstance(update, Call) and update.func in ("max", "min") and len(update.args) == 2:
        for self_first, (own, term) in ((True, update.args), (False, update.args[::-1])):
            path = _element_path(term, elem_param, arity)
            if isinstance(own, Var) and own.name == name and path is not None:
                return ("select", path, update.func, self_first)
    return None


def _pick(element, path: tuple[int, ...]):
    return element[path[0]] if path else element


def _selected(np, origin: tuple, column, start, start_value: int, chunk: list):
    """The object a max/min ``select`` component ends on.  The exact
    ``max(a, b)`` returns ``b`` only when ``b > a`` (``min``: ``b < a``), so
    ``op(self, x)`` keeps the *first* best element and only when it beats
    the start strictly; ``op(x, self)`` takes the *last* one, ties with the
    start included."""
    _, path, op, self_first = origin
    best = column.max() if op == "max" else column.min()
    beats = best > start_value if op == "max" else best < start_value
    if self_first:
        if not beats:
            return start
        k = int(np.argmax(column == best))
    else:
        if not (beats or best == start_value):
            return start
        k = len(column) - 1 - int(np.argmax(column[::-1] == best))
    return _pick(chunk[k], path)


# -- the kernel ---------------------------------------------------------------

# Per-batch cost gate.  A certificate says a columnar
# batch is *safe*, not that it is *faster*: below these lengths, and for
# ``Fraction`` payloads on a single-scan plan (count, max, min), the exact
# kernel wins or ties, so such batches go straight to it.  The table is the
# ungated columnar body against the exact kernel: one unkeyed operator,
# ``push_many`` at a fixed batch length, values 1..1000, best of 11
# interleaved runs, 2 vCPUs, CPython 3.11.7, NumPy 2.4.6.  A cell is exact
# time over columnar time per element (>1: columnar wins); cells near 1
# move by up to 0.4 between runs (int range at 128 read 0.73-1.43).
#
#   payload   scheme   1     8     64    128   256   512   4096
#   int       count    0.02  0.07  0.34  0.62  0.88  1.17  2.45
#   Fraction  count    0.02  0.04  0.27  0.41  0.43  0.51  0.68
#   int       max      0.03  0.10  0.52  0.89  1.36  1.90  3.09
#   Fraction  max      0.04  0.12  0.50  0.69  0.86  0.99  1.40
#   int       range    0.03  0.09  0.65  0.73  1.93  3.41  6.34
#   Fraction  range    0.03  0.16  1.00  1.65  2.66  2.97  4.48
#
# Single scans cross over between 256 and 512 on ints and not reliably on
# Fractions; range (three components) crosses between 64 and 256, at 128
# in most runs.
_MIN_SCAN_BATCH = 512  #: single-component plans
_MIN_MULTI_BATCH = 128  #: plans with two or more components


class ColumnarKernel(StepKernel):
    """A :class:`~repro.ir.compile.StepKernel` whose batch body is NumPy
    column operations, wrapping the exact kernel it falls back to.

    The run contract is the kernel contract: ``run(state, elements, extra)
    -> (state', consumed)``, empty batches touch nothing, and any
    out-of-contract batch (data outside the certified bounds, non-numeric
    payloads, unconvertible state) delegates *the whole batch* to the
    wrapped exact kernel — including its exact partial-progress semantics
    when an element genuinely faults.  Batches the cost gate keeps exact go
    to that same kernel, before any conversion.
    """

    __slots__ = ("exact", "plan", "bounds")

    #: Marker ``OnlineOperator.backend_in_use`` and tests key on (plain
    #: StepKernels return False via ``getattr(k, "columnar", False)``).
    columnar = True

    def __init__(self, run: Callable, *, exact: StepKernel, plan: ColumnPlan, bounds, name: str):
        super().__init__(run, compiled=True, name=name)
        self.exact = exact
        self.plan = plan
        self.bounds = bounds

    def __repr__(self) -> str:
        return f"<ColumnarKernel {self.name}>"


def compile_columns(
    program: OnlineProgram,
    initializer: Sequence[Value],
    *,
    exact: StepKernel,
    bounds=None,
    name: str = "columnar",
) -> ColumnarKernel:
    """Build the columnar kernel for a scheme admitted under ``bounds``
    (certificate-licensed, bit-identical); ``exact`` is the kernel
    delegated to on bailouts and gated batches.  Raises
    :class:`ColumnarUnavailable` without NumPy and :class:`ColumnarError`
    when the program is not scan-decomposable.
    """
    np = _require_numpy()
    plan = plan_columns(program, initializer)
    components = plan.components
    order = plan.order
    elem_arity = plan.elem_arity
    elem_param = program.elem_param
    extra_params = program.extra_params
    state_params = program.state_params
    index_of = {pname: i for i, pname in enumerate(state_params)}
    single_scan = len(components) == 1  # the cost gate: see _MIN_SCAN_BATCH
    origins = tuple(
        _result_origin(pname, update, elem_param, elem_arity)
        for pname, update in zip(state_params, program.outputs)
    )
    typed = None not in origins

    def _batch(state, chunk, extra, fractions):
        n = len(chunk)
        if not typed and (fractions or any(type(v) is Fraction for v in state)):
            raise _Bailout("a Fraction could reach the result unnormalized")
        columns = _element_columns(np, chunk, elem_arity, fractions=fractions, objects=typed)
        _check_bounds(np, columns, elem_arity, bounds)
        base_env: dict[str, Any] = {elem_param: columns}
        for pname in extra_params:
            if extra is None or pname not in extra:
                raise _Bailout(f"extra parameter {pname!r} missing")
            base_env[pname] = _scalar_in(extra[pname], f"extra {pname!r}")
        starts = [_scalar_in(v, f"state component {i}") for i, v in enumerate(state)]

        trajectories: dict[str, Any] = {}

        def prev_of(dep: str):
            traj = trajectories[dep]
            prev = np.empty(n, dtype=traj.dtype)
            prev[0] = starts[index_of[dep]]
            prev[1:] = traj[:-1]
            return prev

        for ci in order:
            comp = components[ci]
            start = starts[ci]
            env = dict(base_env)
            for dep in comp.depends:
                env[dep] = prev_of(dep)
            if comp.kind == "invariant":
                traj = np.full(n, start)
            elif comp.kind == "elementwise":
                traj = _broadcast(np, _col_eval(np, comp.expr, env), n)
            else:
                term = _broadcast(np, _col_eval(np, comp.expr, env), n)
                if comp.mask is not None:
                    cond = _truthy(np, _broadcast(np, _col_eval(np, comp.mask, env), n))
                    if not comp.mask_sense:
                        cond = ~cond
                    term = np.where(cond, term, _neutral(comp.kind, term.dtype))
                if comp.kind == "cumsum":
                    traj = start + np.cumsum(term)
                elif comp.kind == "cumprod":
                    traj = start * np.cumprod(term)
                elif comp.kind == "cummax":
                    traj = np.maximum(np.maximum.accumulate(term), term.dtype.type(start))
                elif comp.kind == "cummin":
                    traj = np.minimum(np.minimum.accumulate(term), term.dtype.type(start))
                elif comp.kind == "cumor":
                    traj = np.logical_or.accumulate(_truthy(np, term)) | bool(start)
                else:  # cumand
                    traj = np.logical_and.accumulate(_truthy(np, term)) & bool(start)
            trajectories[comp.name] = traj
        # The final state, typed as the exact kernel types it (an untyped
        # origin only gets here on Fraction-free data: a fresh value then).
        final = []
        for ci, (pname, origin) in enumerate(zip(state_params, origins)):
            kind = "fresh" if origin is None else origin[0]
            if kind == "fresh":
                final.append(_scalar_out(np, trajectories[pname][-1]))
            elif kind == "start":
                final.append(state[ci])
            elif kind == "last":
                final.append(_pick(chunk[-1], origin[1]))
            else:
                column = columns[origin[1][0]] if origin[1] else columns
                final.append(_selected(np, origin, column, state[ci], starts[ci], chunk))
        return tuple(final)

    def _run(state, elements, extra=None):
        chunk = elements if isinstance(elements, (list, tuple)) else list(elements)
        n = len(chunk)
        # Gated batches take the same exact kernel as bailouts do.
        if n < (_MIN_SCAN_BATCH if single_scan else _MIN_MULTI_BATCH):
            return exact.run(state, chunk, extra)
        if not n:
            return tuple(state), 0
        fractions = _payload_type(chunk[0], elem_arity) is Fraction
        if fractions and single_scan:
            return exact.run(state, chunk, extra)
        try:
            new_state = _batch(state, chunk, extra, fractions)
        except _Bailout:
            return exact.run(state, chunk, extra)
        return new_state, len(chunk)

    return ColumnarKernel(_run, exact=exact, plan=plan, bounds=bounds, name=name)


def _broadcast(np, value, n: int):
    """A per-element column for ``value`` (constants broadcast)."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, value)
    return arr


def _neutral(kind: str, dtype):
    """The scan's neutral element: masked-out positions accumulate this.

    ``cumsum`` masks are folded into the term by the additive
    decomposition, so only the associative kinds reach here.
    """
    if kind == "cumprod":
        return dtype.type(1)
    if kind == "cummax":
        return _INT64_MIN
    if kind == "cummin":
        return _INT64_MAX
    return kind == "cumand"  # cumor: False


def columnar_kernel_for(scheme, bounds=None) -> ColumnarKernel | None:
    """The admitted columnar kernel for ``scheme`` under ``bounds``, falling
    back to the scheme's resolved exact kernel, or ``None`` (NumPy absent,
    or no int64 certificate).  The helper behind
    :meth:`repro.core.scheme.OnlineScheme.compiled_columns`.
    """
    if numpy_or_none() is None:
        return None
    if not admit_columnar(scheme.program, scheme.initializer, bounds).admitted:
        return None
    return compile_columns(
        scheme.program,
        scheme.initializer,
        exact=scheme._resolve_kernel(),
        bounds=bounds,
        name=f"{scheme.provenance}-columnar",
    )
