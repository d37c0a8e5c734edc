"""State-component liveness, verified dead-state elimination, and the
read-out split.

A component is *live* when the primary output (component 0, the value
``run`` streams to the caller) transitively depends on it through the
update functions; everything else is dead weight carried across steps.
Synthesis already prunes the easy cases (``core.postprocess``), but schemes
arriving from disk, from older store entries, or from hand-editing can
still carry dead components.

Elimination must be *bit-identical*, including faults: a dead component
whose update can raise (``Proj`` on a scalar, a wrong-arity call) still
changes observable behaviour when removed, so we only drop components whose
update expression is provably total under a coarse kind analysis.  The kind
lattice (NUM / BOOL / TUP(kinds) / ANY) deliberately knows nothing about
ranges — totality of the safe builtins is range-independent, except for the
float-converting ones (``sqrt``/``log``/``floor``/…, non-constant ``pow``)
which can overflow on huge exact rationals and are therefore never "total"
here.

The same totality check licenses :func:`split_readout`: a first component
that no update reads and that is a total function of the other components'
*new* values need not be carried through a batch loop at all; it is read
out from the accumulators when somebody looks.

:func:`element_blind` is a license of the same syntactic kind: an update
that only ever hands the element to normalizing arithmetic or a predicate
cannot tell ``Fraction(k)`` from ``k``, so serve workers may fold the
latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..builtins import all_builtins, get_builtin, is_builtin
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
from ..traversal import free_vars, substitute
from ..values import Value

# Kinds: ("num",) | ("bool",) | ("tuple", (kind, ...)) | ("any",)
Kind = tuple

NUM_K: Kind = ("num",)
BOOL_K: Kind = ("bool",)
ANY_K: Kind = ("any",)


def tuple_kind(items: tuple) -> Kind:
    return ("tuple", tuple(items))


def kind_of_value(value: Value) -> Kind:
    if isinstance(value, bool):
        return BOOL_K
    if isinstance(value, (int, float, Fraction)):
        return NUM_K
    if isinstance(value, tuple):
        return tuple_kind(tuple(kind_of_value(v) for v in value))
    return ANY_K


def join_kinds(a: Kind, b: Kind) -> Kind:
    if a == b:
        return a
    if a[0] == "tuple" and b[0] == "tuple" and len(a[1]) == len(b[1]):
        return tuple_kind(tuple(join_kinds(x, y) for x, y in zip(a[1], b[1])))
    return ANY_K


#: Builtins total on any numeric arguments (the safe wrappers absorb every
#: arithmetic edge case without converting huge exact values to float).
_TOTAL_NUMERIC = frozenset({"add", "sub", "mul", "div", "neg", "abs", "min", "max", "sign", "exp"})
#: Comparisons are total on numbers; eq/ne/and/or/not are total on anything.
_TOTAL_COMPARE = frozenset({"lt", "le", "gt", "ge"})
_TOTAL_ANY = frozenset({"eq", "ne", "and", "or", "not"})


def _is_const_int(expr: Expr) -> bool:
    if not isinstance(expr, Const):
        return False
    v = expr.value
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)


def kind_and_totality(expr: Expr, kenv: dict[str, Kind]) -> tuple[Kind, bool]:
    """``(kind, total)`` where ``total`` means *provably cannot raise* under
    the given free-variable kinds.  ``ANY`` kinds poison totality for the
    numeric builtins (a tuple reaching ``add`` raises ``TypeError``)."""
    if isinstance(expr, Const):
        return kind_of_value(expr.value), True
    if isinstance(expr, Var):
        kind = kenv.get(expr.name)
        if kind is None:
            return ANY_K, False  # unbound: raises EvaluationError
        return kind, True
    if isinstance(expr, Call):
        arg_info = [kind_and_totality(a, kenv) for a in expr.args]
        args_total = all(t for _, t in arg_info)
        kinds = [k for k, _ in arg_info]
        if isinstance(expr.func, str):
            if not is_builtin(expr.func):
                return ANY_K, False
            builtin = get_builtin(expr.func)
            if builtin.arity != len(kinds):
                return ANY_K, False
            all_num = all(k == NUM_K for k in kinds)
            if expr.func in _TOTAL_NUMERIC and all_num:
                return NUM_K, args_total
            if expr.func in _TOTAL_COMPARE and all_num:
                return BOOL_K, args_total
            if expr.func in _TOTAL_ANY:
                return BOOL_K, args_total
            if expr.func == "pow" and all_num:
                # The integer-exponent path of safe_pow is fully guarded;
                # a float exponent can overflow unguarded.
                if _is_const_int(expr.args[1]):
                    return NUM_K, args_total
                return NUM_K, False
            if expr.func in ("min", "max"):
                # Not arithmetic: the result is one of the arguments, so a
                # bool (or anything else that compares with numbers) passes
                # through where the arguments are not all numbers.
                return join_kinds(kinds[0], kinds[1]), False
            # sqrt/log/floor/ceil/expm1/log1p/length, or a numeric builtin
            # applied to non-NUM kinds: may raise (conversion overflow or
            # TypeError), so not total.
            result = BOOL_K if builtin.kind == "predicate" else NUM_K
            return result, False
        if isinstance(expr.func, Lambda):
            lam = expr.func
            if len(lam.params) != len(kinds):
                return ANY_K, False
            inner = dict(kenv)
            inner.update(zip(lam.params, kinds))
            body_kind, body_total = kind_and_totality(lam.body, inner)
            return body_kind, args_total and body_total
        return ANY_K, False
    if isinstance(expr, If):
        _, cond_total = kind_and_totality(expr.cond, kenv)
        then_kind, then_total = kind_and_totality(expr.then, kenv)
        else_kind, else_total = kind_and_totality(expr.orelse, kenv)
        return join_kinds(then_kind, else_kind), cond_total and then_total and else_total
    if isinstance(expr, Let):
        value_kind, value_total = kind_and_totality(expr.value, kenv)
        inner = dict(kenv)
        inner[expr.name] = value_kind
        body_kind, body_total = kind_and_totality(expr.body, inner)
        return body_kind, value_total and body_total
    if isinstance(expr, MakeTuple):
        info = [kind_and_totality(item, kenv) for item in expr.items]
        return tuple_kind(tuple(k for k, _ in info)), all(t for _, t in info)
    if isinstance(expr, Proj):
        tup_kind, tup_total = kind_and_totality(expr.tup, kenv)
        if tup_kind[0] == "tuple":
            items = tup_kind[1]
            if 0 <= expr.index < len(items):
                return items[expr.index], tup_total
        return ANY_K, False  # out of range or non-tuple: EvaluationError
    # List constructs, holes, anything else: faults in an online step.
    return ANY_K, False


#: Builtins whose every result goes through ``normalize_number`` (or is a
#: float or a literal), so an integral ``Fraction`` argument and its ``int``
#: give the same value of the same type.
NORMALIZING_BUILTINS = frozenset({"add", "sub", "mul", "div", "neg", "pow", "abs"})
#: The builtins an element may reach without showing its representation.
_BLIND_BUILTINS = NORMALIZING_BUILTINS | {b.name for b in all_builtins() if b.kind == "predicate"}


def _is_element(expr: Expr, elem: str) -> bool:
    """The element itself or a projection of it, ``x[i]`` (at any depth)."""
    while isinstance(expr, Proj):
        expr = expr.tup
    return isinstance(expr, Var) and expr.name == elem


def _element_hidden(expr: Expr, elem: str) -> bool:
    """No occurrence of ``elem`` in ``expr`` can show its representation:
    each is a direct argument of a normalizing builtin or a predicate."""
    if _is_element(expr, elem):
        return False  # bare, in a branch, a tuple, a Let, min/max, a lambda call
    if isinstance(expr, Lambda) and elem in expr.params:
        return False  # a binder shadowing the element: refuse, not reason
    if isinstance(expr, Let) and expr.name == elem:
        return False
    if isinstance(expr, Call):
        if expr.func in _BLIND_BUILTINS:
            return all(_is_element(a, elem) or _element_hidden(a, elem) for a in expr.args)
        if _is_element(expr.func, elem):
            return False  # the element called as a function
    return all(_element_hidden(child, elem) for child in expr.children())


def element_blind(program: OnlineProgram) -> bool:
    """Whether the update is *representation-blind* in the element: folding
    ``k`` where the stream holds ``Fraction(k)`` (at any depth of a tuple
    element) reaches the same state, value and type.

    It holds when every occurrence of the element, or of a projection
    ``x[i]`` of it, is a direct argument of a normalizing builtin
    (``add sub mul div neg pow abs``) or of a predicate; those return the
    same value and type for either form (``values._bit_size`` counts both
    alike).  An occurrence returned bare, sitting in an ``If`` branch, a
    tuple or a ``Let``, or passed through ``min``/``max`` (which return an
    argument unchanged) refuses it, and so does any binder that shadows
    the element's name.  Errors are outside the license: a step that
    raises on an element may word its message differently.
    """
    elem = program.elem_param
    if elem in program.state_params or elem in program.extra_params:
        return False
    return all(_element_hidden(out, elem) for out in program.outputs)


def _element_kind(program: OnlineProgram, element_arity: int | None) -> Kind:
    if element_arity is None:
        return ANY_K
    if element_arity == 1:
        return NUM_K
    return tuple_kind(tuple(NUM_K for _ in range(element_arity)))


def state_kinds(
    program: OnlineProgram,
    initializer: tuple[Value, ...],
    element_arity: int | None,
    *,
    extra_kind: Kind = NUM_K,
) -> dict[str, Kind]:
    """Per-variable kind environment, iterated to a (tiny) fixpoint so that
    kind-changing updates are joined rather than missed."""
    kenv: dict[str, Kind] = {name: extra_kind for name in program.extra_params}
    kenv[program.elem_param] = _element_kind(program, element_arity)
    kinds = [kind_of_value(v) for v in initializer]
    for _ in range(1 + len(initializer)):
        kenv.update(zip(program.state_params, kinds))
        stepped = [kind_and_totality(out, kenv)[0] for out in program.outputs]
        joined = [join_kinds(a, b) for a, b in zip(kinds, stepped)]
        if joined == kinds:
            break
        kinds = joined
    kenv.update(zip(program.state_params, kinds))
    return kenv


def live_components(program: OnlineProgram) -> set[int]:
    """Indices of state components the primary output transitively needs."""
    state_set = frozenset(program.state_params)
    deps: list[frozenset[str]] = [free_vars(out) & state_set for out in program.outputs]
    index_of = {name: i for i, name in enumerate(program.state_params)}
    live = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for name in deps[i]:
            j = index_of[name]
            if j not in live:
                live.add(j)
                frontier.append(j)
    return live


@dataclass(frozen=True)
class LivenessReport:
    live: tuple[int, ...]
    dead: tuple[int, ...]
    #: Dead components whose update is provably total (safe to eliminate).
    removable: tuple[int, ...]
    #: Dead components retained because their update may fault.
    retained: tuple[int, ...]


def analyze_liveness(
    program: OnlineProgram,
    initializer: tuple[Value, ...],
    element_arity: int | None = None,
) -> LivenessReport:
    live = live_components(program)
    dead = [i for i in range(program.arity) if i not in live]
    kenv = state_kinds(program, initializer, element_arity)
    removable = [i for i in dead if kind_and_totality(program.outputs[i], kenv)[1]]
    retained = [i for i in dead if i not in set(removable)]
    return LivenessReport(
        live=tuple(sorted(live)),
        dead=tuple(dead),
        removable=tuple(removable),
        retained=tuple(retained),
    )


def eliminate_dead_state(
    program: OnlineProgram,
    initializer: tuple[Value, ...],
    element_arity: int | None = None,
) -> tuple[OnlineProgram, tuple[Value, ...], tuple[str, ...]]:
    """Drop provably-total dead components.  Returns the rewritten program,
    initializer, and the removed component names (empty when nothing was
    safe to remove — the originals are returned unchanged then)."""
    report = analyze_liveness(program, initializer, element_arity)
    if not report.removable:
        return program, initializer, ()
    keep = [i for i in range(program.arity) if i not in set(report.removable)]
    removed = tuple(program.state_params[i] for i in report.removable)
    new_program = OnlineProgram(
        state_params=tuple(program.state_params[i] for i in keep),
        elem_param=program.elem_param,
        outputs=tuple(program.outputs[i] for i in keep),
        extra_params=program.extra_params,
    )
    new_initializer = tuple(initializer[i] for i in keep)
    return new_program, new_initializer, removed


@dataclass(frozen=True)
class ReadoutSplit:
    """A program whose first component is a read-out of the others:
    ``y1' = g(y2', ..., yn')`` after every step."""

    #: Components ``2..n`` with their own updates, in the order ``g`` first
    #: evaluates them, then in program order.
    accumulators: OnlineProgram
    #: The initializer of ``accumulators``.
    initializer: tuple[Value, ...]
    #: ``g`` over the accumulator names, each read as its *new* value.
    readout: Expr


def _new_state_of(expr: Expr, updates: dict[Expr, Var]) -> Expr:
    """``expr`` with every subtree equal to another component's update
    (constant types included) replaced by that component's marker.  Binders
    are left whole: inside them a subtree may not mean what it means
    outside, and their free names then refuse the split."""
    marker = updates.get(expr)
    if marker is not None:
        return marker
    if isinstance(expr, Call) and isinstance(expr.func, str):
        return Call(expr.func, tuple(_new_state_of(a, updates) for a in expr.args))
    if isinstance(expr, If):
        return If(*(_new_state_of(c, updates) for c in expr.children()))
    if isinstance(expr, MakeTuple):
        return MakeTuple(tuple(_new_state_of(item, updates) for item in expr.items))
    if isinstance(expr, Proj):
        return Proj(_new_state_of(expr.tup, updates), expr.index)
    return expr


def _evaluation_order(expr: Expr, names: frozenset[str], seen: list[str], branch: bool) -> bool:
    """Append to ``seen`` the ``names`` ``expr`` reads, in the order the
    interpreter first evaluates them; ``False`` when one is first read in an
    ``If`` branch, where whether it is evaluated depends on the data."""
    if isinstance(expr, Var) and expr.name in names:
        if expr.name not in seen:
            if branch:
                return False
            seen.append(expr.name)
        return True
    if isinstance(expr, If):
        return (
            _evaluation_order(expr.cond, names, seen, branch)
            and _evaluation_order(expr.then, names, seen, True)
            and _evaluation_order(expr.orelse, names, seen, True)
        )
    return all(_evaluation_order(c, names, seen, branch) for c in expr.children())


def split_readout(
    program: OnlineProgram, initializer: tuple[Value, ...]
) -> ReadoutSplit | None:
    """Split the first component off as a read-out, or ``None``.

    The split holds when, syntactically, the first update is an expression
    ``g`` over the other components' new values only (no old state, no
    element, no extras: a keyed read is lazy, and extras may change between
    batches); no update reads the first component; and ``g`` provably cannot
    raise, whatever the elements and extras are.  An eager step fails
    wherever ``g`` would, so a lazy read of a partial ``g`` would turn a
    loud failure into a late or a silent one.

    Folding the accumulators then reaches the eager fold's state after any
    non-empty stream, failures included: an eager step evaluates the
    updates ``g`` reads first, in ``g``'s order, then the rest in program
    order, and the accumulators are ordered the same way, so the first
    update to raise on an element is the same one.
    """
    names = program.state_params
    if (
        program.arity < 2
        or len(program.outputs) != program.arity
        or len(set(names)) != program.arity
        or program.elem_param in names
    ):
        return None
    head, rest = names[0], names[1:]
    if any(head in free_vars(out) for out in program.outputs[1:]):
        return None
    # Markers for new values, fresh against every name the program uses.
    taken = set(names) | {program.elem_param} | set(program.extra_params)
    taken = taken.union(*(free_vars(out) for out in program.outputs))
    prime = "'"
    while any(name + prime in taken for name in rest):
        prime += "'"
    marker_of = {name: name + prime for name in rest}
    index_of = {marker: i for i, marker in enumerate(marker_of.values())}
    updates: dict[Expr, Var] = {}
    for name, out in zip(rest, program.outputs[1:]):
        updates.setdefault(out, Var(marker_of[name]))
    readout = _new_state_of(program.outputs[0], updates)
    markers = frozenset(index_of)
    first: list[str] = []
    if not free_vars(readout) <= markers or not _evaluation_order(readout, markers, first, False):
        return None
    order = [index_of[marker] for marker in first]
    order += [i for i in range(len(rest)) if i not in order]
    accumulators = OnlineProgram(
        state_params=tuple(rest[i] for i in order),
        elem_param=program.elem_param,
        outputs=tuple(program.outputs[1 + i] for i in order),
        extra_params=program.extra_params,
    )
    acc_init = tuple(initializer[1 + i] for i in order)
    readout = substitute(readout, {marker_of[name]: Var(name) for name in rest})
    kenv = state_kinds(accumulators, acc_init, None, extra_kind=ANY_K)
    if not kind_and_totality(readout, {name: kenv[name] for name in rest})[1]:
        return None
    return ReadoutSplit(accumulators, acc_init, readout)
