"""Abstract syntax of the functional intermediate representation.

This module defines the expression language of the paper's Figure 6 (offline
programs) and Figure 7 (online programs) as immutable, hashable dataclasses:

* ``Const``, ``Var`` — constants and scalar variables;
* ``ListVar`` — the distinguished input list ``xs`` of an offline program;
* ``Call`` — application of a built-in function (by name) or a ``Lambda``;
* ``If`` — the conditional ``E ? E : E``;
* ``Map`` / ``Filter`` / ``Fold`` — the list combinators (offline only),
  whose function is always a ``Lambda``;
* ``Let`` — surface-level let bindings (Figure 3a); these are sugar and are
  inlined by :func:`repro.ir.traversal.inline_lets` before analysis;
* ``Snoc`` — ``xs ++ [x]``, the single-element append used by specifications
  and the combinator axioms of Figure 10 (internal, never user-written);
* ``MakeTuple`` / ``Proj`` — tuples for paired accumulators and event records;
* ``Hole`` — sketch holes ``□i`` introduced by decomposition (Figure 9).

All nodes are frozen dataclasses, so structural equality and hashing come for
free; the synthesizer relies on both (e.g. hole specifications are dictionary
keys, and memo tables are keyed by expressions).  Equality is the one
expression identity every table shares: two ``Const`` nodes are equal only
when their values have the same type and are equal, telling floats apart as
``repr`` does (``-0.0`` is not ``0.0``; a NaN constant equals itself).  So
``Const(1)``, ``Const(1.0)`` and ``Const(True)`` are three constants, as
their results are, and every composite node inherits the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

#: Scalar constants carried by ``Const`` nodes.  Numeric constants are stored
#: as exact ``Fraction``/``int`` whenever possible; ``float`` appears only for
#: genuinely irrational values.
ConstValue = Union[int, Fraction, float, bool]


class Expr:
    """Base class of all IR expressions."""

    __slots__ = ()

    # These helpers keep call sites readable without isinstance noise.
    def is_combinator(self) -> bool:
        return isinstance(self, (Map, Filter, Fold))

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions, in evaluation order.  A callee is one
        only when it is a ``Lambda``: a builtin name is no expression, and
        a callee outside the contract is left for the passes to refuse."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: ConstValue

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Const:
            return NotImplemented
        a, b = self.value, other.value
        if a.__class__ is not b.__class__:
            return False
        return repr(a) == repr(b) if a.__class__ is float else a == b

    def __hash__(self) -> int:
        value = self.value
        if value.__class__ is float and value != value:
            value = math.nan  # a NaN hashes by identity; all NaN constants are equal
        return hash((value,))

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class ListVar(Expr):
    """The input list parameter of an offline program (``xs`` in the paper)."""

    name: str = "xs"

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return f"ListVar({self.name!r})"


@dataclass(frozen=True)
class Lambda(Expr):
    params: tuple[str, ...]
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"Lambda({self.params!r}, {self.body!r})"


@dataclass(frozen=True)
class Call(Expr):
    """Application ``g(E1, ..., En)`` of a built-in (by name) or a lambda.

    These are the only callees: no pass applies a variable or any other
    expression, and the interpreter and the code generator refuse one."""

    func: Union[str, Lambda]
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        if isinstance(self.func, Lambda):
            return (self.func,) + self.args
        return self.args

    def __repr__(self) -> str:
        return f"Call({self.func!r}, {self.args!r})"


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


@dataclass(frozen=True)
class Map(Expr):
    func: Lambda  # the parser eta-expands a bare builtin name
    lst: Expr

    def children(self) -> tuple[Expr, ...]:
        if isinstance(self.func, Lambda):
            return (self.func, self.lst)
        return (self.lst,)


@dataclass(frozen=True)
class Filter(Expr):
    func: Lambda
    lst: Expr

    def children(self) -> tuple[Expr, ...]:
        if isinstance(self.func, Lambda):
            return (self.func, self.lst)
        return (self.lst,)


@dataclass(frozen=True)
class Fold(Expr):
    """``foldl(g, init, lst)``; the workhorse combinator of the paper."""

    func: Lambda
    init: Expr
    lst: Expr

    def children(self) -> tuple[Expr, ...]:
        if isinstance(self.func, Lambda):
            return (self.func, self.init, self.lst)
        return (self.init, self.lst)


@dataclass(frozen=True)
class Let(Expr):
    """``let name = value in body`` — surface sugar, inlined before analysis."""

    name: str
    value: Expr
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.value, self.body)


@dataclass(frozen=True)
class Snoc(Expr):
    """``lst ++ [elem]`` — append of a single element (internal node)."""

    lst: Expr
    elem: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.lst, self.elem)


@dataclass(frozen=True)
class MakeTuple(Expr):
    items: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.items

    @property
    def arity(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Proj(Expr):
    """``tuple[index]`` with a static index."""

    tup: Expr
    index: int

    def children(self) -> tuple[Expr, ...]:
        return (self.tup,)


@dataclass(frozen=True)
class Hole(Expr):
    """A sketch hole ``□i``; ``spec`` is attached externally via the context."""

    hole_id: int

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return f"Hole({self.hole_id})"


@dataclass(frozen=True)
class Program:
    """An offline program ``λxs. E`` (Figure 6).

    ``extra_params`` models the "additional arguments" extension of Section 6:
    scalar parameters of the offline program that are passed through unchanged
    to the online program (e.g. a fixed threshold in an auction query).
    """

    param: str
    body: Expr
    extra_params: tuple[str, ...] = field(default=())

    def __repr__(self) -> str:
        if self.extra_params:
            return f"Program({self.param!r}, {self.body!r}, extra={self.extra_params!r})"
        return f"Program({self.param!r}, {self.body!r})"


@dataclass(frozen=True)
class OnlineProgram:
    """An online program ``λ(y1..yn). λx. (E1..En)`` (Figure 7)."""

    state_params: tuple[str, ...]
    elem_param: str
    outputs: tuple[Expr, ...]
    extra_params: tuple[str, ...] = field(default=())

    @property
    def arity(self) -> int:
        return len(self.state_params)


def const(value: ConstValue) -> Const:
    """Normalizing constructor for constants: ints stay ints, ``Fraction``
    values with denominator 1 collapse to ints."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return Const(int(value))
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return Const(int(value))
    return Const(value)


ZERO = Const(0)
ONE = Const(1)
TRUE = Const(True)
FALSE = Const(False)
