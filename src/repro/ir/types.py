"""A small monomorphic type system for the functional IR.

The offline language of the paper (Figure 6) is untyped on the surface, but
several parts of the synthesizer need coarse type information:

* the ``Leaf`` decomposition rule of Figure 9 only fires on expressions whose
  type is *not* ``List``;
* the enumerative synthesizer needs to know which grammar productions are
  type-correct for a hole;
* the algebra encoder treats boolean- and number-typed atoms differently.

We therefore implement a simple structural type language with numbers,
booleans, homogeneous lists, fixed-arity tuples, and first-order function
types, together with a syntax-directed inference pass (:func:`infer_type`).
Inference is deliberately forgiving: when an expression mixes types in a way
the checker cannot resolve it falls back to :data:`NUM` rather than failing,
because the downstream equivalence oracle is the real arbiter of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


class Type:
    """Base class for IR types. Instances are immutable and hashable."""

    __slots__ = ()

    def is_scalar(self) -> bool:
        """Scalar types may appear in online programs (Figure 7)."""
        return isinstance(self, (NumType, BoolType)) or (
            isinstance(self, TupleType) and all(t.is_scalar() for t in self.elements)
        )


@dataclass(frozen=True)
class NumType(Type):
    """Numbers.  The IR does not distinguish ints from rationals/reals."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Num"


@dataclass(frozen=True)
class BoolType(Type):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class ListType(Type):
    """Homogeneous list whose elements have type ``element``."""

    element: Type

    def __repr__(self) -> str:
        return f"List[{self.element!r}]"


@dataclass(frozen=True)
class TupleType(Type):
    """Fixed-arity tuple; used for paired accumulators and record events."""

    elements: tuple[Type, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.elements)
        return f"Tuple[{inner}]"

    @property
    def arity(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FunType(Type):
    """First-order function type for lambda abstractions."""

    params: tuple[Type, ...]
    result: Type

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.params)
        return f"({inner}) -> {self.result!r}"


NUM = NumType()
BOOL = BoolType()
NUM_LIST = ListType(NUM)


def tuple_of(*elements: Type) -> TupleType:
    return TupleType(tuple(elements))


def unify(a: Type, b: Type) -> Type:
    """Best-effort unification of two inferred types.

    This is not Hindley-Milner; there are no type variables.  Mismatches
    resolve to the more specific side when one side is the permissive
    :data:`NUM` default, and to :data:`NUM` otherwise.
    """
    if a == b:
        return a
    if isinstance(a, ListType) and isinstance(b, ListType):
        return ListType(unify(a.element, b.element))
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        if a.arity == b.arity:
            return TupleType(tuple(unify(x, y) for x, y in zip(a.elements, b.elements)))
    # Prefer the non-default side when one of the two is the NUM fallback.
    if a == NUM:
        return b
    if b == NUM:
        return a
    return NUM


class TypeEnvironment:
    """Immutable mapping from variable names to types."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Type] | None = None):
        self._bindings: dict[str, Type] = dict(bindings or {})

    def lookup(self, name: str) -> Type:
        return self._bindings.get(name, NUM)

    def extend(self, names: Iterable[str], types: Iterable[Type]) -> "TypeEnvironment":
        new = dict(self._bindings)
        for name, typ in zip(names, types):
            new[name] = typ
        return TypeEnvironment(new)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __repr__(self) -> str:
        return f"TypeEnvironment({self._bindings!r})"
