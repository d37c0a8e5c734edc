"""Exact multivariate polynomials over ``fractions.Fraction``.

This is the foundation of the symbolic-reasoning half of the synthesizer
(Section 5.2.2).  The paper delegates algebra to the REDUCE computer algebra
system; we implement the needed fragment from scratch:

* sparse multivariate polynomials with exact rational coefficients;
* ring operations, exact division, content extraction;
* substitution of variables by polynomials (rational substitution lives in
  :mod:`repro.algebra.ratfunc`);
* evaluation over :class:`~fractions.Fraction` points.

Variables are plain strings.  Names beginning with ``"@"`` denote *atoms* —
opaque subterms interned in an :class:`~repro.algebra.atoms.AtomTable` — but
this module treats them as ordinary variables.

Representation: ``dict`` from monomial to coefficient, where a monomial is a
sorted tuple of ``(variable, exponent)`` pairs with positive exponents.  The
empty tuple is the constant monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

Monomial = tuple[tuple[str, int], ...]
Coeff = Fraction
Scalar = Union[int, Fraction]

_ONE_MONO: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials (merge sorted exponent vectors)."""
    if not a:
        return b
    if not b:
        return a
    merged: dict[str, int] = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Does monomial ``a`` divide ``b``?"""
    exps = dict(b)
    return all(exps.get(var, 0) >= exp for var, exp in a)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """``a / b``; caller must ensure divisibility."""
    exps = dict(a)
    for var, exp in b:
        exps[var] -= exp
    return tuple(sorted((v, e) for v, e in exps.items() if e > 0))


class Poly:
    """An immutable sparse multivariate polynomial."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(value: Scalar) -> "Poly":
        frac = Fraction(value)
        if frac == 0:
            return _ZERO
        return Poly({_ONE_MONO: frac})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent in Poly.var")
        if exp == 0:
            return _ONE
        return Poly({((name, exp),): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(_ONE_MONO, Fraction(0))

    def variables(self) -> frozenset[str]:
        return frozenset(var for m in self.terms for var, _ in m)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        best = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > best:
                    best = e
        return best

    def monomials(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self.terms.items()))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def content(self) -> Fraction:
        """GCD of coefficients (positive), 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        from math import gcd

        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = (den * c.denominator) // gcd(den, c.denominator)
        return Fraction(num, den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = _coerce(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            new = terms.get(m, Fraction(0)) + c
            if new == 0:
                terms.pop(m, None)
            else:
                terms[m] = new
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                new = terms.get(m, Fraction(0)) + c1 * c2
                if new == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = new
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent on Poly; use RatFunc")
        result = _ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def scale(self, value: Scalar) -> "Poly":
        frac = Fraction(value)
        if frac == 0:
            return _ZERO
        return Poly({m: c * frac for m, c in self.terms.items()})

    # -- division ------------------------------------------------------------

    def divmod_exact(self, divisor: "Poly") -> "tuple[Poly, Poly] | None":
        """Multivariate reduction by leading-term division (graded-lex).

        Returns ``(quotient, remainder)`` with ``self == q * divisor + r``;
        this is plain monomial reduction, enough for the exact-division and
        cancellation checks used by :class:`~repro.algebra.ratfunc.RatFunc`.
        """
        if divisor.is_zero():
            return None
        lead_m, lead_c = max(divisor.terms.items(), key=lambda mc: (mono_degree(mc[0]), mc[0]))
        quotient = _ZERO
        remainder = self
        # Bounded loop: each step strictly removes the chosen monomial.
        for _ in range(len(self.terms) * (len(divisor.terms) + 1) + 16):
            if remainder.is_zero():
                break
            candidates = [(m, c) for m, c in remainder.terms.items() if mono_divides(lead_m, m)]
            if not candidates:
                break
            m, c = max(candidates, key=lambda mc: (mono_degree(mc[0]), mc[0]))
            factor = Poly({mono_div(m, lead_m): c / lead_c})
            quotient = quotient + factor
            remainder = remainder - factor * divisor
        return quotient, remainder

    def divides(self, other: "Poly") -> bool:
        result = other.divmod_exact(self)
        return result is not None and result[1].is_zero()

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        result = self.divmod_exact(divisor)
        if result is None or not result[1].is_zero():
            return None
        return result[0]

    # -- substitution & evaluation -------------------------------------------

    def substitute_poly(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Replace variables by polynomials."""
        if not any(v in mapping for v in self.variables()):
            return self
        result = _ZERO
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for var, exp in mono:
                base = mapping.get(var)
                term = term * (base**exp if base is not None else Poly.var(var, exp))
            result = result + term
        return result

    def evaluate(self, env: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                if var not in env:
                    raise KeyError(f"unbound variable {var!r} in Poly.evaluate")
                value *= Fraction(env[var]) ** exp
            total += value
        return total

    def coefficients_in(self, variables: frozenset[str]) -> dict[Monomial, "Poly"]:
        """View ``self`` as a polynomial in ``variables`` with polynomial
        coefficients over the remaining variables.

        Returns a map from monomial-in-``variables`` to coefficient
        polynomial.
        """
        result: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            inner = tuple((v, e) for v, e in mono if v in variables)
            outer = tuple((v, e) for v, e in mono if v not in variables)
            bucket = result.setdefault(inner, {})
            bucket[outer] = bucket.get(outer, Fraction(0)) + coeff
        return {m: Poly(terms) for m, terms in result.items()}

    # -- dunder plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda mc: (-mono_degree(mc[0]), mc[0])):
            factors = []
            if coeff != 1 or not mono:
                factors.append(str(coeff))
            for var, exp in mono:
                factors.append(var if exp == 1 else f"{var}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value: "Poly | Scalar") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


_ZERO = Poly({})
_ONE = Poly({_ONE_MONO: Fraction(1)})
