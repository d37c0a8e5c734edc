"""Rewriting symmetric polynomials in Newton power sums.

``MineExpressions`` (Algorithm 4) unrolls the RFS on a symbolic list
``[x1, ..., xk]``.  The resulting equations are polynomials in the element
variables, and — because folds of commutative accumulators are order-
insensitive — symmetric in them.  The only way the offline program can
observe the list is through quantities like ``Σ xi`` and ``Σ xi^2``; hence a
symmetric equation system can be re-expressed over the power sums
``p_d = Σ_i xi^d``, after which the element variables are gone and ordinary
*linear* elimination applies (this replaces the real quantifier elimination
REDUCE performs for the paper).

The rewrite is exact: we solve, over the rationals, for a representation of
each elem-variable coefficient polynomial in the basis of power-sum products
up to the appropriate degree, and fail (return ``None``) when the polynomial
is not symmetric or not expressible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .linsolve import solve
from .polynomial import Monomial, Poly, mono_mul
from .ratfunc import RatFunc

#: Default variable names for power sums; ``PSUM_PREFIX + str(d)`` is
#: ``Σ_i xi^d`` over the *previous* stream elements.
PSUM_PREFIX = "_p"


def psum_name(d: int) -> str:
    return f"{PSUM_PREFIX}{d}"


@lru_cache(maxsize=None)
def _partitions(total: int) -> tuple[tuple[int, ...], ...]:
    """All integer partitions of ``total`` (parts in non-increasing order)."""
    if total == 0:
        return ((),)
    result: list[tuple[int, ...]] = []

    def recurse(remaining: int, max_part: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            result.append(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            recurse(remaining - part, part, acc + (part,))

    recurse(total, total, ())
    return tuple(result)


def power_sum_basis(max_degree: int) -> list[tuple[int, ...]]:
    """All power-sum products of total degree <= ``max_degree``.

    Each element is a partition ``(d1 >= d2 >= ...)`` denoting the product
    ``p_{d1} * p_{d2} * ...``; the empty partition is the constant 1.
    """
    basis: list[tuple[int, ...]] = []
    for total in range(max_degree + 1):
        basis.extend(_partitions(total))
    return basis


def expand_power_sum(d: int, elem_vars: Sequence[str]) -> Poly:
    """``p_d`` expanded over concrete element variables."""
    return Poly({((v, d),): Fraction(1) for v in elem_vars})


def _expand_partition(partition: tuple[int, ...], elem_vars: Sequence[str]) -> Poly:
    result = Poly.one()
    for d in partition:
        result = result * expand_power_sum(d, elem_vars)
    return result


def _partition_monomial(partition: tuple[int, ...]) -> Monomial:
    mono: Monomial = ()
    for d in partition:
        mono = mono_mul(mono, ((psum_name(d), 1),))
    return mono


def rewrite_symmetric(poly: Poly, elem_vars: Sequence[str]) -> Poly | None:
    """Rewrite ``poly`` (over ``elem_vars`` and arbitrary other variables)
    into a polynomial over power sums ``p_1, p_2, ...`` and the other
    variables.

    Returns ``None`` when some coefficient polynomial in the element
    variables is not expressible in power sums (e.g. the polynomial is not
    symmetric).
    """
    elem_set = frozenset(elem_vars)
    if not (poly.variables() & elem_set):
        return poly

    # Group terms by their non-element monomial part.
    buckets = poly.coefficients_in(elem_set)
    # buckets: inner (elem) monomial -> coefficient Poly over other vars.
    # Regroup: outer monomial -> Poly over elem vars.
    regrouped: dict[Monomial, dict[Monomial, Fraction]] = {}
    for inner, coeff_poly in buckets.items():
        for outer, coeff in coeff_poly.terms.items():
            regrouped.setdefault(outer, {})[inner] = coeff

    result = Poly.zero()
    for outer, inner_terms in regrouped.items():
        elem_poly = Poly(inner_terms)
        rewritten = _rewrite_pure(elem_poly, tuple(elem_vars))
        if rewritten is None:
            return None
        result = result + rewritten * Poly({outer: Fraction(1)})
    return result


def _rewrite_pure(poly: Poly, elem_vars: tuple[str, ...]) -> Poly | None:
    """Rewrite a polynomial purely over element variables into power sums."""
    degree = poly.degree()
    basis = power_sum_basis(degree)
    expansions = [_expand_partition(b, elem_vars) for b in basis]

    # Column space: all monomials over elem_vars seen anywhere.
    monomials: dict[Monomial, int] = {}
    for expansion in expansions:
        for mono in expansion.terms:
            monomials.setdefault(mono, len(monomials))
    for mono in poly.terms:
        monomials.setdefault(mono, len(monomials))

    rows = len(monomials)
    cols = len(basis)
    matrix = [[Fraction(0)] * cols for _ in range(rows)]
    rhs = [Fraction(0)] * rows
    for j, expansion in enumerate(expansions):
        for mono, coeff in expansion.terms.items():
            matrix[monomials[mono]][j] = coeff
    for mono, coeff in poly.terms.items():
        rhs[monomials[mono]] = coeff

    coeffs = solve(matrix, rhs)
    if coeffs is None:
        return None
    result = Poly.zero()
    for b, c in zip(basis, coeffs):
        if c != 0:
            result = result + Poly({_partition_monomial(b): c})
    return result


def rewrite_symmetric_ratfunc(term: RatFunc, elem_vars: Sequence[str]) -> RatFunc | None:
    num = rewrite_symmetric(term.num, elem_vars)
    den = rewrite_symmetric(term.den, elem_vars)
    if num is None or den is None:
        return None
    if den.is_zero():
        return None
    return RatFunc(num, den)
