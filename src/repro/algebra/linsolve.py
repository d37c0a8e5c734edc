"""Exact linear algebra over the rationals.

Two consumers inside the synthesizer:

* power-sum rewriting (:mod:`repro.algebra.symmetric`) solves for a
  representation of a symmetric polynomial in a power-sum basis;
* template solving (:mod:`repro.core.templates`) takes nullspaces: of the
  per-length sample systems of Algorithm 6, which pin each coefficient
  vector up to scale, and of the joint projective interpolation system.

Elimination is fraction-free.  Each row's denominators are cleared once;
Gauss–Jordan then runs over Python integers by cross-multiplication, and
each updated row is divided by the gcd of its entries to keep them small.
``Fraction`` entries are built only at the end, by dividing each pivot row
by its pivot.  The reduced row-echelon form is unique, so the result equals
Gauss–Jordan over ``Fraction``, without normalizing a fraction after every
arithmetic step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """``row`` scaled by the lcm of its denominators and divided by the gcd
    of the result: a primitive integer row spanning the same line.

    Contents fold pairwise (``reduce``), not as ``gcd(*row)``: a star call
    builds a tuple per row, and tuples of every row length fragmented the
    allocator enough to add ~1 MB peak RSS to a synthesis-suite pass."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = reduce(lcm, (v.denominator for v in values), 1)
    ints = [v.numerator * (scale // v.denominator) for v in values]
    content = reduce(gcd, ints, 0)
    return [x // content for x in ints] if content > 1 else ints


def _eliminate(rows: list[list[int]]) -> list[int]:
    """Integer Gauss–Jordan elimination of ``rows`` in place.

    Returns the pivot columns; row ``i`` then holds the pivot for column
    ``pivots[i]`` and is zero in every other pivot column, and the rows after
    the last pivot row are zero."""
    if not rows:
        return []
    n_rows, cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        for i in range(n_rows):
            f = rows[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(rows[i], pivot)]
            content = reduce(gcd, new, 0)
            rows[i] = [x // content for x in new] if content > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def rref(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref, pivot column indices).

    All rows are kept: the pivot rows in pivot order, then the zero rows."""
    if not matrix:
        return [], []
    rows = [_integer_row(row) for row in matrix]
    pivots = _eliminate(rows)
    cols = len(rows[0])
    zero = Fraction(0)
    reduced: Matrix = []
    for row, c in zip(rows, pivots):
        p = row[c]
        reduced.append([Fraction(x, p) if x else zero for x in row])
    reduced.extend([zero] * cols for _ in range(len(rows) - len(pivots)))
    return reduced, pivots


def solve(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> Vector | None:
    """Solve ``A x = b`` exactly.

    Returns one solution (free variables set to 0) or ``None`` when the
    system is inconsistent.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    solution = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        if c == cols:  # pivot in the RHS column -> inconsistent (caught above)
            return None
        solution[c] = reduced[i][-1]
    return solution


def nullspace(matrix: Sequence[Sequence[Fraction | int]]) -> list[Vector]:
    """Basis of the (right) nullspace of ``A``: one vector per free column,
    1 there and 0 at the other free columns."""
    if not matrix:
        return []
    cols = len(matrix[0])
    rows = [_integer_row(row) for row in matrix]
    pivots = _eliminate(rows)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = Fraction(-row[free], row[c])
        basis.append(vec)
    return basis
