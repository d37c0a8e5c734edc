"""Tests for exact linear algebra."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.linsolve import nullspace, rref, solve

F = Fraction


class TestSolve:
    def test_identity(self):
        assert solve([[1, 0], [0, 1]], [3, 4]) == [F(3), F(4)]

    def test_fractions(self):
        # 2x + y = 5; x - y = 1  ->  x = 2, y = 1
        assert solve([[2, 1], [1, -1]], [5, 1]) == [F(2), F(1)]

    def test_inconsistent_returns_none(self):
        assert solve([[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_picks_particular(self):
        sol = solve([[1, 1]], [2])
        assert sol is not None
        assert sol[0] + sol[1] == 2

    def test_empty(self):
        assert solve([], []) == []

    def test_rectangular_tall(self):
        # Overdetermined but consistent.
        sol = solve([[1], [2], [3]], [2, 4, 6])
        assert sol == [F(2)]


class TestNullspace:
    def test_full_rank_trivial(self):
        assert nullspace([[1, 0], [0, 1]]) == []

    def test_one_dimensional(self):
        basis = nullspace([[1, -1]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == v[1] != 0

    def test_orthogonality(self):
        matrix = [[2, 1, -1], [1, 0, 1]]
        for vec in nullspace(matrix):
            for row in matrix:
                assert sum(F(a) * b for a, b in zip(row, vec)) == 0

    def test_rank_nullity(self):
        matrix = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert len(rref(matrix)[1]) + len(nullspace(matrix)) == 3


class TestRref:
    def test_pivots(self):
        reduced, pivots = rref([[0, 1], [1, 0]])
        assert pivots == [0, 1]
        assert reduced == [[F(1), F(0)], [F(0), F(1)]]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_rref_idempotent(self, rows):
        reduced, _ = rref(rows)
        again, _ = rref(reduced)
        assert again == reduced


# -- reference: Gauss–Jordan over Fraction ------------------------------------


def reference_rref(matrix):
    """Textbook Gauss–Jordan over ``Fraction``, the elimination ``rref``
    used before it became fraction-free."""
    m = [[F(x) for x in row] for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_nullspace(matrix):
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = reference_rref(matrix)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [F(0)] * cols
        vec[free] = F(1)
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][free]
        basis.append(vec)
    return basis


def reference_solve(matrix, rhs):
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = reference_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in reduced):
        return None
    solution = [F(0)] * cols
    for i, c in enumerate(pivots):
        solution[c] = reduced[i][-1]
    return solution


small = st.integers(-6, 6)
rationals = st.one_of(
    small,
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
big_rationals = st.builds(
    F, st.integers(-(10**15), 10**15), st.integers(1, 10**12)
)


def matrices(entries, max_rows=6, max_cols=6):
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=max_rows
        )
    )


@st.composite
def rank_deficient(draw):
    """Base rows plus duplicates and integer/rational combinations of them."""
    base = draw(matrices(rationals, max_rows=3))
    rows = [list(row) for row in base]
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        s, t = draw(rationals), draw(rationals)
        rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@st.composite
def with_zero_lines(draw):
    """Matrices with inserted all-zero rows and all-zero columns."""
    rows = [list(row) for row in draw(matrices(rationals, max_rows=4, max_cols=4))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(at, 0)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


@st.composite
def projective_blocks(draw):
    """The system ``_projective_fits`` solves: per length ``l`` and position
    ``j``, Vandermonde powers of ``l`` in ``j``'s coefficient block and
    ``-alpha_j(l)`` in ``l``'s scale column."""
    unknowns = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 2))
    lengths = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=5)))
    n_coeffs = unknowns * (degree + 1)
    rows = []
    for li, length in enumerate(lengths):
        alpha = draw(st.lists(rationals, min_size=unknowns, max_size=unknowns))
        for j in range(unknowns):
            row = [F(0)] * (n_coeffs + len(lengths))
            for d in range(degree + 1):
                row[j * (degree + 1) + d] = F(length) ** d
            row[n_coeffs + li] = -F(alpha[j])
            rows.append(row)
    return rows


any_matrix = st.one_of(
    matrices(rationals),
    rank_deficient(),
    with_zero_lines(),
    matrices(st.one_of(small, big_rationals), max_rows=5, max_cols=5),
    projective_blocks(),
)


class TestAgainstFractionGaussJordan:
    """The fraction-free elimination returns exactly what Gauss–Jordan over
    ``Fraction`` returns (the reduced row-echelon form is unique)."""

    @settings(max_examples=200, deadline=None)
    @given(any_matrix)
    def test_rref_nullspace_rank(self, matrix):
        expected_rows, expected_pivots = reference_rref(matrix)
        reduced, pivots = rref(matrix)
        assert pivots == expected_pivots
        assert reduced == expected_rows
        assert all(type(x) is F for row in reduced for x in row)
        assert nullspace(matrix) == reference_nullspace(matrix)

    @settings(max_examples=100, deadline=None)
    @given(any_matrix, st.data())
    def test_solve(self, matrix, data):
        rhs = data.draw(st.lists(rationals, min_size=len(matrix), max_size=len(matrix)))
        assert solve(matrix, rhs) == reference_solve(matrix, rhs)

    def test_inputs_are_not_mutated(self):
        matrix = [[F(1, 2), 2], [3, F(-4, 3)]]
        snapshot = [list(row) for row in matrix]
        rref(matrix)
        nullspace(matrix)
        assert matrix == snapshot
