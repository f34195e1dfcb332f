"""Properties of the exact elimination kernel against brute-force references."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanotoric._linalg import (
    RankDeficiencyError,
    determinant,
    invert,
    matrix_rank,
    solve_consistent,
    solve_square,
)

ENTRY = st.integers(-3, 3)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


# Entries in [-3, 3] make singular matrices and dependent columns common.
square = st.integers(0, 4).flatmap(lambda n: matrices(n, n))
small = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: matrices(*s))
tall = st.tuples(st.integers(1, 3), st.integers(0, 2)).flatmap(
    lambda s: matrices(s[0] + s[1], s[0])
)


def cofactor_det(a):
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def minor_rank(a):
    m, n = len(a), len(a[0])
    for size in range(min(m, n), 0, -1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                if cofactor_det([[a[i][j] for j in cols] for i in rows]):
                    return size
    return 0


def mul(a, x):
    return [sum((Fraction(c) * v for c, v in zip(row, x)), Fraction(0)) for row in a]


@given(square)
def test_determinant_equals_cofactor_expansion(a):
    assert determinant(a) == cofactor_det(a)


@given(square)
def test_invert_gives_the_determinant_and_the_inverse_or_no_rows(a):
    det, inverse = invert(a)
    assert det == determinant(a)
    if det:
        identity = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        assert [mul(a, col) for col in zip(*inverse)] == identity
    else:
        assert inverse == []


@given(small)
def test_rank_is_the_largest_nonzero_minor(a):
    assert matrix_rank(a) == minor_rank(a)


@given(square, st.lists(ENTRY, min_size=4, max_size=4))
def test_solve_square_solves_or_reports_singular(a, b):
    b = b[: len(a)]
    if cofactor_det(a) == 0:
        with pytest.raises(RankDeficiencyError):
            solve_square(a, b)
    else:
        assert mul(a, solve_square(a, b)) == b


@given(tall, st.lists(ENTRY, min_size=5, max_size=5))
def test_solve_consistent_solves_or_returns_none(a, b):
    b = b[: len(a)]
    n = len(a[0])
    if minor_rank(a) < n:
        with pytest.raises(RankDeficiencyError):
            solve_consistent(a, b)
    elif minor_rank([row + [y] for row, y in zip(a, b)]) > n:
        assert solve_consistent(a, b) is None
    else:
        assert mul(a, solve_consistent(a, b)) == b


@given(tall, st.lists(ENTRY, min_size=3, max_size=3))
def test_consistent_right_hand_sides_are_solved(a, x):
    n = len(a[0])
    b = mul(a, x[:n])
    if minor_rank(a) == n:
        assert mul(a, solve_consistent(a, b)) == b


@given(st.integers(1, 3).flatmap(lambda n: matrices(n + 1, n)), st.data())
def test_dependent_columns_raise(rows, data):
    # Replace the last column by a combination of the others.
    n = len(rows[0])
    coeffs = data.draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    a = [row[:-1] + [sum(c * v for c, v in zip(coeffs, row))] for row in rows]
    b = [1] * len(a)
    with pytest.raises(RankDeficiencyError):
        solve_consistent(a, b)
    with pytest.raises(RankDeficiencyError):
        solve_square(a[:n], b[:n])
