"""Properties of the exact elimination kernel against brute-force references."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from fanotoric._linalg import invert, matrix_rank
from oracles import cofactor_det, minor_rank

ENTRY = st.integers(-3, 3)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


# Entries in [-3, 3] make singular matrices and rank deficiency common.
square = st.integers(0, 4).flatmap(lambda n: matrices(n, n))
small = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: matrices(*s))


def mul(a, x):
    return [sum((Fraction(c) * v for c, v in zip(row, x)), Fraction(0)) for row in a]


@given(square)
def test_determinant_equals_cofactor_expansion(a):
    assert invert(a)[0] == cofactor_det(a)


@given(square)
def test_invert_gives_the_determinant_and_the_inverse_or_no_rows(a):
    det, inverse = invert(a)
    assert det == cofactor_det(a)
    if det:
        identity = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        assert [mul(a, col) for col in zip(*inverse)] == identity
    else:
        assert inverse == []


@given(small)
def test_rank_is_the_largest_nonzero_minor(a):
    assert matrix_rank(a) == minor_rank(a)
