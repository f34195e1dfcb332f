"""Exact dense linear algebra over rationals, for small systems."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction | int]


class RankDeficiencyError(ArithmeticError):
    """The coefficient columns are linearly dependent."""


def _reduce(
    rows: Sequence[Row], rhs: Sequence[Row] = ()
) -> tuple[list[list[Fraction]], int, Fraction]:
    """Gauss-Jordan reduction to reduced row echelon form.

    rhs is a block of right-hand-side columns that ride along after the
    coefficient columns and are never chosen as pivots.  Returns the
    reduced rows, the rank and the product of the pivots signed by the row
    swaps (the determinant when square and of full rank).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [
        [Fraction(x) for x in row] + [Fraction(c[i]) for c in rhs]
        for i, row in enumerate(rows)
    ]
    rank = 0
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        inv = a[rank][col]
        det *= inv
        a[rank] = [x / inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a, rank, det


def solve_square(rows: Sequence[Row], rhs: Row) -> tuple[Fraction, ...]:
    """Solve a nonsingular square system by Gauss-Jordan elimination."""
    n = len(rows)
    a, rank, _ = _reduce(rows, (rhs,))
    if rank < n:
        raise RankDeficiencyError("singular matrix")
    return tuple(a[i][n] for i in range(n))


def solve_consistent(rows: Sequence[Row], rhs: Row) -> tuple[Fraction, ...] | None:
    """Solve a tall system with independent columns exactly.

    Returns None when the system is inconsistent; raises
    RankDeficiencyError when the columns are dependent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a, rank, _ = _reduce(rows, (rhs,))
    if rank < n:
        raise RankDeficiencyError("dependent columns")
    if any(a[i][n] != 0 for i in range(n, m)):
        return None
    return tuple(a[i][n] for i in range(n))


def matrix_rank(rows: Sequence[Row]) -> int:
    return _reduce(rows)[1]


def determinant(rows: Sequence[Row]) -> Fraction:
    _, rank, det = _reduce(rows)
    return det if rank == len(rows) else Fraction(0)


def invert(rows: Sequence[Row]) -> tuple[Fraction, list[list[Fraction]]]:
    """Determinant and inverse rows of a square matrix; no rows when singular."""
    n = len(rows)
    a, rank, det = _reduce(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    return (det, [row[n:] for row in a]) if rank == n else (Fraction(0), [])
