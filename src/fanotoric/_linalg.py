"""Exact dense linear algebra over rationals, for small systems."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction | int]


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


def matrix_rank(rows: Sequence[Row]) -> int:
    return _reduce(rows)[1]


def invert(rows: Sequence[Row]) -> tuple[Fraction, list[list[Fraction]]]:
    """Determinant and inverse rows of a square matrix; no rows when singular."""
    n = len(rows)
    a, rank, det = _reduce(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    return (det, [row[n:] for row in a]) if rank == n else (Fraction(0), [])
