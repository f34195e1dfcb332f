"""Painted flag manifolds: root split, center of the isotropy, chamber tests.

A painting crosses a subset of simple nodes.  Roots supported only on the
uncrossed nodes form the isotropy root set R_o; the positive roots outside
R_o (written R_m+ below) index the complex tangent directions of the flag
manifold and fix its invariant complex structure.  The flag stores R_m+
alone.  The center z(k) of the isotropy is cut out by the vanishing of all
R_o evaluations, that is of the uncrossed coordinates; its default basis
here is the unit evaluation vector of each crossed node.  The vector h_V,
the sum of the Killing duals of R_m+, realizes the invariant Kaehler-Einstein
form of the flag manifold and lies strictly inside the positivity chamber:
alpha(h_V) > 0 for every alpha in R_m+.  The flag keeps the inverse of the
k x k crossed Killing Gram block, which gives h_V in z(k), and the distinct
restrictions of R_m+ to the crossed nodes, which give every margin on z(k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import DomainError, InputError
from .rootsys import Root, RootSystem, VectorH


@dataclass(frozen=True)
class Painting:
    """Set of crossed simple nodes, as 0-based global indices."""

    crossed: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = []
        for i in self.crossed:
            if not isinstance(i, int) or i < 0:
                raise InputError(f"crossed index {i!r} is not a nonnegative integer")
            if i not in seen:
                seen.append(i)
        object.__setattr__(self, "crossed", tuple(sorted(seen)))


@dataclass(frozen=True)
class FlagManifold:
    rs: RootSystem
    painting: Painting
    r_m_plus: tuple[Root, ...]
    zk_basis_default: tuple[VectorH, ...]
    h_V: VectorH
    _crossed_inverse: list[list[Fraction]] = field(repr=False, compare=False)
    # The distinct restrictions of R_m+ to the crossed nodes, and for each
    # root of R_m+ the index of its own restriction (_pair).
    _restrictions: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    _restriction_of: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def uncrossed(self) -> tuple[int, ...]:
        crossed = set(self.painting.crossed)
        return tuple(i for i in range(self.rs.rank) if i not in crossed)

    def in_zk(self, h: VectorH) -> bool:
        """Whether h lies in z(k), i.e. vanishes on every uncrossed node."""
        if len(h.coords) != self.rs.rank:
            raise InputError("rank mismatch")
        return all(h.coords[i] == 0 for i in self.uncrossed)


def build_flag(rs: RootSystem, painting: Painting) -> FlagManifold:
    """Split the root system along a painting and build the chamber data."""
    for i in painting.crossed:
        if i >= rs.rank:
            raise InputError(
                f"crossed index {i} out of range for total rank {rs.rank}"
            )
    crossed = painting.crossed
    r_m_plus = tuple(
        root for root in rs.positive_roots if any(root[i] for i in crossed)
    )
    basis = tuple(VectorH.unit(rs.rank, i) for i in crossed)
    total = [sum(root[j] for root in r_m_plus) for j in range(rs.rank)]
    # Weyl invariance of the R_m+ sum puts h_V in z(k): every row of the full
    # r x r system must hold, or the generation above is broken.
    _, inverse = _linalg.invert([[rs.gram[x][y] for y in crossed] for x in crossed])
    h = [sum((g * total[y] for g, y in zip(row, crossed)), Fraction(0)) for row in inverse]
    assert all(
        sum(row[y] * c for y, c in zip(crossed, h)) == t for row, t in zip(rs.gram, total)
    ), "h_V escaped z(k)"
    coords = dict(zip(crossed, h))
    restrictions: dict[tuple[int, ...], int] = {}
    restriction_of = tuple(
        restrictions.setdefault(tuple(root[x] for x in crossed), len(restrictions))
        for root in r_m_plus
    )
    h_v = VectorH(tuple(coords.get(i, 0) for i in range(rs.rank)))
    return FlagManifold(
        rs=rs,
        painting=painting,
        r_m_plus=r_m_plus,
        zk_basis_default=basis,
        h_V=h_v,
        _crossed_inverse=inverse,
        _restrictions=tuple(restrictions),
        _restriction_of=restriction_of,
    )


def chamber_margins(
    flag: FlagManifold, h: VectorH
) -> tuple[tuple[Root, Fraction], ...]:
    """Each root alpha of R_m+ with its evaluation alpha(h), in R_m+ order.

    h must lie in z(k); membership in the chamber means every returned
    value is strictly positive.  h vanishes on the uncrossed nodes, so
    only its crossed coordinates pair (_pair).
    """
    _require_zk(flag, h)
    values = _pair(flag, [h.coords[x] for x in flag.painting.crossed])
    return tuple(zip(flag.r_m_plus, values))


def _pair(flag: FlagManifold, h: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """alpha(h) for every alpha in R_m+, in R_m+ order, from the crossed
    coordinates of h in z(k).

    alpha(h) depends on alpha only through its restriction to the crossed
    nodes, so each distinct restriction is paired with h once and every
    root reads its margin from its restriction's value.
    """
    values = [
        sum((n * c for n, c in zip(row, h) if n), Fraction(0))
        for row in flag._restrictions
    ]
    return tuple(map(values.__getitem__, flag._restriction_of))


def in_chamber(flag: FlagManifold, h: VectorH) -> bool:
    """Whether alpha(h) > 0 for every alpha in R_m+, for h in z(k).

    Decided on the k crossed simple roots alone.  On z(k) only the crossed
    coordinates of h can be nonzero, so alpha(h) = sum_x n_x(alpha) h_x
    over the crossed nodes x, where h_x = h.coords[x] and the integers
    n_x(alpha) >= 0 are the root's coefficients, at least one of them
    positive for alpha in R_m+.  Each crossed simple root alpha_x lies in
    R_m+ and alpha_x(h) = h_x.  So every margin of chamber_margins is
    positive iff every crossed coordinate of h is: the positivity on z(k)
    read through its restricted roots.
    """
    _require_zk(flag, h)
    return all(h.coords[x] > 0 for x in flag.painting.crossed)


def _require_zk(flag: FlagManifold, h: VectorH) -> None:
    if not flag.in_zk(h):
        raise DomainError("h is not in z(k): nonzero evaluation on an uncrossed node")
