"""Painted flag manifolds: root split, center of the isotropy, chamber tests.

A painting crosses a subset of simple nodes.  Roots supported only on the
uncrossed nodes form the isotropy root set R_o; the positive roots outside
R_o (written R_m+ below) index the complex tangent directions of the flag
manifold and fix its invariant complex structure.  The center z(k) of the
isotropy is cut out by the vanishing of all R_o evaluations; its default
basis here is the unit evaluation vector of each crossed node.  The vector
h_V, the sum of the Killing duals of R_m+, realizes the invariant
Kaehler-Einstein form of the flag manifold and lies strictly inside the
positivity chamber: alpha(h_V) > 0 for every alpha in R_m+.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import DomainError, InputError
from .rootsys import FunctionalH, Root, RootSystem, VectorH, killing_dual


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
    r_o: tuple[Root, ...]
    r_m_plus: tuple[Root, ...]
    zk_basis_default: tuple[VectorH, ...]
    h_V: VectorH

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
    r_o = tuple(
        root for root in rs.roots if all(root[i] == 0 for i in crossed)
    )
    r_m_plus = tuple(
        root
        for root, pos in zip(rs.roots, rs.positive)
        if pos and any(root[i] != 0 for i in crossed)
    )
    basis = tuple(VectorH.unit(rs.rank, i) for i in crossed)
    total = [0] * rs.rank
    for root in r_m_plus:
        for j, c in enumerate(root):
            total[j] += c
    h_v = killing_dual(rs, FunctionalH(tuple(Fraction(c) for c in total)))
    # Weyl invariance of the R_m+ sum forces h_V into z(k); a failure here
    # would mean the generation above is broken.
    crossed_set = set(crossed)
    assert all(
        h_v.coords[i] == 0 for i in range(rs.rank) if i not in crossed_set
    ), "h_V escaped z(k)"
    return FlagManifold(
        rs=rs,
        painting=painting,
        r_o=r_o,
        r_m_plus=r_m_plus,
        zk_basis_default=basis,
        h_V=h_v,
    )


def chamber_margins(
    flag: FlagManifold, h: VectorH
) -> tuple[tuple[Root, Fraction], ...]:
    """Evaluations alpha(h) for every alpha in R_m+, in root order.

    h must lie in z(k); membership in the chamber means every returned
    value is strictly positive.
    """
    if not flag.in_zk(h):
        raise DomainError("h is not in z(k): nonzero evaluation on an uncrossed node")
    coords = h.coords
    return tuple(
        (root, sum((c * coords[i] for i, c in enumerate(root) if c), Fraction(0)))
        for root in flag.r_m_plus
    )


def in_chamber(flag: FlagManifold, h: VectorH) -> bool:
    return all(value > 0 for _, value in chamber_margins(flag, h))


def express_in_zk(
    flag: FlagManifold, h: VectorH, basis: Sequence[VectorH]
) -> tuple[Fraction, ...]:
    """Coefficients of h over a declared basis of z(k), exact."""
    if not basis:
        raise InputError("empty basis")
    for b in basis:
        if not flag.in_zk(b):
            raise DomainError("basis vector is not in z(k)")
    if not flag.in_zk(h):
        raise DomainError("h is outside the span of the basis")
    crossed = flag.painting.crossed
    rows = [[b.coords[i] for b in basis] for i in crossed]
    rhs = [h.coords[i] for i in crossed]
    try:
        coeffs = _linalg.solve_consistent(rows, rhs)
    except _linalg.RankDeficiencyError:
        raise InputError("dependent basis") from None
    if coeffs is None:
        raise DomainError("h is outside the span of the basis")
    return coeffs
