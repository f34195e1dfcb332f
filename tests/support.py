"""Shared builders for the worked bundle families used across the tests."""

from __future__ import annotations

from fractions import Fraction

from fanotoric import (
    Fan,
    FanoVerdict,
    FlagManifold,
    Painting,
    SimpleType,
    TauMap,
    VectorH,
    build_flag,
    build_root_system,
)


def hirzebruch_flag() -> FlagManifold:
    rs = build_root_system([SimpleType("A", 1)])
    return build_flag(rs, Painting((0,)))


def hirzebruch_tau(n) -> TauMap:
    # Basis Y is the real avatar of diag(i, -i): evaluation coordinate -2.
    return TauMap(((Fraction(n),),), (VectorH((Fraction(-2),)),))


def so4n_flag_tau(n: int, scale=None) -> tuple[FlagManifold, TauMap]:
    """The SO(4n)/U(n)xU(n) family with its {E1, E2} basis.

    tau is scale * Id on {E1, E2}; the classical choice is scale = 3n.
    n = 1 needs the rank-2 case D_2, entered as A1 + A1.
    """
    if scale is None:
        scale = 3 * n
    if n == 1:
        rs = build_root_system([SimpleType("A", 1), SimpleType("A", 1)])
        flag = build_flag(rs, Painting((0, 1)))
        e1 = VectorH((Fraction(-1), Fraction(1)))
        e2 = VectorH((Fraction(1), Fraction(1)))
    else:
        rs = build_root_system([SimpleType("D", 2 * n)])
        flag = build_flag(rs, Painting((n - 1, 2 * n - 1)))
        e1 = VectorH(
            tuple(Fraction(1 if i == n - 1 else 0) for i in range(2 * n))
        )
        e2 = VectorH(
            tuple(
                Fraction(-1 if i == n - 1 else (2 if i == 2 * n - 1 else 0))
                for i in range(2 * n)
            )
        )
    s = Fraction(scale)
    tau = TauMap(((s, Fraction(0)), (Fraction(0), s)), (e1, e2))
    return flag, tau


def hirzebruch_surface_fan(n: int) -> Fan:
    return Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, n), (0, -1)),
        max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
    )


def del_pezzo_blowup_fan() -> Fan:
    """CP^2 blown up at one torus fixed point."""
    return Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, -1), (1, 1)),
        max_cones=((0, 3), (1, 3), (1, 2), (0, 2)),
    )


def margin_entries(flag: FlagManifold, verdict: FanoVerdict):
    """Each cell of verdict.margins as (vertex_index, root, value).

    Row i of the table is polytope vertex i and column j is flag.r_m_plus[j];
    a row of any other length fails the strict zip.
    """
    for vi, row in enumerate(verdict.margins):
        for root, value in zip(flag.r_m_plus, row, strict=True):
            yield vi, root, value
