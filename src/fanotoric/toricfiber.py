"""Toric fibers as fans: validation, Fano test, canonical polytope.

A fan is given by its primitive ray generators in the cocharacter lattice
and by its maximal cones as ray-index sets.  The canonical polytope is
computed from torus fixed points only: at the fixed point of a maximal
cone the tangent isotropy weights are the dual basis of the cone's rays,
and the associated vertex is minus their sum.  Equivalently it is the
support vector u with <u, ray> = -1 on the cone, so for a Fano fan the
vertex set coincides with the vertex set of {u : <u, ray> >= -1 for all
rays}.  The lattice identification is fixed so that a cocharacter v acts
on a weight-a coordinate as multiplication by exp(i a(v) t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _linalg
from .errors import DomainError, InputError

Ray = tuple[int, ...]
Cone = tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """Rays plus maximal cones; structural soundness is enforced here."""

    dim: int
    rays: tuple[Ray, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 0:
            raise InputError(f"fan dimension must be a nonnegative integer, got {self.dim!r}")
        rays = tuple(tuple(r) for r in self.rays)
        for idx, ray in enumerate(rays):
            if len(ray) != self.dim:
                raise InputError(f"ray {idx} has length {len(ray)}, expected {self.dim}")
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in ray):
                raise InputError(f"ray {idx} has non-integer entries")
            g = 0
            for c in ray:
                g = gcd(g, abs(c))
            if g != 1:
                raise InputError(f"ray {idx} is not primitive")
        if len(set(rays)) != len(rays):
            raise InputError("duplicate ray")
        cones = []
        for cidx, cone in enumerate(self.max_cones):
            cone = tuple(sorted(cone))
            if len(cone) != self.dim:
                raise InputError(
                    f"cone {cidx} has {len(cone)} rays, expected {self.dim}"
                )
            if len(set(cone)) != len(cone):
                raise InputError(f"cone {cidx} repeats a ray index")
            for i in cone:
                if not isinstance(i, int) or i < 0 or i >= len(rays):
                    raise InputError(f"cone {cidx}: ray index {i!r} out of range")
            cones.append(cone)
        if len(set(cones)) != len(cones):
            raise InputError("duplicate cone")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", tuple(cones))


@dataclass(frozen=True)
class FanDiagnostics:
    """Fan structure; fano and polytope are None unless smooth and complete."""

    smooth: bool
    complete: bool
    effective: bool
    non_unimodular_cones: tuple[int, ...]
    facet_defects: int
    fano: bool | None
    polytope: Polytope | None


@dataclass(frozen=True)
class Polytope:
    """Rational vertices in the dual lattice, tagged by producing cone."""

    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]
    cones: tuple[Cone, ...]


def _dot(u: tuple[Fraction, ...], ray: Ray) -> Fraction:
    return sum((x * c for x, c in zip(u, ray) if c), Fraction(0))


def _spans_lattice(fan: Fan) -> bool:
    """Whether the rays generate the full cocharacter lattice over Z."""
    if fan.dim == 0:
        return True
    rows = [list(r) for r in fan.rays]
    m, n = len(rows), fan.dim
    rank = 0
    pivots: list[int] = []
    for col in range(n):
        while True:
            live = [i for i in range(rank, m) if rows[i][col] != 0]
            if not live:
                break
            live.sort(key=lambda i: abs(rows[i][col]))
            base = live[0]
            done = True
            for i in live[1:]:
                q = rows[i][col] // rows[base][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
                if rows[i][col] != 0:
                    done = False
            if done:
                rows[rank], rows[base] = rows[base], rows[rank]
                pivots.append(abs(rows[rank][col]))
                rank += 1
                break
    if rank < n:
        return False
    index = 1
    for p in pivots:
        index *= p
    return index == 1


def _covers_once(fan: Fan, inverses: list[tuple[Fraction, list]]) -> bool:
    """Whether a generic point lies in exactly one maximal cone.

    Called for dim >= 1 once every facet joins two cones of nonzero
    determinant from opposite sides: such cones cover every generic point
    equally often.  The sum p of the first cone's rays lies inside it, so
    the cones cover once iff no other closed cone holds p, as one that did
    would overlap the first near p.  p lies in a closed cone iff it pairs to
    >= 0 with each vector of the dual basis: the columns of the cone's inverse.
    """
    p = [sum(c) for c in zip(*(fan.rays[i] for i in fan.max_cones[0]))]
    return not any(min(_dot(d, p) for d in zip(*inv)) >= 0 for _, inv in inverses[1:])


def validate_fan(fan: Fan) -> FanDiagnostics:
    """Report smoothness, completeness and effectiveness of a fan.

    Complete means the cones tile R^dim: every facet lies in exactly two
    maximal cones, on opposite sides of its hyperplane, and a generic point
    lies in exactly one cone.  Dropping ray i from a cone leaves a facet;
    the ray lies on the side (-1)^i det(cone) of it, oriented by the facet's
    rays in order.  A smooth complete fan also gets its canonical polytope,
    one vertex per maximal cone, and its Fano flag: the anticanonical
    support function is strictly convex when every ray off a cone pairs to
    more than -1 with that cone's vertex.  Each cone's ray matrix is inverted
    once, for its determinant, its dual basis and its vertex.
    """
    inverses = [_linalg.invert([fan.rays[i] for i in cone]) for cone in fan.max_cones]
    bad = tuple(idx for idx, (det, _) in enumerate(inverses) if abs(det) != 1)
    sides: dict[Cone, list[Fraction]] = {}
    for cone, (det, _) in zip(fan.max_cones, inverses):
        for i in range(fan.dim):
            sides.setdefault(cone[:i] + cone[i + 1 :], []).append((-1) ** i * det)
    defects = sum(1 for v in sides.values() if len(v) != 2)
    complete = (
        bool(fan.max_cones)
        and defects == 0
        and all(a * b < 0 for a, b in sides.values())
        and (fan.dim == 0 or _covers_once(fan, inverses))
    )
    fano = polytope = None
    if not bad and complete:
        # Minus the sum of the dual basis: minus the row sums of the inverse.
        vertices = tuple(tuple(-sum(row) for row in inv) for _, inv in inverses)
        fano = all(
            _dot(u, ray) > -1
            for u, cone in zip(vertices, fan.max_cones)
            for ridx, ray in enumerate(fan.rays)
            if ridx not in cone
        )
        polytope = Polytope(dim=fan.dim, vertices=vertices, cones=fan.max_cones)
    return FanDiagnostics(
        smooth=not bad,
        complete=complete,
        effective=_spans_lattice(fan),
        non_unimodular_cones=bad,
        facet_defects=defects,
        fano=fano,
        polytope=polytope,
    )


def _require_smooth_complete(fan: Fan) -> FanDiagnostics:
    diag = validate_fan(fan)
    if not diag.smooth:
        raise DomainError(
            f"fan is not smooth: non-unimodular cones {diag.non_unimodular_cones}"
        )
    if not diag.complete:
        raise DomainError("fan is not complete")
    return diag


def is_fano(fan: Fan) -> bool:
    """Strict convexity of the anticanonical support function."""
    return _require_smooth_complete(fan).fano


def canonical_polytope(fan: Fan) -> Polytope:
    """One vertex per maximal cone: minus the sum of its dual ray basis.

    When the fan is Fano the convex hull equals
    {u : <u, ray> >= -1 for every ray} and contains 0 strictly inside.
    """
    return _require_smooth_complete(fan).polytope


def projective_space(m: int) -> Fan:
    """The standard fan of m-dimensional complex projective space."""
    if not isinstance(m, int) or m < 1:
        raise InputError(f"projective space dimension must be >= 1, got {m!r}")
    rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rays.append(tuple(-1 for _ in range(m)))
    cones = [tuple(range(m))]
    for r in range(1, m + 1):
        cones.append(tuple(sorted(set(range(m)) - {r - 1} | {m})))
    return Fan(dim=m, rays=tuple(rays), max_cones=tuple(cones))


def point_fan() -> Fan:
    """The rank-0 fan of a point."""
    return Fan(dim=0, rays=(), max_cones=((),))


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan on the direct sum of the two cocharacter lattices."""
    z1 = (0,) * f1.dim
    z2 = (0,) * f2.dim
    rays = tuple(r + z2 for r in f1.rays) + tuple(z1 + r for r in f2.rays)
    shift = len(f1.rays)
    cones = tuple(
        tuple(sorted(c1 + tuple(i + shift for i in c2)))
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    )
    return Fan(dim=f1.dim + f2.dim, rays=rays, max_cones=cones)
