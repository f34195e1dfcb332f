"""Floating-point cross-checks on projective space with the Fubini-Study metric.

This module recomputes the canonical polytope data of CP^m directly on the
manifold, without touching any fan combinatorics.  The moment coordinate of
the j-th standard torus generator at a point with homogeneous coordinates
z is

    delta_j(z) = (m+1) |z_j|^2 / |z|^2 - 1,

which equals half the divergence of J W_j^hat for the Fubini-Study form
(any overall scaling of the form drops out of the divergence).  Fixed
points of the torus action reproduce the polytope vertices; the integral
of delta against the Fubini-Study volume vanishes because the metric is
Kaehler-Einstein.  Floating point is confined to this module and every
tolerance is part of the operation's contract; the exact fixed-point path
is exposed separately for rational cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class SamplePoint:
    """A point of CP^m by homogeneous coordinates, not all zero."""

    coords: tuple[complex, ...]

    def __post_init__(self) -> None:
        coords = tuple(complex(c) for c in self.coords)
        if not coords or not any(abs(c) > 0 for c in coords):
            raise InputError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "coords", coords)


def fs_delta(m: int, p: SamplePoint) -> tuple[float, ...]:
    """Moment coordinates of p for the anticanonically scaled metric, one per
    standard torus generator."""
    if len(p.coords) != m + 1:
        raise InputError(f"expected {m + 1} homogeneous coordinates")
    norms = [abs(c) ** 2 for c in p.coords]
    total = sum(norms)
    return tuple((m + 1) * norms[j] / total - 1.0 for j in range(1, m + 1))


def fixed_point_delta(m: int, fixed_point_index: int) -> tuple[Fraction, ...]:
    """Exact moment value at a torus fixed point, from isotropy weights only.

    At the fixed point with only the given homogeneous coordinate nonzero
    the tangent weights are z_k/z_r for k != r; the value is minus their
    sum, exact over the rationals.
    """
    if not isinstance(fixed_point_index, int) or not 0 <= fixed_point_index <= m:
        raise InputError(f"fixed point index {fixed_point_index!r} not in 0..{m}")
    r = fixed_point_index
    weights = []
    for k in range(m + 1):
        if k == r:
            continue
        w = [Fraction(0)] * m
        if k > 0:
            w[k - 1] += 1
        if r > 0:
            w[r - 1] -= 1
        weights.append(w)
    return tuple(-sum((w[j] for w in weights), Fraction(0)) for j in range(m))


def random_points(m: int, count: int, seed: int = 0) -> list[SamplePoint]:
    """Deterministic pseudo-random points, uniform on the unit sphere."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * (m + 1)))
    pts = []
    for row in raw:
        z = row[: m + 1] + 1j * row[m + 1 :]
        z = z / np.linalg.norm(z)
        pts.append(SamplePoint(tuple(complex(c) for c in z)))
    return pts


def barycenter_integral(m: int, resolution: int) -> tuple[float, ...]:
    """Quadrature of delta against the Fubini-Study volume, normalized.

    Integrates over the dense affine chart in radial coordinates using a
    midpoint product rule on a Duffy-mapped simplex grid; the phase
    directions contribute a constant factor by torus invariance and are
    divided out.  resolution is the total node budget; too small a budget
    is rejected rather than silently accepted.
    """
    if not isinstance(m, int) or m < 1:
        raise InputError(f"dimension must be >= 1, got {m!r}")
    n = int(round(resolution ** (1.0 / m)))
    if n < 8:
        raise InputError(
            f"resolution {resolution} too small: needs at least {8 ** m} nodes"
        )
    axes = np.meshgrid(
        *[(np.arange(n) + 0.5) / n for _ in range(m)], indexing="ij"
    )
    v = [a.ravel() for a in axes]
    # Duffy map of the cube onto the simplex u_k >= 0, sum u < 1.
    u = []
    remainder = np.ones_like(v[0])
    jac = np.ones_like(v[0])
    for k in range(m):
        u.append(v[k] * remainder)
        jac = jac * remainder
        remainder = remainder * (1.0 - v[k])
    big_u = 1.0 - remainder
    xsq = [uk / (1.0 - big_u) for uk in u]  # squared chart radii
    one_plus = 1.0 + sum(xsq)
    density = one_plus ** -(m + 1) * (1.0 - big_u) ** -(m + 1) * jac
    mass = float(np.sum(density))
    return tuple(
        float(np.sum(density * ((m + 1) * xsq[j] / one_plus - 1.0)) / mass)
        for j in range(m)
    )
