import json
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import support
from fanotoric import (
    DomainError,
    Fan,
    InputError,
    canonical_polytope,
    is_fano,
    point_fan,
    product,
    projective_space,
    validate_fan,
)


def cp1():
    return projective_space(1)


def cp2():
    return projective_space(2)


def facet_defects(fan):
    """How many facets (a maximal cone less one ray) do not lie in exactly
    two maximal cones."""
    counts = Counter(frozenset(cone) - {i} for cone in fan.max_cones for i in cone)
    return sum(1 for n in counts.values() if n != 2)


def test_cp1_fan_valid():
    fan = cp1()
    diag = validate_fan(fan)
    assert diag.smooth and diag.complete
    assert oracles.spans_lattice(fan.rays, fan.dim)


def test_single_cone_not_complete():
    fan = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    diag = validate_fan(fan)
    assert diag.smooth
    assert not diag.complete
    assert facet_defects(fan) == 2


def test_nonprimitive_ray_rejected():
    with pytest.raises(InputError):
        Fan(dim=2, rays=((2, 0), (0, 1)), max_cones=((0, 1),))


def test_zero_ray_rejected():
    with pytest.raises(InputError):
        Fan(dim=1, rays=((0,),), max_cones=((0,),))


def test_duplicate_cone_rejected():
    with pytest.raises(InputError):
        Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (0,)))


def test_bad_cone_index_rejected():
    with pytest.raises(InputError):
        Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (2,)))


def test_wrong_cone_size_rejected():
    with pytest.raises(InputError):
        Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1, 2),))


def test_non_unimodular_cone_reported():
    fan = Fan(dim=2, rays=((1, 1), (1, -1)), max_cones=((0, 1),))
    diag = validate_fan(fan)
    assert not diag.smooth
    assert diag.non_unimodular_cones == (0,)
    assert not oracles.spans_lattice(fan.rays, fan.dim)


@pytest.mark.parametrize(
    "rays, dim",
    [
        (((2,), (3,)), 1),
        (((4,), (6,)), 1),
        (((3, 5), (5, 8)), 2),
        (((2, 0), (0, 2), (1, 1)), 2),
        (((1, 1), (1, -1)), 2),
        (((1, 0),), 2),
        (((0, 1), (0, -1)), 2),
        (((1, 2, 3), (0, 3, 1), (2, 1, 5), (1, 1, 1)), 3),
        ((), 0),
    ],
)
def test_spans_lattice_oracle_agrees_with_maximal_minors(rays, dim):
    # Z^dim is spanned iff the dim x dim minors have gcd 1.
    minors = [
        oracles.cofactor_det([list(rays[i]) for i in sub])
        for sub in combinations(range(len(rays)), dim)
    ]
    assert oracles.spans_lattice(rays, dim) == (gcd(*minors) == 1)


def test_degenerate_cone_with_paired_facets_is_neither_smooth_nor_complete():
    # Cone 2 holds two opposite rays, so its determinant is 0.  Every facet
    # still lies in two cones, but the facet (0,) has a side of 0 from cone
    # 2: the pair is refused before the cover test, which reads each cone's
    # inverse.
    rays = ((1, 0), (0, 1), (-1, 0), (0, -1))
    fan = Fan(2, rays, ((0, 1), (1, 2), (0, 2)))
    assert facet_defects(fan) == 0
    diag = validate_fan(fan)
    assert not diag.smooth and not diag.complete
    assert diag.non_unimodular_cones == (2,)
    assert diag.polytope is None


def test_is_fano_classics():
    assert is_fano(cp2())
    assert is_fano(product(cp1(), cp1()))
    assert is_fano(support.del_pezzo_blowup_fan())
    assert not is_fano(support.hirzebruch_surface_fan(2))
    assert not is_fano(support.hirzebruch_surface_fan(3))


def test_is_fano_requires_smooth_complete():
    half = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    with pytest.raises(DomainError):
        is_fano(half)


def test_canonical_polytope_cp1():
    poly = canonical_polytope(cp1())
    assert poly.vertices == ((F(-1),), (F(1),))


def test_canonical_polytope_cp2():
    poly = canonical_polytope(cp2())
    assert poly.vertices == (
        (F(-1), F(-1)),
        (F(2), F(-1)),
        (F(-1), F(2)),
    )


def test_canonical_polytope_cp1xcp1():
    poly = canonical_polytope(product(cp1(), cp1()))
    assert set(poly.vertices) == {
        (F(1), F(1)),
        (F(1), F(-1)),
        (F(-1), F(1)),
        (F(-1), F(-1)),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_projective_space_polytope_formula(m):
    # Vertices: Q_o = (-1, ..., -1) and Q_r = Q_o + (m+1) e_r.
    poly = canonical_polytope(projective_space(m))
    q_o = tuple(F(-1) for _ in range(m))
    assert poly.vertices[0] == q_o
    for r in range(1, m + 1):
        expected = tuple(
            F(-1) + (F(m + 1) if j == r - 1 else 0) for j in range(m)
        )
        assert poly.vertices[r] == expected


def test_projective_space_rejects_dim_zero():
    with pytest.raises(InputError):
        projective_space(0)


def test_product_with_point_is_identity():
    f = cp2()
    left = product(point_fan(), f)
    right = product(f, point_fan())
    assert left.rays == f.rays and left.max_cones == f.max_cones
    assert right.rays == f.rays and right.max_cones == f.max_cones
    assert canonical_polytope(point_fan()).vertices == ((),)


def test_product_polytope_is_cartesian_product():
    f1, f2 = cp1(), cp2()
    poly = canonical_polytope(product(f1, f2))
    p1 = canonical_polytope(f1)
    p2 = canonical_polytope(f2)
    expected = {v1 + v2 for v1 in p1.vertices for v2 in p2.vertices}
    assert set(poly.vertices) == expected
    assert len(poly.vertices) == 6


def test_vertex_count_equals_cone_count():
    for fan in (cp1(), cp2(), projective_space(3), product(cp1(), cp2())):
        poly = canonical_polytope(fan)
        assert len(poly.vertices) == len(fan.max_cones)


FANO_LIBRARY = [
    projective_space(1),
    projective_space(2),
    projective_space(3),
    product(projective_space(1), projective_space(1)),
    product(projective_space(1), projective_space(2)),
    support.del_pezzo_blowup_fan(),
]


@pytest.mark.parametrize("fan", FANO_LIBRARY)
def test_duality_with_halfspace_enumeration(fan):
    assert is_fano(fan)
    poly = canonical_polytope(fan)
    assert len(set(poly.vertices)) == len(poly.vertices)
    assert set(poly.vertices) == oracles.halfspace_vertices(fan.rays, fan.dim)


@pytest.mark.parametrize("fan", FANO_LIBRARY)
def test_origin_strictly_interior_for_fano(fan):
    # The hull is the halfspace region, and 0 satisfies every constraint
    # strictly.
    for ray in fan.rays:
        assert sum(F(0) * c for c in ray) > -1


def test_f2_methods_disagree():
    # The degree-2 Hirzebruch fan is smooth and complete but not Fano: the
    # fixed-point method produces a repeated vertex (4 tagged points, two
    # equal), while halfspace enumeration has only 3 extreme points.
    fan = support.hirzebruch_surface_fan(2)
    assert not is_fano(fan)
    poly = canonical_polytope(fan)
    assert len(poly.vertices) == 4
    assert len(set(poly.vertices)) == 3
    assert set(poly.vertices) == oracles.halfspace_vertices(fan.rays, fan.dim)


def test_f3_vertex_strictly_violates_halfspace():
    fan = support.hirzebruch_surface_fan(3)
    poly = canonical_polytope(fan)
    violated = False
    for v in poly.vertices:
        for ray in fan.rays:
            if sum(x * c for x, c in zip(v, ray)) < -1:
                violated = True
    assert violated
    assert set(poly.vertices) != oracles.halfspace_vertices(fan.rays, fan.dim)


def test_point_fan_valid_and_complete():
    fan = point_fan()
    diag = validate_fan(fan)
    assert diag.smooth and diag.complete
    assert oracles.spans_lattice(fan.rays, 0)
    assert is_fano(fan)


FANS = Path(__file__).resolve().parent / "fans"


def fixture_fan(name):
    spec = json.loads((FANS / f"{name}.json").read_text())["fiber"]
    rays = tuple(tuple(r) for r in spec["rays"])
    return Fan(len(rays[0]), rays, tuple(tuple(c) for c in spec["max_cones"]))


@pytest.mark.parametrize("name", ["winding", "folding"])
def test_overlapping_pseudomanifold_fans_are_not_complete(name):
    # Every facet lies in exactly two smooth cones, but the winding fan
    # covers the plane twice and the folding fan puts two cones on the
    # same side of a shared ray.  Each rotation of the cone list starts
    # the cover test from another cone.
    fan = fixture_fan(name)
    for turn in range(len(fan.max_cones)):
        cones = fan.max_cones[turn:] + fan.max_cones[:turn]
        turned = Fan(fan.dim, fan.rays, cones)
        assert facet_defects(turned) == 0
        diag = validate_fan(turned)
        assert diag.smooth
        assert not diag.complete and diag.polytope is None
    with pytest.raises(DomainError, match="fan is not complete"):
        is_fano(fan)


def test_cones_folded_back_over_a_ray_are_not_complete():
    # The cones run round from (1, 0) to (1, -1), fold back to (1, -2) and
    # close at (1, 0): each facet is shared, and the point (1, 2) lies in
    # one cone, but the two cones on (1, -1) lie on the same side of it.
    rays = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (1, -2))
    fan = Fan(2, rays, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
    assert facet_defects(fan) == 0
    assert not validate_fan(fan).complete


SHUFFLED = {
    "P2": cp2(),
    "F1": support.hirzebruch_surface_fan(1),
    "F2": support.hirzebruch_surface_fan(2),
    "P1xP1": product(cp1(), cp1()),
}


def shuffle(fan, data):
    """The same fan with its rays and its cones drawn in another order."""
    order = data.draw(st.permutations(range(len(fan.rays))))
    new_index = {old: new for new, old in enumerate(order)}
    cones = data.draw(st.permutations(fan.max_cones))
    return Fan(
        fan.dim,
        tuple(fan.rays[old] for old in order),
        tuple(tuple(new_index[i] for i in cone) for cone in cones),
    )


@given(st.sampled_from(sorted(SHUFFLED)), st.data())
def test_shuffled_fans_stay_complete_with_the_same_vertices(name, data):
    fan = SHUFFLED[name]
    before, after = validate_fan(fan), validate_fan(shuffle(fan, data))
    assert after.smooth and after.complete
    assert after.fano == before.fano
    assert set(after.polytope.vertices) == set(before.polytope.vertices)


def self_intersections(rays):
    """b_i with v_{i-1} + v_{i+1} = b_i v_i, for rays listed counterclockwise."""
    out = []
    for i, v in enumerate(rays):
        s = tuple(a + b for a, b in zip(rays[i - 1], rays[(i + 1) % len(rays)]))
        j = 0 if v[0] else 1
        b = s[j] // v[j]
        assert s == (b * v[0], b * v[1])
        out.append(b)
    return tuple(out)


def iso_class(b):
    """The b sequence up to rotation and reflection: the surface up to GL2(Z)."""
    turns = [b[i:] + b[:i] for i in range(len(b))]
    return min(turns + [t[::-1] for t in turns])


def star_surfaces(max_rays=7, max_a=4):
    """Smooth complete toric surfaces with at most max_rays rays, one per
    isomorphism class: P2 and F_0..F_max_a refined by star subdivisions
    u, v -> u + v of adjacent rays (Fulton, Introduction to Toric
    Varieties, section 2.5).  Rays are listed counterclockwise."""
    todo = [((1, 0), (0, 1), (-1, -1))]
    todo += [((1, 0), (0, 1), (-1, a), (0, -1)) for a in range(max_a + 1)]
    found = {}
    while todo:
        rays = todo.pop()
        key = iso_class(self_intersections(rays))
        if key in found:
            continue
        found[key] = rays
        if len(rays) == max_rays:
            continue
        for i, u in enumerate(rays):
            v = rays[(i + 1) % len(rays)]
            todo.append(rays[: i + 1] + ((u[0] + v[0], u[1] + v[1]),) + rays[i + 1 :])
    return [found[key] for key in sorted(found)]


SURFACES = star_surfaces()


def surface_fan(rays):
    n = len(rays)
    return Fan(2, rays, tuple((i, (i + 1) % n) for i in range(n)))


def test_star_subdivisions_give_exactly_the_five_fano_surfaces():
    fano = [rays for rays in SURFACES if max(self_intersections(rays)) <= 1]
    assert sorted(len(rays) for rays in fano) == [3, 4, 4, 5, 6]
    assert sum(is_fano(surface_fan(rays)) for rays in SURFACES) == 5


@given(st.sampled_from(SURFACES), st.data())
def test_generated_surfaces_fano_iff_every_b_at_most_one(rays, data):
    # A ray with b_i = 2 makes two cones share a vertex, and one with
    # b_i >= 3 puts a vertex outside the halfspace region; with every
    # b_i <= 1 the vertices are exactly the region's vertices.
    fano = max(self_intersections(rays)) <= 1
    fan = shuffle(surface_fan(rays), data)
    diag = validate_fan(fan)
    assert diag.smooth and diag.complete
    assert oracles.spans_lattice(fan.rays, 2)
    assert diag.fano == fano
    poly = diag.polytope
    for u, cone in zip(poly.vertices, fan.max_cones):
        for i in cone:
            assert sum(x * c for x, c in zip(u, fan.rays[i])) == -1
    vertices = set(poly.vertices)
    exact = len(vertices) == len(poly.vertices)
    assert (exact and vertices == oracles.halfspace_vertices(rays, 2)) == fano
