"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every assertion here is exact (Fraction equality) unless the criterion
itself states a floating tolerance; runtime limits are part of the
criteria and enforced with perf_counter.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import oracles
import support
from fanotoric import (
    Painting,
    SimpleType,
    TauMap,
    build_flag,
    build_root_system,
    canonical_polytope,
    chamber_margins,
    fano_check,
    is_fano,
    product,
    projective_space,
)
from fanotoric.numcheck import (
    SamplePoint,
    barycenter_integral,
    fs_delta,
    random_points,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_hirzebruch_family():
    start = time.perf_counter()
    flag = support.hirzebruch_flag()
    fan = projective_space(1)
    ok = True
    for n in range(0, 7):
        verdict = fano_check(flag, fan, support.hirzebruch_tau(n))
        ok = ok and verdict.is_fano == (n in (0, 1))
    v2 = fano_check(flag, fan, support.hirzebruch_tau(2))
    ok = ok and not v2.is_fano
    ok = ok and any(value == F(0) for _, _, value in support.margin_entries(flag, v2))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"Hirzebruch family Fano iff n in {{0,1}}, n=2 margin exactly 0 ({elapsed:.3f}s)", ok)


def test_criterion_2_so4n_family():
    ok = True
    worst = 0.0
    for n in range(1, 9):
        start = time.perf_counter()
        flag, tau = support.so4n_flag_tau(n)
        verdict = fano_check(flag, projective_space(2), tau)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and verdict.is_fano == (n >= 5)
        ok = ok and elapsed < 1.0
        if n == 4:
            zeros = [
                root
                for vi, root, value in support.margin_entries(flag, verdict)
                if vi == 0 and value == 0
            ]
            ok = ok and len(zeros) == 6
            for root in zeros:
                mapped = oracles.coeffs_to_e("D", 8, root)
                block = [k for k, c in enumerate(mapped) if c]
                ok = ok and sorted(mapped) == [0] * 6 + [1, 1]
                ok = ok and (all(k < 4 for k in block) or all(k >= 4 for k in block))
    _report(2, f"SO(4n)/U(n)xU(n) Fano iff n >= 5, n=4 exact zero margins at Q_o (worst {worst:.3f}s)", ok)


def test_criterion_3_projective_space_polytope():
    ok = True
    for m in range(1, 5):
        poly = canonical_polytope(projective_space(m))
        q_o = tuple(F(-1) for _ in range(m))
        ok = ok and poly.vertices[0] == q_o
        for r in range(1, m + 1):
            expected = tuple(
                q_o[j] + (F(m + 1) if j == r - 1 else 0) for j in range(m)
            )
            ok = ok and poly.vertices[r] == expected
    _report(3, "CP^m canonical polytope equals Q_o, Q_o + (m+1) e_r for m = 1..4", ok)


def test_criterion_4_chamber_membership_exhaustive():
    start = time.perf_counter()
    types = (
        [("A", r) for r in range(1, 6)]
        + [("B", r) for r in range(2, 6)]
        + [("C", r) for r in range(2, 6)]
        + [("D", r) for r in range(3, 6)]
    )
    ok = True
    paintings = 0
    for letter, rank in types:
        rs = build_root_system([SimpleType(letter, rank)])
        for size in range(1, rank + 1):
            for crossed in combinations(range(rank), size):
                flag = build_flag(rs, Painting(crossed))
                margins = chamber_margins(flag, flag.h_V)
                ok = ok and all(value > 0 for _, value in margins)
                paintings += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(4, f"h_V strictly inside the chamber for all {paintings} paintings, rank <= 5 ({elapsed:.2f}s)", ok)


def test_criterion_5_polytope_duality():
    library = [
        projective_space(1),
        projective_space(2),
        projective_space(3),
        product(projective_space(1), projective_space(1)),
        product(projective_space(1), projective_space(2)),
        support.del_pezzo_blowup_fan(),
    ]
    ok = True
    for fan in library:
        poly = canonical_polytope(fan)
        ok = ok and len(set(poly.vertices)) == len(poly.vertices)
        ok = ok and set(poly.vertices) == oracles.halfspace_vertices(fan.rays, fan.dim)
    f2 = support.hirzebruch_surface_fan(2)
    poly = canonical_polytope(f2)
    hull = oracles.halfspace_vertices(f2.rays, f2.dim)
    disagree = len(set(poly.vertices)) != len(poly.vertices) or set(
        poly.vertices
    ) != hull
    ok = ok and disagree
    ok = ok and not is_fano(f2)
    _report(5, "fixed-point vertices equal brute-force duals on the library; F2 disagrees and is not Fano", ok)


def test_criterion_6_numerical_oracle():
    start = time.perf_counter()
    ok = True
    for m in (1, 2):
        poly = canonical_polytope(projective_space(m))
        for i in range(m + 1):
            point = SamplePoint(
                tuple(1.0 + 0j if k == i else 0j for k in range(m + 1))
            )
            delta = fs_delta(m, point)
            err = max(abs(d - float(v)) for d, v in zip(delta, poly.vertices[i]))
            ok = ok and err < 1e-8
        rays = projective_space(m).rays
        for p in random_points(m, 200, seed=0):
            delta = fs_delta(m, p)
            for ray in rays:
                ok = ok and sum(d * c for d, c in zip(delta, ray)) >= -1 - 1e-6
    b1 = barycenter_integral(1, 10**4)
    b2 = barycenter_integral(2, 10**5)
    ok = ok and math.hypot(*b1) < 1e-4
    ok = ok and math.hypot(*b2) < 1e-3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(6, f"Fubini-Study oracle: fixed points 1e-8, samples in polytope 1e-6, barycenters below budget ({elapsed:.2f}s)", ok)


def test_criterion_7_invariance_properties():
    start = time.perf_counter()
    ok = True

    # (a) 100 random rational basis changes leave the SO(20) verdict and
    # margin table unchanged.
    flag, tau = support.so4n_flag_tau(5)
    fan2 = projective_space(2)
    base = fano_check(flag, fan2, tau)
    rng = random.Random(20240810)
    from fanotoric import _linalg

    changes = 0
    while changes < 100:
        s = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]
            for _ in range(2)
        ]
        if _linalg.invert(s)[0] == 0:
            continue
        changes += 1
        new_basis = tuple(
            oracles.coordinate_sum(
                flag.rs.rank, [(s[0][j], tau.basis[0]), (s[1][j], tau.basis[1])]
            )
            for j in range(2)
        )
        new_matrix = tuple(
            tuple(sum(tau.matrix[i][a] * s[a][j] for a in range(2)) for j in range(2))
            for i in range(2)
        )
        changed = fano_check(flag, fan2, TauMap(new_matrix, new_basis))
        ok = ok and changed.is_fano == base.is_fano
        ok = ok and changed.margins == base.margins

    # (b) Scaling-interval prefix property, integer scales 1..10.
    fan1 = projective_space(1)
    hirz_flag = support.hirzebruch_flag()
    hirz_scales = [
        k
        for k in range(1, 11)
        if fano_check(hirz_flag, fan1, support.hirzebruch_tau(k)).is_fano
    ]
    ok = ok and hirz_scales == list(range(1, len(hirz_scales) + 1))
    so_scales = []
    for k in range(1, 11):
        _, tau_k = support.so4n_flag_tau(5, scale=15 * k)
        if fano_check(flag, fan2, tau_k).is_fano:
            so_scales.append(k)
    ok = ok and so_scales == list(range(1, len(so_scales) + 1))

    # (c) D-type node swap fixing the painting, with tau transported by
    # the corresponding column permutation.
    rs = build_root_system([SimpleType("D", 5)])
    dflag = build_flag(rs, Painting((3, 4)))
    matrix = ((F(5), F(2)), (F(0), F(4)))
    swapped = tuple(tuple(row[j] for j in (1, 0)) for row in matrix)
    one = fano_check(dflag, fan2, TauMap(matrix))
    two = fano_check(dflag, fan2, TauMap(swapped))
    ok = ok and one.is_fano == two.is_fano
    one_entries = list(support.margin_entries(dflag, one))
    two_entries = list(support.margin_entries(dflag, two))
    for vi in range(len(fan2.max_cones)):
        lhs = sorted(value for v, _, value in one_entries if v == vi)
        rhs = sorted(value for v, _, value in two_entries if v == vi)
        ok = ok and lhs == rhs

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(7, f"basis-change, scaling-prefix, and diagram-swap invariance hold exactly ({elapsed:.2f}s)", ok)
