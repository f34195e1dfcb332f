import cmath
import math
import random
from fractions import Fraction as F

import pytest

from fanotoric import InputError, canonical_polytope, projective_space
from fanotoric.numcheck import (
    SamplePoint,
    barycenter_integral,
    fixed_point_delta,
    fs_delta,
    random_points,
)


def test_fs_delta_cp1_fixed_point():
    value = fs_delta(1, SamplePoint((1 + 0j, 0j)))
    assert abs(value[0] - (-1.0)) < 1e-8


def test_fs_delta_cp1_equator():
    value = fs_delta(1, SamplePoint((1 + 0j, 1 + 0j)))
    assert abs(value[0]) < 1e-8


def test_fs_delta_cp2_fixed_point():
    value = fs_delta(2, SamplePoint((1 + 0j, 0j, 0j)))
    assert max(abs(v + 1.0) for v in value) < 1e-8


def test_fs_delta_matches_affine_chart_formula():
    # On the z0 = 1 chart of CP^1: delta(z) = 2|z|^2/(1+|z|^2) - 1.
    rng = random.Random(3)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = fs_delta(1, SamplePoint((1 + 0j, z)))[0]
        want = 2 * abs(z) ** 2 / (1 + abs(z) ** 2) - 1
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fixed_point_delta_matches_polytope_exactly(m):
    poly = canonical_polytope(projective_space(m))
    for i in range(m + 1):
        assert fixed_point_delta(m, i) == poly.vertices[i]


def test_fixed_point_delta_pins():
    assert fixed_point_delta(2, 0) == (F(-1), F(-1))
    assert fixed_point_delta(2, 1) == (F(2), F(-1))
    assert fixed_point_delta(1, 1) == (F(1),)


def test_fixed_point_delta_bad_index():
    with pytest.raises(InputError):
        fixed_point_delta(2, 3)


def test_fs_delta_wrong_length():
    with pytest.raises(InputError):
        fs_delta(2, SamplePoint((1 + 0j, 0j)))


def test_sample_point_requires_nonzero():
    with pytest.raises(InputError):
        SamplePoint((0j, 0j))


def test_torus_invariance():
    rng = random.Random(11)
    for m in (1, 2):
        for _ in range(20):
            coords = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(m + 1)
            )
            if all(abs(c) < 1e-9 for c in coords):
                continue
            p = SamplePoint(coords)
            phases = [rng.uniform(0, 2 * math.pi) for _ in range(m + 1)]
            q = SamplePoint(
                tuple(c * cmath.exp(1j * t) for c, t in zip(coords, phases))
            )
            dp = fs_delta(m, p)
            dq = fs_delta(m, q)
            assert max(abs(a - b) for a, b in zip(dp, dq)) < 1e-10


@pytest.mark.parametrize("m", [1, 2])
def test_samples_lie_in_canonical_polytope(m):
    fan = projective_space(m)
    slack = 1e-6
    for p in random_points(m, 200, seed=0):
        delta = fs_delta(m, p)
        for ray in fan.rays:
            assert sum(d * c for d, c in zip(delta, ray)) >= -1 - slack


@pytest.mark.parametrize("m", [1, 2])
def test_vertices_approached_near_fixed_points(m):
    poly = canonical_polytope(projective_space(m))
    rng = random.Random(5)
    for i in range(m + 1):
        coords = [
            complex(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4))
            for _ in range(m + 1)
        ]
        coords[i] = 1 + 0j
        delta = fs_delta(m, SamplePoint(tuple(coords)))
        err = max(abs(d - float(v)) for d, v in zip(delta, poly.vertices[i]))
        assert err < 1e-3


def test_barycenter_cp1():
    b = barycenter_integral(1, 10**4)
    assert math.hypot(*b) < 1e-4


def test_barycenter_cp2():
    b = barycenter_integral(2, 10**5)
    assert math.hypot(*b) < 1e-3


def test_barycenter_rejects_tiny_resolution():
    with pytest.raises(InputError):
        barycenter_integral(2, 16)


def test_pushforward_integral_is_exactly_zero():
    # In the moment coordinate u = |z|^2/(1+|z|^2) the CP^1 integrand is
    # 2u - 1 against the uniform pushforward; its exact integral over
    # [0, 1] vanishes term by term.
    antiderivative = lambda u: u * u - u  # noqa: E731
    assert antiderivative(F(1)) - antiderivative(F(0)) == 0
