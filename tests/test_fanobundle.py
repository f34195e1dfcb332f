import json
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from fanotoric import (
    DomainError,
    Fan,
    InputError,
    Painting,
    SimpleType,
    TauMap,
    VectorH,
    build_flag,
    build_root_system,
    canonical_polytope,
    chamber_margins,
    fano_check,
    point_fan,
    product,
    projective_space,
)
from fanotoric import _linalg, cli, fanobundle, toricfiber
from fanotoric.fanobundle import fano_scan


def test_hirzebruch_pullback_values():
    flag = support.hirzebruch_flag()
    fan = projective_space(1)
    for n in range(0, 7):
        tau = support.hirzebruch_tau(n)
        plus = oracles.pullback(flag, tau, (F(1),))
        minus = oracles.pullback(flag, tau, (F(-1),))
        assert plus.coords == (F(1, 2) - F(n, 4),)
        assert minus.coords == (F(1, 2) + F(n, 4),)
        # The one root of A1 reads h_Q itself at each vertex of [-1, 1].
        verdict = fano_check(flag, fan, tau)
        vertices = verdict.fiber.polytope.vertices
        at = {vertices[e.vertex_index]: e.value for e in verdict.margins}
        assert at == {(F(1),): plus.coords[0], (F(-1),): minus.coords[0]}


def test_hirzebruch_margins_n1():
    flag = support.hirzebruch_flag()
    verdict = fano_check(flag, projective_space(1), support.hirzebruch_tau(1))
    assert sorted(e.value for e in verdict.margins) == [F(1, 4), F(3, 4)]
    assert verdict.is_fano


def test_hirzebruch_family_window():
    flag = support.hirzebruch_flag()
    fan = projective_space(1)
    for n in range(0, 7):
        verdict = fano_check(flag, fan, support.hirzebruch_tau(n))
        assert verdict.is_fano == (n < 2)
    v2 = fano_check(flag, fan, support.hirzebruch_tau(2))
    assert any(e.value == 0 for e in v2.margins)
    assert not v2.is_fano


def test_pullback_of_origin_is_h_v():
    flag = support.hirzebruch_flag()
    tau = support.hirzebruch_tau(3)
    assert oracles.pullback(flag, tau, (F(0),)) == flag.h_V
    flag5, tau5 = support.so4n_flag_tau(5)
    assert oracles.pullback(flag5, tau5, (F(0), F(0))) == flag5.h_V


def test_margins_at_origin_equal_chamber_margins():
    # The vertices of the P2 polytope sum to the origin and Q -> alpha(h_Q)
    # is affine, so each root's margins average to its margin at h_V.
    flag, tau = support.so4n_flag_tau(5)
    verdict = fano_check(flag, projective_space(2), tau)
    vertices = verdict.fiber.polytope.vertices
    assert [sum(c) for c in zip(*vertices)] == [0, 0]
    totals = {}
    for e in verdict.margins:
        totals[e.root] = totals.get(e.root, 0) + e.value
    mean = tuple((root, totals[root] / len(vertices)) for root in flag.r_m_plus)
    assert mean == chamber_margins(flag, flag.h_V)


def test_so4n_family_window():
    for n in range(1, 9):
        flag, tau = support.so4n_flag_tau(n)
        verdict = fano_check(flag, projective_space(2), tau)
        assert verdict.is_fano == (n >= 5), n


def test_so4n_n4_exact_zero_margins_at_first_vertex():
    flag, tau = support.so4n_flag_tau(4)
    verdict = fano_check(flag, projective_space(2), tau)
    zeros = [e for e in verdict.margins if e.vertex_index == 0 and e.value == 0]
    assert len(zeros) == 6  # the C(4,2) sum roots of one orthogonal block
    for e in zeros:
        mapped = oracles.coeffs_to_e("D", 8, e.root)
        assert sorted(mapped) == [0, 0, 0, 0, 0, 0, 1, 1]
        block = [k for k, c in enumerate(mapped) if c]
        assert all(k >= 4 for k in block) or all(k < 4 for k in block)


def test_so20_q_o_margin_value():
    # At n = 5 the sum roots of the lightly weighted block have margin
    # (n-4)/(2(2n-1)) = 1/18 at the first vertex; the global minimum over
    # the table is (2n-9)/(4(2n-1)) = 1/36.
    flag, tau = support.so4n_flag_tau(5)
    verdict = fano_check(flag, projective_space(2), tau)
    at_q_o = [e.value for e in verdict.margins if e.vertex_index == 0]
    assert min(at_q_o) == F(1, 18)
    assert min(e.value for e in verdict.margins) == F(1, 36)
    assert verdict.is_fano


def test_point_fiber_reduces_to_flag():
    flag = support.hirzebruch_flag()
    verdict = fano_check(flag, point_fan(), TauMap(()))
    assert verdict.fiber.fano and verdict.is_fano
    assert verdict.margins == ()
    assert verdict.surjective


def test_non_fano_fiber_forces_false():
    flag, tau = support.so4n_flag_tau(8)  # margins would all pass
    verdict = fano_check(flag, support.hirzebruch_surface_fan(2), tau)
    assert not verdict.fiber.fano
    assert not verdict.is_fano
    assert verdict.margins  # table still reported for diagnostics


def test_degenerate_tau_is_classified_not_rejected():
    flag = support.hirzebruch_flag()
    tau = support.hirzebruch_tau(0)
    verdict = fano_check(flag, projective_space(1), tau)
    assert not verdict.surjective
    assert verdict.is_fano
    assert all(e.value == F(1, 2) for e in verdict.margins)


def _random_invertible(rng, k):
    while True:
        mat = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
            for _ in range(k)
        ]
        if _linalg.invert(mat)[0] != 0:
            return mat


def test_basis_change_invariance():
    flag, tau = support.so4n_flag_tau(5)
    fan = projective_space(2)
    base = fano_check(flag, fan, tau)
    rng = random.Random(20240811)
    basis = tau.basis
    for _ in range(10):
        s = _random_invertible(rng, 2)
        new_basis = tuple(
            oracles.coordinate_sum(
                flag.rs.rank, [(s[0][j], basis[0]), (s[1][j], basis[1])]
            )
            for j in range(2)
        )
        new_matrix = tuple(
            tuple(
                sum(tau.matrix[i][a] * s[a][j] for a in range(2))
                for j in range(2)
            )
            for i in range(2)
        )
        changed = fano_check(flag, fan, TauMap(new_matrix, new_basis))
        assert changed.is_fano == base.is_fano
        assert changed.margins == base.margins


def test_vertex_sufficiency_under_convex_combinations():
    flag, tau = support.so4n_flag_tau(5)
    poly = canonical_polytope(projective_space(2))
    margins = fano_check(flag, projective_space(2), tau).margins
    per_root_min = {}
    for e in margins:
        per_root_min[e.root] = min(per_root_min.get(e.root, e.value), e.value)
    rng = random.Random(7)
    for _ in range(25):
        weights = [F(rng.randint(0, 8)) for _ in poly.vertices]
        total = sum(weights)
        if total == 0:
            continue
        weights = [w / total for w in weights]
        q = tuple(
            sum(w * v[j] for w, v in zip(weights, poly.vertices))
            for j in range(poly.dim)
        )
        h = oracles.pullback(flag, tau, q)
        for root, value in chamber_margins(flag, h):
            assert value >= per_root_min[root]


def test_scaling_interval_prefix_property():
    flag = support.hirzebruch_flag()
    fan1 = projective_space(1)
    fano_scales = [
        k
        for k in range(1, 11)
        if fano_check(flag, fan1, support.hirzebruch_tau(k)).is_fano
    ]
    assert fano_scales == list(range(1, len(fano_scales) + 1))
    flag5, _ = support.so4n_flag_tau(5)
    fan2 = projective_space(2)
    scales5 = []
    for k in range(1, 11):
        _, tau_k = support.so4n_flag_tau(5, scale=15 * k)
        if fano_check(flag5, fan2, tau_k).is_fano:
            scales5.append(k)
    assert scales5 == list(range(1, len(scales5) + 1))
    assert 1 in scales5  # the classical scale itself passes


def test_diagram_automorphism_equivariance_d_type_swap():
    # D_5 with both swappable tail nodes crossed; the swap permutes the
    # default basis pair, so tau transported by the column swap must give
    # the same verdict and per-vertex margin multisets.
    rs = build_root_system([SimpleType("D", 5)])
    flag = build_flag(rs, Painting((3, 4)))
    fan = projective_space(2)
    matrix = ((F(5), F(2)), (F(0), F(4)))
    swapped = tuple(tuple(row[j] for j in (1, 0)) for row in matrix)
    base = fano_check(flag, fan, TauMap(matrix))
    image = fano_check(flag, fan, TauMap(swapped))
    assert base.is_fano == image.is_fano
    for vi in range(len(fan.max_cones)):
        b = sorted(e.value for e in base.margins if e.vertex_index == vi)
        i = sorted(e.value for e in image.margins if e.vertex_index == vi)
        assert b == i


def test_tau_integrality_examples():
    flag = support.hirzebruch_flag()
    fan = projective_space(1)
    y = VectorH((F(-2),))
    for n in range(-3, 4):
        verdict = fano_check(flag, fan, support.hirzebruch_tau(n))
        assert verdict.integrality([y]) is True
    half = fano_check(flag, fan, TauMap(((F(1, 2),),), (y,)))
    assert half.integrality([y]) is False
    assert half.integrality(None) is None
    assert half.integrality([]) is True


def test_tau_integrality_rejects_generator_outside_zk():
    flag, tau = support.so4n_flag_tau(2)
    verdict = fano_check(flag, projective_space(2), tau)
    outside = VectorH.unit(4, 0)
    with pytest.raises(DomainError, match="^h is outside the span of the basis$"):
        verdict.integrality([outside])
    with pytest.raises(InputError, match="^rank mismatch$"):
        verdict.integrality([VectorH.unit(3, 0)])
    # An empty painting has no basis to express a generator in, whatever it is.
    empty = fano_check(build_flag(flag.rs, Painting(())), projective_space(1), TauMap(((),)))
    with pytest.raises(InputError, match="^empty basis$"):
        empty.integrality([VectorH.unit(3, 0)])


def test_tau_shape_errors():
    flag = support.hirzebruch_flag()
    with pytest.raises(InputError):
        fano_check(flag, projective_space(1), TauMap(((F(1), F(2)),)))
    with pytest.raises(InputError):
        # two rows against a one-dimensional fiber fan
        fano_check(flag, projective_space(1), TauMap(((F(1),), (F(2),))))


def test_declared_basis_validation():
    flag, tau = support.so4n_flag_tau(2)
    off = VectorH.unit(4, 0)  # not in z(k) for crossed nodes {2, 4}
    with pytest.raises(DomainError):
        fano_check(flag, projective_space(2), TauMap(tau.matrix, (off, off)))
    b = flag.zk_basis_default[0]
    b3 = oracles.coordinate_sum(4, [(3, b)])
    with pytest.raises(InputError):
        fano_check(flag, projective_space(2), TauMap(tau.matrix, (b, b3)))
    with pytest.raises(InputError):
        fano_check(flag, projective_space(2), TauMap(tau.matrix, (b,)))


def test_inconsistent_tau_rows_rejected():
    with pytest.raises(InputError):
        TauMap(((F(1), F(2)), (F(3),)))


def _bound_1_box(tau):
    rows, cols = tau.fiber_dim, len(tau.matrix[0])
    return [
        tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        for flat in iter_product((-1, 0, 1), repeat=rows * cols)
    ]


def _hirzebruch_p1():
    return support.hirzebruch_flag(), projective_space(1), support.hirzebruch_tau(1)


def _so8_p2():
    flag, tau = support.so4n_flag_tau(2)
    return flag, projective_space(2), tau


@pytest.mark.parametrize("bundle", [_hirzebruch_p1, _so8_p2])
def test_fano_scan_matches_fano_check_per_matrix(monkeypatch, bundle):
    flag, fan, tau = bundle()
    matrices = _bound_1_box(tau)
    passes = []
    validate = toricfiber.validate_fan
    monkeypatch.setattr(
        toricfiber, "validate_fan", lambda f: passes.append(f) or validate(f)
    )
    verdicts = list(fano_scan(flag, fan, tau, matrices))
    assert len(passes) == 1  # one fiber pass for the whole box
    monkeypatch.undo()
    assert len(verdicts) == len(matrices)
    for matrix, verdict in zip(matrices, verdicts):
        check = fano_check(flag, fan, TauMap(matrix, tau.basis))
        assert verdict == check
        assert verdict.margins == check.margins
        assert verdict.surjective == check.surjective
        assert verdict.fiber == validate(fan)


def test_scan_builds_no_table_and_solves_gram_once(monkeypatch):
    # Every elimination passes through _linalg._reduce, so a scan that
    # redid one per tau would count more on the whole box than on one tau.
    flag, fan, tau = _so8_p2()
    tables, solves = [], []
    table, reduce = fanobundle._table, _linalg._reduce
    monkeypatch.setattr(fanobundle, "_table", lambda *a: tables.append(a) or table(*a))
    monkeypatch.setattr(_linalg, "_reduce", lambda *a: solves.append(a) or reduce(*a))

    def solves_for(matrices):
        solves.clear()
        fano = [v.is_fano for v in fano_scan(flag, fan, tau, matrices)]
        assert len(fano) == len(matrices)
        return len(solves)

    box = _bound_1_box(tau)
    assert len(box) == 81
    assert 0 < solves_for(box[:1]) == solves_for(box)
    assert tables == []


def _a3_check_path(tmp_path, **extra):
    # A3 crossed at both ends, fiber P2: k = m = 2.
    doc = {
        "base": {"components": [{"letter": "A", "rank": 3}], "crossed": [1, 3]},
        "fiber": {"kind": "projective_space", "dim": 2},
        "tau": [[1, 0], [0, 1]],
        **extra,
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(doc))
    return path


def test_one_check_makes_one_gram_map(monkeypatch, tmp_path, capsys):
    # The map comes from the flag's inverse crossed block and the inverse
    # basis block; the printed table, the rank and the integrality all
    # reuse the verdict's P.
    path = _a3_check_path(tmp_path, cocharacter_basis=[[1, 0, 0], [0, 0, 1]])
    maps = []
    gram_map = fanobundle._gram_map
    monkeypatch.setattr(fanobundle, "_gram_map", lambda *a: maps.append(a) or gram_map(*a))
    assert cli.main(["check", str(path), "--json"]) == 0
    assert len(maps) == 1
    assert len(json.loads(capsys.readouterr().out)["margins"]) == 15  # 3 vertices x 5 roots


def test_one_check_eliminates_only_2x2_matrices(monkeypatch, tmp_path, capsys):
    # The crossed Gram block, the basis block, one inversion per P2 cone
    # and the rank of P: nothing is eliminated at the rank 3 of the base.
    path = _a3_check_path(tmp_path)
    shapes, reduce = [], _linalg._reduce

    def traced(rows, *rhs):
        shapes.append((len(rows), len(rows[0])))
        return reduce(rows, *rhs)

    monkeypatch.setattr(_linalg, "_reduce", traced)
    assert cli.main(["check", str(path), "--json"]) == 0
    assert shapes == [(2, 2)] * 6


@pytest.mark.parametrize(
    "config, eliminations, integrality",
    [("hirzebruch_n1", 5, True), ("so16", 6, "not checked")],
)
def test_one_check_resolves_the_basis_once(monkeypatch, capsys, config, eliminations, integrality):
    # fano_scan is the one caller of _basis: surjectivity and integrality
    # read the verdict's P and validate nothing again.  The eliminations are
    # the crossed Gram block, the basis block, one per fiber cone and the
    # rank of P.
    calls, eliminated = [], []
    basis, reduce = fanobundle._basis, _linalg._reduce
    monkeypatch.setattr(fanobundle, "_basis", lambda *a: calls.append(a) or basis(*a))
    monkeypatch.setattr(_linalg, "_reduce", lambda *a: eliminated.append(a) or reduce(*a))
    path = Path(__file__).resolve().parent.parent / "configs" / f"{config}.json"
    assert cli.main(["check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (len(calls), len(eliminated)) == (1, eliminations)
    assert report["tau_integrality"] == integrality


@pytest.mark.parametrize(
    "bad", [((1, 0, 0), (0, 1, 0)), ((1, 0),)], ids=["tau-width", "tau-rows"]
)
def test_fano_scan_per_matrix_faults_match_check(bad):
    flag, fan, tau = _so8_p2()
    with pytest.raises(InputError) as by_check:
        fano_check(flag, fan, TauMap(bad, tau.basis))
    verdicts = fano_scan(flag, fan, tau, [bad])
    with pytest.raises(InputError) as by_scan:
        next(verdicts)
    assert type(by_scan.value) is type(by_check.value)
    assert str(by_scan.value) == str(by_check.value)


NON_SMOOTH = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (2, 0)))


def _faults():
    hirz = support.hirzebruch_flag()
    flag, tau = support.so4n_flag_tau(2)
    off = VectorH.unit(4, 0)  # not in z(k) for crossed nodes {2, 4}
    b = flag.zk_basis_default[0]
    b3 = oracles.coordinate_sum(4, [(3, b)])
    p1, p2 = projective_space(1), projective_space(2)
    return [
        (hirz, p1, TauMap(((F(1), F(2)),)), InputError),
        (hirz, p1, TauMap(((F(1),), (F(2),))), InputError),
        (flag, p2, TauMap(tau.matrix, (off, off)), DomainError),
        (flag, p2, TauMap(tau.matrix, (b, b3)), InputError),
        (flag, p2, TauMap(tau.matrix, (b,)), InputError),
        (flag, NON_SMOOTH, tau, DomainError),
    ]


@pytest.mark.parametrize(
    "flag, fan, tau, error",
    _faults(),
    ids=["tau-width", "tau-rows", "basis-off-zk", "basis-dependent", "basis-short",
         "non-smooth-fan"],
)
def test_fano_scan_validates_at_the_call(flag, fan, tau, error):
    with pytest.raises(error) as by_check:
        fano_check(flag, fan, tau)
    with pytest.raises(error) as by_scan:
        fano_scan(flag, fan, tau, matrices=[])
    assert str(by_scan.value) == str(by_check.value)


def test_fano_scan_point_fan_has_no_margins():
    flag = support.hirzebruch_flag()
    (verdict,) = fano_scan(flag, point_fan(), TauMap(()), [()])
    assert verdict.margins == ()
    assert verdict.is_fano and verdict.fiber.fano


@lru_cache(maxsize=None)
def _root_system(letter, rank):
    return build_root_system([SimpleType(letter, rank)])


def _unimodular(data, k):
    """A random integer k x k matrix of determinant +-1, by elementary steps."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(0, k - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = data.draw(st.integers(-2, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


RATIONAL = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
BASES = [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def _draw_tau(data, base, m):
    """A flag with 1-2 crossed nodes, a random invertible rational change
    of its default basis (unimodular, then each new vector scaled by 1, 1/2,
    2 or 3), and a random integer m x k tau against it."""
    rs = _root_system(*base)
    crossed = data.draw(
        st.lists(st.integers(0, rs.rank - 1), min_size=1, max_size=2, unique=True)
    )
    flag = build_flag(rs, Painting(tuple(crossed)))
    k = len(flag.painting.crossed)
    u = _unimodular(data, k)
    scales = data.draw(st.lists(st.sampled_from((1, F(1, 2), 2, 3)), min_size=k, max_size=k))
    default = flag.zk_basis_default
    basis = tuple(
        oracles.coordinate_sum(rs.rank, [(u[a][j] * scales[j], default[a]) for a in range(k)])
        for j in range(k)
    )
    matrix = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k),
            min_size=m,
            max_size=m,
        )
    )
    return flag, TauMap(tuple(tuple(row) for row in matrix), basis)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BASES), st.data())
def test_pullback_against_killing_form_oracle(base, data):
    # The verdict's P, paired at arbitrary rational points, against the h_Q
    # the oracle solves from the Killing form over the full Gram matrix.
    m = data.draw(st.integers(1, 3))
    flag, tau = _draw_tau(data, base, m)
    rs, basis = flag.rs, tau.basis
    verdict = fano_check(flag, projective_space(m), tau)
    points = data.draw(
        st.lists(st.lists(RATIONAL, min_size=m, max_size=m), min_size=1, max_size=3)
    )
    pulled_back = {}
    for q in points:
        h = pulled_back[tuple(q)] = oracles.pullback(flag, tau, q)
        assert flag.in_zk(h)
        shift = oracles.coordinate_sum(rs.rank, [(1, h), (-1, flag.h_V)])
        for j, b in enumerate(basis):
            pulled = sum((q[i] * tau.matrix[i][j] for i in range(m)), F(0))
            assert oracles.killing_form(rs, shift, b) == pulled
    vertices = tuple(tuple(q) for q in points)
    entries = fanobundle._table(flag, verdict._pull, vertices)
    assert len(entries) == len(vertices) * len(flag.r_m_plus)
    for e in entries:
        assert e.value == oracles.pair(e.root, pulled_back[vertices[e.vertex_index]])
    # Integrality against tau c, for the drawn coefficients c of each
    # generator over the declared basis.
    k = len(basis)
    coeffs = data.draw(
        st.lists(
            st.lists(st.one_of(st.integers(-3, 3), RATIONAL), min_size=k, max_size=k),
            max_size=3,
        )
    )
    gens = [oracles.coordinate_sum(rs.rank, list(zip(c, basis))) for c in coeffs]
    integral = all(
        sum(row[j] * x for j, x in enumerate(c)).denominator == 1
        for c in coeffs
        for row in tau.matrix
    )
    assert verdict.integrality(gens) is integral


FIBERS = {
    "P1": projective_space(1),
    "P2": projective_space(2),
    "P1xP1": product(projective_space(1), projective_space(1)),
}


def _boundary_scale(flag, tau, fan):
    """The scale s nearest 0 at which the least margin of s * tau is exactly 0.

    Along s the margin of (Q, alpha) is alpha(h_V) + s d with alpha(h_V) > 0,
    so the first zero sits at the least alpha(h_V) / |d| over the entries
    whose d has the sign of s.  None when tau moves no margin.
    """
    at_h_v = dict(chamber_margins(flag, flag.h_V))
    moves = [
        (at_h_v[e.root], e.value - at_h_v[e.root])
        for e in fano_check(flag, fan, tau).margins
    ]
    ahead = [base / -d for base, d in moves if d < 0]
    behind = [base / d for base, d in moves if d > 0]
    if ahead:
        return min(ahead)
    return -min(behind) if behind else None


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BASES), st.sampled_from(sorted(FIBERS)), st.data())
def test_reduced_verdict_equals_full_table(base, fiber, data):
    fan = FIBERS[fiber]
    flag, tau = _draw_tau(data, base, fan.dim)
    on_boundary = data.draw(st.booleans())
    if on_boundary:
        scale = _boundary_scale(flag, tau, fan)
        on_boundary = scale is not None
        if on_boundary:
            tau = tau.scaled(scale)
    v = fano_check(flag, fan, tau)
    if on_boundary:
        assert min(e.value for e in v.margins) == 0
    assert v.is_fano == (v.fiber.fano and all(e.value > 0 for e in v.margins))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BASES), st.sampled_from(sorted(FIBERS)), st.data())
def test_verdict_margins_pair_each_root_at_each_pullback_point(base, fiber, data):
    # The reference pairs every root of R_m+ with the full h_Q, one by one.
    fan = FIBERS[fiber]
    flag, tau = _draw_tau(data, base, fan.dim)
    polytope = canonical_polytope(fan)
    h = {q: oracles.pullback(flag, tau, q) for q in polytope.vertices}
    expected = [
        (vi, root, oracles.pair(root, h[q]))
        for vi, q in enumerate(polytope.vertices)
        for root in flag.r_m_plus
    ]
    entries = fano_check(flag, fan, tau).margins
    assert [(e.vertex_index, e.root, e.value) for e in entries] == expected


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BASES), st.sampled_from(sorted(FIBERS)), st.data())
def test_surjective_is_full_rank_of_tau(base, fiber, data):
    fan = FIBERS[fiber]
    flag, tau = _draw_tau(data, base, fan.dim)
    verdict = fano_check(flag, fan, tau)
    assert verdict.surjective == (oracles.minor_rank(tau.matrix) == fan.dim)


def _projective_product_bundle(crossed_ends, fan, matrix):
    """The engine's verdict on a bundle over P^n_1 x ... x P^n_k, block j
    entered as A_{n_j} crossed at its first or last node, with tau against
    the character-dual basis: (n_j + 1) / n_j on each crossed node."""
    dims = [n for n, _ in crossed_ends]
    rs = _multi_root_system(*dims)
    crossed, basis, offset = [], [], 0
    for n, last in crossed_ends:
        x = offset + (n - 1 if last else 0)
        crossed.append(x)
        basis.append(VectorH(tuple(F(n + 1, n) if i == x else F(0) for i in range(rs.rank))))
        offset += n
    flag = build_flag(rs, Painting(tuple(crossed)))
    return fano_check(flag, fan, TauMap(matrix, tuple(basis))).is_fano


@lru_cache(maxsize=None)
def _multi_root_system(*dims):
    return build_root_system([SimpleType("A", n) for n in dims])


def _total_space_is_fano(dims, fan, matrix, sign=1):
    columns = [[sign * x for x in col] for col in zip(*matrix)]
    return oracles.fano_by_tight_sets(*oracles.total_space_fan(dims, fan, columns))


def test_total_space_oracle_orientation():
    # A1 with the basis [[2]] and tau = -(1, 1) on P2: the total space with
    # rays (-1, t) for t = tau's column is Fano, the one with -t is not.
    fan, matrix = projective_space(2), ((-1,), (-1,))
    assert _projective_product_bundle([(1, False)], fan, matrix)
    assert _total_space_is_fano([1], fan, matrix)
    assert not _total_space_is_fano([1], fan, matrix, sign=-1)


TOTAL_SPACE_FIBERS = {**FIBERS, "F1": support.hirzebruch_surface_fan(1)}


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.tuples(st.integers(1, 2), st.booleans()), min_size=1, max_size=2),
    st.sampled_from(sorted(TOTAL_SPACE_FIBERS)),
    st.data(),
)
def test_verdict_equals_total_space_fan_oracle(crossed_ends, fiber, data):
    # The verdict against the Fano test of the total space's own fan,
    # decided from the vertices of its halfspace polytope alone.
    fan = TOTAL_SPACE_FIBERS[fiber]
    k = len(crossed_ends)
    matrix = data.draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * k), min_size=fan.dim, max_size=fan.dim
        )
    )
    dims = [n for n, _ in crossed_ends]
    assert _projective_product_bundle(crossed_ends, fan, tuple(matrix)) == (
        _total_space_is_fano(dims, fan, matrix)
    )
