from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fanotoric import InputError, SimpleType, VectorH, _linalg, build_root_system


def test_a1_by_hand():
    rs = build_root_system([SimpleType("A", 1)])
    assert rs.positive_roots == ((1,),)
    assert rs.gram == ((2,),)


def test_a2_gram_by_hand():
    # Sum of c c^T over the six roots +-a1, +-a2, +-(a1+a2).
    rs = build_root_system([SimpleType("A", 2)])
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))
    assert rs.gram == ((4, 2), (2, 4))


ADMISSIBLE_TO_RANK_20 = [
    SimpleType(letter, rank)
    for letter, low in zip("ABCD", (1, 2, 2, 3))
    for rank in range(low, 21)
] + [SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8), SimpleType("F", 4),
     SimpleType("G", 2)]


@pytest.mark.parametrize(
    "t", ADMISSIBLE_TO_RANK_20, ids=[f"{t.letter}{t.rank}" for t in ADMISSIBLE_TO_RANK_20]
)
def test_roots_equal_the_reflection_closure(t):
    # Positive roots and the Gram matrix, each against the reference.
    assert build_root_system([t]) == oracles.reference_root_system([t])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.sampled_from([t for t in ADMISSIBLE_TO_RANK_20 if t.rank <= 6]),
        min_size=2,
        max_size=4,
    ),
    st.data(),
)
def test_multi_component_roots_equal_the_reflection_closure(types, data):
    types = data.draw(st.permutations(types))
    assert build_root_system(types) == oracles.reference_root_system(types)


@pytest.mark.parametrize(
    "letter,rank,count",
    [
        ("A", 1, 2),
        ("A", 4, 20),
        ("B", 2, 8),
        ("B", 4, 32),
        ("C", 3, 18),
        ("D", 3, 12),
        ("D", 4, 24),
        ("D", 5, 40),
        ("G", 2, 12),
        ("F", 4, 48),
        ("E", 6, 72),
        ("E", 7, 126),
        ("E", 8, 240),
    ],
)
def test_classical_root_counts(letter, rank, count):
    rs = build_root_system([SimpleType(letter, rank)])
    assert 2 * len(rs.positive_roots) == count


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 3), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("C", 4), ("D", 3), ("D", 5)],
)
def test_generated_roots_match_orthogonal_model(letter, rank):
    # The standard simple roots make a root positive iff its first nonzero
    # orthogonal coordinate is.
    rs = build_root_system([SimpleType(letter, rank)])
    mapped = {oracles.coeffs_to_e(letter, rank, root) for root in rs.positive_roots}
    assert mapped == {
        v for v in oracles.all_roots_e(letter, rank) if next(c for c in v if c) > 0
    }


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_positivity_split(letter, rank):
    # The closure splits into roots with all coefficients >= 0 or all <= 0;
    # the engine keeps the first half.
    t = SimpleType(letter, rank)
    roots = oracles.reflection_closure(t.cartan_matrix())
    assert all(all(c >= 0 for c in r) or all(c <= 0 for c in r) for r in roots)
    positive = [r for r in roots if all(c >= 0 for c in r)]
    assert 2 * len(positive) == len(roots)
    assert build_root_system([t]).positive_roots == tuple(positive)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 3), ("D", 4), ("F", 4)])
def test_gram_symmetric_positive_definite(letter, rank):
    rs = build_root_system([SimpleType(letter, rank)])
    g = rs.gram
    n = len(g)
    assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
    for k in range(1, n + 1):
        minor = [row[:k] for row in g[:k]]
        assert _linalg.invert(minor)[0] > 0


@pytest.mark.parametrize(
    "letter,rank", [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]
)
def test_gram_invariant_under_diagram_automorphisms(letter, rank):
    t = SimpleType(letter, rank)
    rs = build_root_system([t])
    gens = oracles.diagram_automorphisms(t)
    assert gens
    cartan = t.cartan_matrix()
    for perm in gens:
        for i in range(rank):
            for j in range(rank):
                assert cartan[perm[i]][perm[j]] == cartan[i][j]
                assert rs.gram[perm[i]][perm[j]] == rs.gram[i][j]


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_reflection_closure(letter, rank):
    # Reflections read off the engine's Gram matrix map the whole root
    # system, taken from the oracle, to itself.
    t = SimpleType(letter, rank)
    rs = build_root_system([t])
    roots = set(oracles.reflection_closure(t.cartan_matrix()))
    duals = {root: oracles.killing_dual(rs, root) for root in roots}
    for a in roots:
        norm = oracles.pair(a, duals[a])
        assert norm > 0
        for b in roots:
            pairing = 2 * oracles.pair(b, duals[a]) / norm
            assert pairing.denominator == 1
            image = tuple(cb - pairing * ca for ca, cb in zip(a, b))
            assert image in roots


def test_killing_dual_a1():
    rs = build_root_system([SimpleType("A", 1)])
    h = oracles.killing_dual(rs, (1,))
    assert h.coords == (F(1, 2),)


def test_killing_dual_zero():
    rs = build_root_system([SimpleType("D", 4)])
    h = oracles.killing_dual(rs, (0,) * 4)
    assert all(c == 0 for c in h.coords)


def test_killing_dual_d4_orthogonal_pair():
    # omega_1 + omega_2 = a1 + 2 a2 + a3 + a4 in D_4; its dual is
    # (f_1 + f_2) / (4 (r - 1)) = (f_1 + f_2) / 12, with evaluations
    # (0, 1/12, 0, 0) against the simple roots.
    rs = build_root_system([SimpleType("D", 4)])
    h = oracles.killing_dual(rs, (1, 2, 1, 1))
    assert h.coords == (F(0), F(1, 12), F(0), F(0))


@pytest.mark.parametrize("rank,expected", [(4, 12), (5, 16)])
def test_d_gram_is_scaled_identity_in_orthogonal_coordinates(rank, expected):
    # B(f_k, f_k) = 4 (r - 1) for D_r; f_k evaluations read off the
    # simple-root expansion in orthogonal coordinates.
    rs = build_root_system([SimpleType("D", rank)])
    simple = oracles.simple_roots_e("D", rank)
    for k in range(rank):
        fk = VectorH(tuple(F(simple[i][k]) for i in range(rank)))
        for l in range(rank):
            fl = VectorH(tuple(F(simple[i][l]) for i in range(rank)))
            assert oracles.killing_form(rs, fk, fl) == (expected if k == l else 0)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_killing_dual_symmetry(letter, rank):
    t = SimpleType(letter, rank)
    rs = build_root_system([t])
    roots = oracles.reflection_closure(t.cartan_matrix())
    duals = {root: oracles.killing_dual(rs, root) for root in roots}
    for a in roots:
        for b in roots:
            lhs = oracles.killing_form(rs, duals[a], duals[b])
            assert lhs == oracles.pair(a, duals[b])
            assert lhs == oracles.pair(b, duals[a])


def test_evaluate_dual_basis():
    # The reference pairing: simple-root coefficients against evaluations.
    e1 = VectorH.unit(2, 0)
    assert oracles.pair((1, 0), e1) == 1
    assert oracles.pair((1, 1), e1) == 1
    assert oracles.pair((0, 0), VectorH((F(7), F(-3)))) == 0


def test_multi_component_block_structure():
    rs = build_root_system([SimpleType("A", 1), SimpleType("A", 1)])
    assert rs.positive_roots == ((0, 1), (1, 0))
    assert rs.gram == ((2, 0), (0, 2))
    rs2 = build_root_system([SimpleType("A", 1), SimpleType("B", 2)])
    assert rs2.rank == 3
    assert len(rs2.positive_roots) == 1 + 4
    assert rs2.gram[0][1] == rs2.gram[0][2] == 0


@pytest.mark.parametrize(
    "letter,rank",
    [("D", 2), ("B", 1), ("C", 1), ("E", 9), ("E", 5), ("F", 3), ("G", 4), ("H", 2), ("A", 0),
     ("AB", 2), ("EF", 6), ("", 1), (None, 2)],
)
def test_inadmissible_types_rejected(letter, rank):
    with pytest.raises(InputError):
        SimpleType(letter, rank)


def test_empty_spec_rejected():
    with pytest.raises(InputError):
        build_root_system([])


def test_roots_sorted_deterministically():
    rs = build_root_system([SimpleType("B", 3)])
    assert list(rs.positive_roots) == sorted(rs.positive_roots)
