import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fanotoric import (
    DomainError,
    InputError,
    Painting,
    SimpleType,
    VectorH,
    build_flag,
    build_root_system,
    chamber_margins,
    in_chamber,
)


def d_flag(rank, crossed):
    rs = build_root_system([SimpleType("D", rank)])
    return build_flag(rs, Painting(tuple(crossed)))


def test_a1_full_flag():
    rs = build_root_system([SimpleType("A", 1)])
    flag = build_flag(rs, Painting((0,)))
    assert flag.r_m_plus == rs.positive_roots == ((1,),)
    assert flag.h_V.coords == (F(1, 2),)
    assert chamber_margins(flag, flag.h_V) == (((1,), F(1, 2)),)


def test_a2_full_flag_is_borel():
    rs = build_root_system([SimpleType("A", 2)])
    flag = build_flag(rs, Painting((0, 1)))
    assert flag.r_m_plus == rs.positive_roots
    assert len(flag.r_m_plus) == 3


def test_d10_split_and_margin():
    # Crossed nodes 5 and 10 (1-based); |R_m+| = n(2n-1) + n^2 at n = 5.
    # h_V weights one block of orthogonal coordinates (n-1)/(4(2n-1)) and
    # the other (3n-1)/(4(2n-1)); the margin multiset is therefore
    # {2/9 x10, 7/9 x10, 1/2 x25, 5/18 x25} independent of block labels.
    n = 5
    flag = d_flag(10, (4, 9))
    assert len(flag.r_m_plus) == 70
    values = sorted(v for _, v in chamber_margins(flag, flag.h_V))
    expected = sorted(
        [F(2, 9)] * 10 + [F(7, 9)] * 10 + [F(1, 2)] * 25 + [F(5, 18)] * 25
    )
    assert values == expected
    assert values.count(F(2, 9)) == n * (n - 1) // 2


def test_d_2n_r_m_plus_families():
    # Sums e_i + e_j all appear; differences only across the painted cut
    # (with the sign fixed by the standard positive system).
    n = 3
    flag = d_flag(2 * n, (n - 1, 2 * n - 1))
    mapped = {oracles.coeffs_to_e("D", 2 * n, r) for r in flag.r_m_plus}
    expected = set()
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            v = [0] * (2 * n)
            v[i], v[j] = 1, 1
            expected.add(tuple(v))
    for i in range(n):
        for j in range(n, 2 * n):
            v = [0] * (2 * n)
            v[i], v[j] = 1, -1
            expected.add(tuple(v))
    assert mapped == expected


def test_h_v_lies_in_zk_and_chamber():
    for letter, rank, crossed in [
        ("A", 3, (1,)),
        ("B", 3, (0, 2)),
        ("C", 4, (3,)),
        ("D", 4, (0,)),
        ("G", 2, (1,)),
    ]:
        rs = build_root_system([SimpleType(letter, rank)])
        flag = build_flag(rs, Painting(crossed))
        assert flag.in_zk(flag.h_V)
        assert in_chamber(flag, flag.h_V)


def test_r_o_closed_under_negation_and_reflection():
    # R_o is every root of the closure off the crossed node; R_m+ is the
    # rest of the positive half.
    t = SimpleType("D", 4)
    rs = build_root_system([t])
    flag = build_flag(rs, Painting((1,)))
    roots = oracles.reflection_closure(t.cartan_matrix())
    r_o = {r for r in roots if r[1] == 0}
    assert set(flag.r_m_plus) == {r for r in roots if r[1] > 0}
    for a in r_o:
        assert tuple(-c for c in a) in r_o
    for a in r_o:
        ha = oracles.killing_dual(rs, a)
        norm = oracles.pair(a, ha)
        for b in r_o:
            pairing = 2 * oracles.pair(b, ha) / norm
            image = tuple(cb - pairing * ca for ca, cb in zip(a, b))
            assert image in r_o


def test_chamber_margins_rejects_vectors_outside_zk():
    flag = d_flag(4, (1,))
    bad = VectorH((F(1), F(0), F(0), F(0)))
    with pytest.raises(DomainError):
        chamber_margins(flag, bad)


def test_zero_vector_not_in_chamber():
    flag = d_flag(4, (1,))
    zero = oracles.coordinate_sum(4, [])
    margins = chamber_margins(flag, zero)
    assert all(v == 0 for _, v in margins)
    assert not in_chamber(flag, zero)


def test_margin_multiset_invariant_under_fixing_automorphism():
    # A_3 with the middle node crossed is preserved by the diagram flip.
    rs = build_root_system([SimpleType("A", 3)])
    flag = build_flag(rs, Painting((1,)))
    perm = (2, 1, 0)
    h = flag.h_V
    permuted = VectorH(tuple(h.coords[perm[i]] for i in range(3)))
    assert permuted == h
    base = sorted(v for _, v in chamber_margins(flag, h))
    image = sorted(v for _, v in chamber_margins(flag, permuted))
    assert base == image
    # D_4 with the center crossed is preserved by triality.
    flag4 = d_flag(4, (1,))
    for perm in ((0, 1, 3, 2), (2, 1, 0, 3)):
        h4 = flag4.h_V
        permuted4 = VectorH(tuple(h4.coords[perm.index(i)] for i in range(4)))
        assert flag4.in_zk(permuted4)
        assert sorted(v for _, v in chamber_margins(flag4, permuted4)) == sorted(
            v for _, v in chamber_margins(flag4, h4)
        )


def test_all_paintings_rank_three_stay_in_chamber():
    types = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]
    for letter, rank in types:
        rs = build_root_system([SimpleType(letter, rank)])
        nodes = range(rank)
        for size in range(1, rank + 1):
            for crossed in combinations(nodes, size):
                flag = build_flag(rs, Painting(crossed))
                assert in_chamber(flag, flag.h_V), (letter, rank, crossed)


def test_crossed_out_of_range():
    rs = build_root_system([SimpleType("A", 2)])
    with pytest.raises(InputError):
        build_flag(rs, Painting((2,)))


def test_empty_painting_allowed_for_flag_queries():
    rs = build_root_system([SimpleType("A", 2)])
    flag = build_flag(rs, Painting(()))
    assert flag.r_m_plus == ()
    assert all(c == 0 for c in flag.h_V.coords)
    assert chamber_margins(flag, flag.h_V) == ()


@lru_cache(maxsize=None)
def _root_system(letter, rank):
    return build_root_system([SimpleType(letter, rank)])


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from(
        [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]
    ),
    st.data(),
)
def test_in_chamber_equals_all_margins_positive(base, data):
    rs = _root_system(*base)
    crossed = data.draw(
        st.lists(st.integers(0, rs.rank - 1), max_size=rs.rank, unique=True)
    )
    flag = build_flag(rs, Painting(tuple(crossed)))
    coords = [F(0)] * rs.rank
    for x in flag.painting.crossed:
        coords[x] = data.draw(st.builds(F, st.integers(-2, 6), st.integers(1, 4)))
    if crossed and data.draw(st.booleans()):
        coords[data.draw(st.sampled_from(crossed))] = F(0)
    h = VectorH(tuple(coords))
    margins = chamber_margins(flag, h)
    assert in_chamber(flag, h) == all(v > 0 for _, v in margins)


@lru_cache(maxsize=None)
def _multi_root_system(*types):
    return build_root_system([SimpleType(*t) for t in types])


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from(
        [(("A", 4),), (("B", 3),), (("G", 2),), (("F", 4),), (("E", 6),),
         (("B", 3), ("A", 2)), (("C", 3), ("G", 2), ("A", 1))]
    ),
    st.data(),
)
def test_chamber_margins_pair_each_root_as_evaluate_does(types, data):
    # The reference pairs every root of R_m+ with h on all r coordinates,
    # one root at a time; h's crossed coordinates may be zero or negative.
    rs = _multi_root_system(*types)
    crossed = data.draw(
        st.lists(st.integers(0, rs.rank - 1), max_size=rs.rank, unique=True)
    )
    flag = build_flag(rs, Painting(tuple(crossed)))
    coords = [F(0)] * rs.rank
    for x in flag.painting.crossed:
        coords[x] = data.draw(st.builds(F, st.integers(-5, 5), st.integers(1, 4)))
    h = VectorH(tuple(coords))
    assert chamber_margins(flag, h) == tuple(
        (root, oracles.pair(root, h)) for root in flag.r_m_plus
    )


def assert_h_v_is_the_killing_dual(rs, paintings):
    # oracles.killing_dual inverts the full r x r Gram matrix, the reference
    # for the crossed-block solve in build_flag.
    for crossed in paintings:
        flag = build_flag(rs, Painting(tuple(crossed)))
        total = [sum(root[j] for root in flag.r_m_plus) for j in range(rs.rank)]
        assert flag.h_V == oracles.killing_dual(rs, total), crossed


def at_most_two_nodes(rank):
    return [c for k in (0, 1, 2) for c in combinations(range(rank), k)]


@pytest.mark.parametrize(
    "letter,rank",
    [(letter, rank) for letter, low in zip("ABCD", (1, 2, 2, 3)) for rank in range(low, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_h_v_equals_killing_dual_on_paintings_of_at_most_two_nodes(letter, rank):
    assert_h_v_is_the_killing_dual(_root_system(letter, rank), at_most_two_nodes(rank))


@pytest.mark.parametrize("letter", "ABCD")
def test_h_v_equals_killing_dual_at_rank_20(letter):
    rng = random.Random(20)
    paintings = [(x,) for x in range(20)] + [rng.sample(range(20), 3) for _ in range(5)]
    assert_h_v_is_the_killing_dual(_root_system(letter, 20), paintings)


def test_h_v_equals_killing_dual_on_two_components():
    rs = build_root_system([SimpleType("B", 3), SimpleType("A", 2)])
    assert_h_v_is_the_killing_dual(rs, at_most_two_nodes(rs.rank))
