"""Independent oracles used by the tests.

Two root-system oracles stand apart from the height-by-height construction
of rootsys: the classical roots enumerated directly in the
orthogonal-coordinate model, and the whole root system built by closing
the simple roots under the simple reflections.  The polytope oracle
enumerates vertices of {u : <u, ray> >= -1} by intersecting subsets of
boundary hyperplanes, bypassing the fixed-point method.

The Killing form, the Killing dual over the full r x r Gram matrix, the
root pairing and the diagram automorphisms are the references the engine's
crossed-block computations are held to; the engine itself runs none of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from fanotoric import RootSystem, VectorH, _linalg


def coordinate_sum(rank: int, terms) -> VectorH:
    """The sum of c * v over the (c, v) pairs in terms, coordinate by
    coordinate; the zero vector of the rank when terms is empty."""
    total = [Fraction(0)] * rank
    for c, v in terms:
        assert len(v.coords) == rank, "rank mismatch"
        total = [t + c * x for t, x in zip(total, v.coords)]
    return VectorH(tuple(total))


def pair(coeffs, h: VectorH) -> Fraction:
    """alpha(h) for the functional alpha with these simple-root coefficients."""
    return sum((c * x for c, x in zip(coeffs, h.coords)), Fraction(0))


def killing_form(rs: RootSystem, h1: VectorH, h2: VectorH) -> Fraction:
    """B(h1, h2) = h1^T gram h2 in evaluation coordinates."""
    return sum(
        (x * g * y for gi, x in zip(rs.gram, h1.coords) for g, y in zip(gi, h2.coords)),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def _gram_inverse(gram) -> list[list[Fraction]]:
    return _linalg.invert(gram)[1]


def killing_dual(rs: RootSystem, coeffs) -> VectorH:
    """The h with B(h, .) equal to the functional with these simple-root
    coefficients: gram^-1 coeffs over the full r x r Gram matrix."""
    rows = _gram_inverse(rs.gram)
    return VectorH(tuple(sum(g * c for g, c in zip(row, coeffs)) for row in rows))


def diagram_automorphisms(t) -> tuple[tuple[int, ...], ...]:
    """Generators of the nontrivial diagram symmetries of a simple type.

    Each generator is a node permutation p with image p[i]; types without
    outer symmetries yield an empty tuple.
    """
    r = t.rank
    gens: list[tuple[int, ...]] = []
    if t.letter == "A" and r >= 2:
        gens.append(tuple(reversed(range(r))))
    elif t.letter == "D":
        swap = list(range(r))
        swap[r - 2], swap[r - 1] = swap[r - 1], swap[r - 2]
        gens.append(tuple(swap))
        if r == 4:
            tri = list(range(4))
            tri[0], tri[2] = tri[2], tri[0]
            gens.append(tuple(tri))
    elif t.letter == "E" and r == 6:
        gens.append((5, 1, 4, 3, 2, 0))
    return tuple(gens)


def simple_roots_e(letter: str, rank: int) -> list[tuple[int, ...]]:
    """Simple roots of a classical type in orthogonal coordinates."""
    dim = rank + 1 if letter == "A" else rank

    def e(i: int, c: int = 1) -> list[int]:
        v = [0] * dim
        v[i] = c
        return v

    roots = []
    for i in range(rank - 1):
        v = e(i)
        v[i + 1] = -1
        roots.append(tuple(v))
    if letter == "A":
        v = e(rank - 1)
        v[rank] = -1
        roots.append(tuple(v))
    elif letter == "B":
        roots.append(tuple(e(rank - 1)))
    elif letter == "C":
        roots.append(tuple(e(rank - 1, 2)))
    elif letter == "D":
        v = e(rank - 2)
        v[rank - 1] = 1
        roots.append(tuple(v))
    else:
        raise ValueError(f"not a classical letter: {letter}")
    return roots


def all_roots_e(letter: str, rank: int) -> set[tuple[int, ...]]:
    """All classical roots in orthogonal coordinates, by direct enumeration."""
    out: set[tuple[int, ...]] = set()
    dim = rank + 1 if letter == "A" else rank
    if letter == "A":
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    out.add(tuple(v))
        return out
    for i in range(rank):
        for j in range(i + 1, rank):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * rank
                    v[i], v[j] = si, sj
                    out.add(tuple(v))
    if letter == "B":
        for i in range(rank):
            for s in (1, -1):
                v = [0] * rank
                v[i] = s
                out.add(tuple(v))
    elif letter == "C":
        for i in range(rank):
            for s in (2, -2):
                v = [0] * rank
                v[i] = s
                out.add(tuple(v))
    elif letter != "D":
        raise ValueError(f"not a classical letter: {letter}")
    return out


def coeffs_to_e(letter: str, rank: int, coeffs) -> tuple[int, ...]:
    """Map a simple-root coefficient vector into orthogonal coordinates."""
    simple = simple_roots_e(letter, rank)
    dim = len(simple[0])
    out = [0] * dim
    for c, root in zip(coeffs, simple):
        for k in range(dim):
            out[k] += c * root[k]
    return tuple(out)


def halfspace_vertices(rays, dim) -> frozenset[tuple[Fraction, ...]]:
    """Vertices of {u : <u, ray> >= -1 for all rays} by brute force."""
    if dim == 0:
        return frozenset({()})
    found = set()
    for sub in combinations(range(len(rays)), dim):
        det, inverse = _linalg.invert([rays[i] for i in sub])
        if det == 0:
            continue
        # u solves rows u = (-1, ..., -1): minus the row sums of the inverse.
        u = [-sum(row) for row in inverse]
        if all(
            sum(Fraction(x) * c for x, c in zip(u, ray)) >= -1 for ray in rays
        ):
            found.add(tuple(u))
    return frozenset(found)


def reflection_closure(cartan) -> list[tuple[int, ...]]:
    """All roots of one simple type, by closing its base under the simple
    reflections s_j(beta) = beta - <beta, alpha_j^check> alpha_j, sorted."""
    r = len(cartan)
    simple = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for j in range(r):
                pairing = sum(c * cartan[i][j] for i, c in enumerate(root))
                if pairing == 0:
                    continue
                image = list(root)
                image[j] -= pairing
                image = tuple(image)
                if image not in found:
                    found.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(found)


def reference_root_system(types) -> RootSystem:
    """The root system of an ordered list of simple types from the
    reflection closure, with the Gram matrix summed over all roots."""
    total = sum(t.rank for t in types)
    roots = []
    offset = 0
    for t in types:
        pad_left, pad_right = (0,) * offset, (0,) * (total - offset - t.rank)
        roots.extend(pad_left + c + pad_right for c in reflection_closure(t.cartan_matrix()))
        offset += t.rank
    roots.sort()
    gram = tuple(
        tuple(sum(root[i] * root[j] for root in roots) for j in range(total))
        for i in range(total)
    )
    return RootSystem(
        components=tuple(types),
        roots=tuple(roots),
        positive=tuple(all(c >= 0 for c in root) for root in roots),
        gram=gram,
    )
