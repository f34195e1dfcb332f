"""Independent oracles used by the tests.

Two root-system oracles stand apart from the height-by-height construction
of rootsys: the classical roots enumerated directly in the
orthogonal-coordinate model, and the whole root system built by closing
the simple roots under the simple reflections.  The polytope oracle
enumerates vertices of {u : <u, ray> >= -1} by intersecting subsets of
boundary hyperplanes, bypassing the fixed-point method.  The lattice oracle
decides whether a fan's rays span Z^dim by integer row reduction.  The
total-space oracle writes down the fan of a bundle over a product of
projective spaces and decides it Fano from the tight rays of those vertices
alone.

The Killing form, the Killing dual over the full r x r Gram matrix, the
pullback Q -> h_Q solved against the Killing form, the root pairing and the
diagram automorphisms are the references the engine's crossed-block
computations are held to; the engine itself runs none of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

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


def pullback(flag, tau, q) -> VectorH:
    """h_Q = h_V + sum_j c_j b_j, with c solving sum_j B(b_i, b_j) c_j =
    (tau^T q)_i for the declared basis b (the flag's default when none),
    B the Killing form over the full Gram matrix."""
    rs = flag.rs
    basis = tau.basis if tau.basis is not None else flag.zk_basis_default
    m = len(tau.matrix)
    assert len(q) == m, "point length differs from the fiber dimension"
    det, inverse = _linalg.invert(
        [[killing_form(rs, bi, bj) for bj in basis] for bi in basis]
    )
    assert det != 0, "dependent basis"
    rhs = [sum((Fraction(q[l]) * tau.matrix[l][i] for l in range(m)), Fraction(0))
           for i in range(len(basis))]
    coeffs = [sum((g * r for g, r in zip(row, rhs)), Fraction(0)) for row in inverse]
    return coordinate_sum(rs.rank, [(1, flag.h_V)] + list(zip(coeffs, basis)))


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


def spans_lattice(rays, dim) -> bool:
    """Whether the integer rays generate Z^dim, by integer row reduction:
    Euclid's algorithm down each column leaves one pivot per column, and
    the rays span iff there are dim pivots whose product is +-1."""
    rows = [list(r) for r in rays]
    rank = 0
    index = 1
    for col in range(dim):
        while True:
            live = sorted(
                (i for i in range(rank, len(rows)) if rows[i][col]),
                key=lambda i: abs(rows[i][col]),
            )
            if not live:
                return False
            base = live[0]
            for i in live[1:]:
                q = rows[i][col] // rows[base][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
            if all(rows[i][col] == 0 for i in live[1:]):
                break
        rows[rank], rows[base] = rows[base], rows[rank]
        index *= rows[rank][col]
        rank += 1
    return abs(index) == 1


def total_space_fan(block_dims, fiber, columns):
    """Dimension, rays and maximal cones of the total space of a toric bundle
    over a product of projective spaces P^n_1 x ... x P^n_k.

    Block j is A_{n_j} crossed at an end node, and columns[j] is t_j, the
    image under tau of block j's character-dual basis vector (evaluation
    (n_j + 1) / n_j on its crossed node).  The lattice is the sum of the
    block lattices and the fiber's.  The rays are e_i for each block
    coordinate, one (-sum_i e_i, t_j) per block, and (0, r) for each ray r
    of the fiber; a maximal cone takes n_j of the n_j + 1 rays of each
    block and one maximal cone of the fiber.
    """
    dim = sum(block_dims) + fiber.dim
    rays = []
    blocks = []
    offset = 0
    for n, t in zip(block_dims, columns):
        start = len(rays)
        for i in range(n):
            ray = [0] * dim
            ray[offset + i] = 1
            rays.append(tuple(ray))
        ray = [0] * dim
        ray[offset : offset + n] = [-1] * n
        ray[dim - fiber.dim :] = t
        rays.append(tuple(ray))
        blocks.append(list(combinations(range(start, start + n + 1), n)))
        offset += n
    shift = len(rays)
    rays.extend((0,) * (dim - fiber.dim) + tuple(r) for r in fiber.rays)
    cones = [
        tuple(sorted(sum(parts, ()) + tuple(shift + i for i in cone)))
        for parts in product(*blocks)
        for cone in fiber.max_cones
    ]
    return dim, tuple(rays), tuple(cones)


def fano_by_tight_sets(dim, rays, cones) -> bool:
    """A complete smooth fan is Fano iff the vertices of
    {u : <u, ray> >= -1} have distinct tight-ray sets, and these are
    exactly the maximal cones."""
    tight = [
        frozenset(i for i, ray in enumerate(rays) if sum(x * c for x, c in zip(u, ray)) == -1)
        for u in halfspace_vertices(rays, dim)
    ]
    return len(set(tight)) == len(tight) and set(tight) == {frozenset(c) for c in cones}


def cofactor_det(a):
    """The determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def minor_rank(a):
    """The rank as the size of the largest nonzero minor."""
    m, n = len(a), len(a[0])
    for size in range(min(m, n), 0, -1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                if cofactor_det([[a[i][j] for j in cols] for i in rows]):
                    return size
    return 0


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
    reflection closure, with the Gram matrix summed over all roots and the
    positive roots those whose coefficients are all nonnegative."""
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
        positive_roots=tuple(root for root in roots if all(c >= 0 for c in root)),
        gram=gram,
    )
