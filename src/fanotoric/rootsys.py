"""Root systems of semisimple Lie algebras in exact rational arithmetic.

Coordinate conventions used throughout the package:

* An element h of the real Cartan subspace is stored by its evaluations
  against the simple roots, coords = (alpha_1(h), ..., alpha_r(h)).
* A functional on the Cartan subspace is stored by its coefficients over
  the simple-root basis; roots are the integer instances.
* Compact-torus elements W are represented by their real avatar h with
  W = -i h, so the chamber pairing i alpha(W) equals alpha(h) and every
  downstream computation stays rational.
* The Killing form restricted to the Cartan subspace is
  B(h, h') = sum over all roots beta of beta(h) beta(h'); in evaluation
  coordinates its Gram matrix is the integer matrix
  sum_beta c(beta) c(beta)^T over root coefficient vectors, that is twice
  the sum over the positive roots, since -beta adds the same c c^T.  This
  is the genuine Killing normalization, not a rescaled invariant form.

The positive roots of each simple component are built one height at a
time from its Cartan matrix by the root-string rule (_component_roots);
only they are stored, as the negative roots enter only the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence

from .errors import InputError

Root = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}


@dataclass(frozen=True, order=True)
class SimpleType:
    """An admissible simple Dynkin type, e.g. SimpleType('D', 10)."""

    letter: str
    rank: int

    def __post_init__(self) -> None:
        if self.letter not in tuple("ABCDEFG"):
            raise InputError(f"unknown Dynkin letter {self.letter!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InputError(f"rank must be a positive integer, got {self.rank!r}")
        if self.letter == "E":
            if self.rank not in (6, 7, 8):
                raise InputError(f"E{self.rank} is not admissible")
        elif self.letter in ("F", "G"):
            if self.rank != _MIN_RANK[self.letter]:
                raise InputError(f"{self.letter}{self.rank} is not admissible")
        elif self.rank < _MIN_RANK[self.letter]:
            raise InputError(
                f"{self.letter}{self.rank} is not admissible "
                f"(min rank {_MIN_RANK[self.letter]})"
            )

    @property
    def root_count(self) -> int:
        r = self.rank
        if self.letter == "A":
            return r * (r + 1)
        if self.letter in ("B", "C"):
            return 2 * r * r
        if self.letter == "D":
            return 2 * r * (r - 1)
        if self.letter == "G":
            return 12
        if self.letter == "F":
            return 48
        return {6: 72, 7: 126, 8: 240}[r]

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Cartan matrix with entries a[i][j] = <alpha_i, alpha_j^check>."""
        r = self.rank
        a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

        def link(i: int, j: int) -> None:
            a[i][j] = -1
            a[j][i] = -1

        if self.letter in ("A", "B", "C", "F"):
            for i in range(r - 1):
                link(i, i + 1)
            if self.letter == "B":
                a[r - 2][r - 1] = -2
            elif self.letter == "C":
                a[r - 1][r - 2] = -2
            elif self.letter == "F":
                a[1][2] = -2
        elif self.letter == "D":
            for i in range(r - 2):
                link(i, i + 1)
            link(r - 3, r - 1)
        elif self.letter == "G":
            a[0][1] = -1
            a[1][0] = -3
        else:  # E6, E7, E8
            edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
            if r >= 7:
                edges.append((5, 6))
            if r == 8:
                edges.append((6, 7))
            for i, j in edges:
                link(i, j)
        return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class VectorH:
    """Element of the real Cartan subspace, in simple-root evaluations."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @classmethod
    def unit(cls, rank: int, index: int) -> "VectorH":
        return cls(tuple(Fraction(1 if i == index else 0) for i in range(rank)))


@dataclass(frozen=True)
class RootSystem:
    """A semisimple root datum with its Killing Gram matrix.

    positive_roots are the positive roots as coefficient vectors over the
    concatenated simple-root basis, sorted lexicographically.
    """

    components: tuple[SimpleType, ...]
    positive_roots: tuple[Root, ...]
    gram: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.components)


def _component_roots(cartan: Sequence[Sequence[int]]) -> list[Root]:
    """The positive roots of one component, one height at a time.

    Each root beta carries its Cartan pairings <beta, alpha_j^check>: row i
    of the Cartan matrix for alpha_i, plus row j for each step by alpha_j.
    beta + alpha_j is a root iff p > <beta, alpha_j^check>, where p is the
    length of the alpha_j-string below beta (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 9.4 and 10.1).  Strings are
    unbroken, so p exceeds a pairing n >= 0 iff beta - (n + 1) alpha_j is
    one of the lower roots already found; a negative pairing always passes.
    The roots are returned unsorted.
    """
    r = len(cartan)
    layer = {
        tuple(1 if k == i else 0 for k in range(r)): tuple(cartan[i]) for i in range(r)
    }
    found = set(layer)
    while layer:
        nxt: dict[Root, tuple[int, ...]] = {}
        for root, pairing in layer.items():
            for j, n in enumerate(pairing):
                if n >= 0:
                    below = root[j] - n - 1
                    if below < 0 or root[:j] + (below,) + root[j + 1 :] not in found:
                        continue
                up = root[:j] + (root[j] + 1,) + root[j + 1 :]
                if up not in nxt:
                    nxt[up] = tuple(map(add, pairing, cartan[j]))
        found.update(nxt)
        layer = nxt
    return list(found)


def build_root_system(spec: Iterable[SimpleType]) -> RootSystem:
    """Construct the root system of an ordered list of simple types."""
    types = tuple(spec)
    if not types:
        raise InputError("component list is empty")
    total = sum(t.rank for t in types)
    positives: list[Root] = []
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for t in types:
        comp = _component_roots(t.cartan_matrix())
        if 2 * len(comp) != t.root_count:
            raise AssertionError(
                f"{t.letter}{t.rank}: generated {2 * len(comp)} roots, "
                f"expected {t.root_count}"
            )
        pad_left = (0,) * offset
        pad_right = (0,) * (total - offset - t.rank)
        positives.extend(pad_left + c + pad_right for c in comp)
        # A root and its negative add the same c c^T: twice the positive sum.
        cols = list(zip(*comp))
        for a, ca in enumerate(cols):
            for b in range(a, t.rank):
                i, j = offset + a, offset + b
                gram[i][j] = gram[j][i] = 2 * sum(map(mul, ca, cols[b]))
        offset += t.rank
    return RootSystem(
        components=types,
        positive_roots=tuple(sorted(positives)),
        gram=tuple(tuple(row) for row in gram),
    )
