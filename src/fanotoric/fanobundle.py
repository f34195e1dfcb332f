"""Bundle assembly and the exact first-Chern positivity verdict.

Bundle data is a painted flag, a smooth complete fan for the toric fiber,
and a rational m x k matrix describing the twisting homomorphism tau on
z(k) with respect to a declared basis (columns are images of the basis
vectors in the fiber cocharacter lattice).  Positivity of the first Chern
class of the total space holds iff the fiber is Fano and every margin
alpha(h_Q) is strictly positive, where alpha runs over the complementary
positive roots, Q over the canonical polytope vertices, and
h_Q = h_V + B|_z(k)^{-1}(tau^* Q).  A margin of exactly zero means the
bundle is not Fano.

Q -> h_Q is affine and lands in z(k), where every uncrossed coordinate
vanishes.  So it is held as one k x m pullback matrix P = A tau^T over the
crossed coordinates, where A = Gamma^{-1} B^{-T} (Gamma the crossed Killing
Gram block, inverted once per flag; B the basis's crossed coordinates,
inverted once per basis).  By the lemma of flagbase.in_chamber, every margin
is positive iff the k crossed coordinates of every h_Q (_lift) are, so the
verdict is decided on k |V| inequalities.  Every other per-tau fact is read
off the verdict's own P: the |R_m+| x |V| margin table (_table), the rank of
tau, and the integrality of tau on lattice generators.

fano_scan is the one verdict path and the one place a bundle is validated
and its basis resolved: one validation, one fiber pass and one map A, then
one verdict per tau matrix.  fano_check is its one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import _linalg
from .errors import DomainError, InputError
from .flagbase import FlagManifold, _pair
from .rootsys import Root, VectorH
# is_fano stays bound here: perfbench/test_bench.py checks that the tracer
# rebinds names imported from toricfiber, and reads fanobundle.is_fano.
from .toricfiber import Fan, FanDiagnostics, _require_smooth_complete
from .toricfiber import is_fano  # noqa: F401

Rows = Sequence[Sequence[Fraction]]


@dataclass(frozen=True)
class TauMap:
    """Rational matrix of tau against a declared z(k) basis.

    basis defaults to the flag's crossed-node basis when omitted.  Rows
    are fiber lattice coordinates, columns correspond to basis vectors.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    basis: tuple[VectorH, ...] | None = None

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise InputError("tau matrix rows have inconsistent lengths")
        object.__setattr__(self, "matrix", rows)
        if self.basis is not None:
            object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def fiber_dim(self) -> int:
        return len(self.matrix)

    def scaled(self, k: Fraction | int) -> "TauMap":
        k = Fraction(k)
        return TauMap(
            tuple(tuple(k * x for x in row) for row in self.matrix), self.basis
        )


@dataclass(frozen=True)
class MarginEntry:
    """alpha(h_Q) for the root alpha at vertex Q = polytope.vertices[vertex_index]."""

    vertex_index: int
    root: Root
    value: Fraction


@dataclass(frozen=True)
class FanoVerdict:
    """The verdict on one tau, with the fiber pass it was decided on.

    is_fano is decided on the crossed simple roots alone (the fiber's own
    flag is fiber.fano).  margins (alpha(h_Q) for every polytope vertex Q
    and alpha in R_m+, vertex-major in R_m+ order) and surjective are built
    on first read, and integrality at each call, from the pullback matrix P
    of the verdict; none takes part in ==.  A point fiber has no margins.
    """

    is_fano: bool
    fiber: FanDiagnostics
    _flag: FlagManifold = field(repr=False, compare=False)
    _pull: list[list[Fraction]] = field(repr=False, compare=False)

    @cached_property
    def margins(self) -> tuple[MarginEntry, ...]:
        polytope = self.fiber.polytope
        return _table(self._flag, self._pull, polytope.vertices) if polytope.dim else ()

    @cached_property
    def surjective(self) -> bool:
        """Whether tau has full rank onto the fiber torus Lie algebra.

        A is invertible, so rank P = rank tau.  Degenerate tau maps are
        evaluated rather than rejected: the margin criterion still answers
        correctly for the resulting product-like bundles (the tau = 0 case
        reduces to the fiber and the flag being Fano separately).
        """
        m = self.fiber.polytope.dim
        return m == 0 or _linalg.matrix_rank(self._pull) == m

    def integrality(self, generators: Sequence[VectorH] | None) -> bool | None:
        """Whether tau maps the given lattice generators into the fiber lattice.

        Returns None ("not checked") when no generators are supplied; the
        verdict does not depend on this.  P^T = tau B^{-1} Gamma^{-1}, so a
        generator g of z(k) maps to tau B^{-1} g = P^T (Gamma g) over the
        crossed coordinates.
        """
        if generators is None:
            return None
        flag = self._flag
        crossed = flag.painting.crossed
        gram = [[flag.rs.gram[x][y] for y in crossed] for x in crossed]
        for gen in generators:
            if not self._pull:
                raise InputError("empty basis")
            if not flag.in_zk(gen):
                raise DomainError("h is outside the span of the basis")
            coords = [gen.coords[y] for y in crossed]
            g = [_dot(row, coords) for row in gram]
            if any(_dot(col, g).denominator != 1 for col in zip(*self._pull)):
                return False
        return True


def _basis(flag: FlagManifold, tau: TauMap) -> list[list[Fraction]]:
    """Check tau's declared z(k) basis against the flag; B^{-1} for _gram_map."""
    k = len(flag.painting.crossed)
    basis = tau.basis if tau.basis is not None else flag.zk_basis_default
    if len(basis) != k:
        raise InputError(
            f"declared basis has {len(basis)} vectors, dim z(k) is {k}"
        )
    for b in basis:
        if not flag.in_zk(b):
            raise DomainError("declared basis vector is not in z(k)")
    _require_width(tau, k)
    rows = [[b.coords[x] for b in basis] for x in flag.painting.crossed]
    det, inverse = _linalg.invert(rows)
    if det == 0:
        raise InputError("declared basis is dependent")
    return inverse


def _require_width(tau: TauMap, k: int) -> None:
    if tau.matrix and any(len(row) != k for row in tau.matrix):
        raise InputError(
            f"tau matrix has {len(tau.matrix[0])} columns, expected {k}"
        )


def _require_rows(fan: Fan, tau: TauMap) -> None:
    if fan.dim != tau.fiber_dim:
        raise InputError(
            f"fan dimension {fan.dim} does not match tau rows {tau.fiber_dim}"
        )


def _gram_map(flag: FlagManifold, basis_inverse: Rows) -> Rows:
    """The k x k map A = B G^{-1} = Gamma^{-1} B^{-T}, G = B^T Gamma B the basis
    Gram matrix, from tau^T Q to the crossed coordinates of h_Q - h_V."""
    return [[_dot(g, b) for b in basis_inverse] for g in flag._crossed_inverse]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction], start=Fraction(0)) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), start)


def _pull_matrix(gram_map: Rows, tau: TauMap) -> list[list[Fraction]]:
    """The k x m pullback matrix A tau^T: row x maps Q to crossed coordinate x."""
    return [[_dot(arow, trow) for trow in tau.matrix] for arow in gram_map]


def _lift(flag: FlagManifold, pull: Rows, q: Sequence[Fraction]) -> Iterator[Fraction]:
    """The crossed coordinates of h_Q = h_V + P Q, lazily, in crossed-node order."""
    h_v = flag.h_V.coords
    return (_dot(row, q, h_v[x]) for x, row in zip(flag.painting.crossed, pull))


def _table(flag: FlagManifold, pull: Rows, vertices: Rows) -> tuple[MarginEntry, ...]:
    """alpha(h_Q) for every vertex Q and alpha in R_m+, vertex-major."""
    return tuple(
        MarginEntry(vi, root, value)
        for vi, q in enumerate(vertices)
        for root, value in _pair(flag, tuple(_lift(flag, pull, q)))
    )


def fano_scan(
    flag: FlagManifold, fan: Fan, tau: TauMap, matrices: Iterable[Sequence]
) -> Iterator[FanoVerdict]:
    """Decide positivity of the first Chern class for each tau matrix in turn.

    flag, fan and tau are validated at the call, with one fiber pass and
    one Gram map for tau.basis; the verdicts follow lazily, one per matrix,
    each checked for its width and row count as fano_check checks tau.  A
    point fan leaves the flag manifold itself, always Fano, with no margins.
    """
    gram_map = _gram_map(flag, _basis(flag, tau))
    _require_rows(fan, tau)
    diag = _require_smooth_complete(fan)
    vertices = diag.polytope.vertices

    def verdicts() -> Iterator[FanoVerdict]:
        for matrix in matrices:
            each = TauMap(matrix, tau.basis)
            _require_width(each, len(gram_map))
            _require_rows(fan, each)
            pull = _pull_matrix(gram_map, each)
            # Crossed coordinate x of h_Q is alpha_x(h_Q); by the lemma of
            # flagbase.in_chamber these k |V| margins decide the table.
            fano = diag.fano and all(
                h > 0 for q in vertices for h in _lift(flag, pull, q)
            )
            yield FanoVerdict(fano, diag, flag, pull)

    return verdicts()


def fano_check(flag: FlagManifold, fan: Fan, tau: TauMap) -> FanoVerdict:
    """Decide positivity of the first Chern class of the bundle (see fano_scan)."""
    return next(fano_scan(flag, fan, tau, (tau.matrix,)))
