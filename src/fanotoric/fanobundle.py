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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import DomainError, InputError
from .flagbase import FlagManifold, express_in_zk
from .rootsys import Root, VectorH
# is_fano stays bound here: perfbench/test_bench.py checks that the tracer
# rebinds names imported from toricfiber, and reads fanobundle.is_fano.
from .toricfiber import Fan, Polytope, _require_smooth_complete, is_fano  # noqa: F401


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
    vertex_index: int
    vertex: tuple[Fraction, ...]
    root: Root
    value: Fraction


@dataclass(frozen=True)
class FanoVerdict:
    fiber_fano: bool
    margins: tuple[MarginEntry, ...]
    is_fano: bool
    violations: tuple[MarginEntry, ...]


def _prepare(
    flag: FlagManifold, tau: TauMap
) -> tuple[tuple[VectorH, ...], tuple[tuple[Fraction, ...], ...]]:
    """Resolve and validate the declared basis; return it with its Gram matrix."""
    k = len(flag.painting.crossed)
    basis = tau.basis if tau.basis is not None else flag.zk_basis_default
    if len(basis) != k:
        raise InputError(
            f"declared basis has {len(basis)} vectors, dim z(k) is {k}"
        )
    for b in basis:
        if not flag.in_zk(b):
            raise DomainError("declared basis vector is not in z(k)")
    if tau.matrix and any(len(row) != k for row in tau.matrix):
        raise InputError(
            f"tau matrix has {len(tau.matrix[0])} columns, expected {k}"
        )
    if k:
        crossed = flag.painting.crossed
        cols = [[b.coords[i] for b in basis] for i in crossed]
        if _linalg.matrix_rank(cols) != k:
            raise InputError("declared basis is dependent")
    gram = tuple(
        tuple(flag.rs.killing_form(a, b) for b in basis) for a in basis
    )
    return tuple(basis), gram


def tau_is_surjective(flag: FlagManifold, tau: TauMap) -> bool:
    """Whether tau has full rank onto the fiber torus Lie algebra.

    Degenerate tau maps are evaluated rather than rejected: the margin
    criterion still answers correctly for the resulting product-like
    bundles (the tau = 0 case reduces to the fiber and the flag being
    Fano separately).
    """
    _prepare(flag, tau)
    m = tau.fiber_dim
    return m == 0 or _linalg.matrix_rank(tau.matrix) == m


def _pullback(
    flag: FlagManifold,
    tau: TauMap,
    basis: tuple[VectorH, ...],
    gram: tuple[tuple[Fraction, ...], ...],
    q: Sequence[Fraction | int],
) -> VectorH:
    qv = tuple(Fraction(x) for x in q)
    if len(qv) != tau.fiber_dim:
        raise InputError(
            f"point has length {len(qv)}, fiber dimension is {tau.fiber_dim}"
        )
    h = flag.h_V
    if not basis:
        return h
    pulled = tuple(
        sum((qi * tau.matrix[i][j] for i, qi in enumerate(qv)), Fraction(0))
        for j in range(len(basis))
    )
    coeffs = _linalg.solve_square(gram, pulled)
    for c, b in zip(coeffs, basis):
        if c:
            h = h + c * b
    return h


def pullback_point(
    flag: FlagManifold, tau: TauMap, q: Sequence[Fraction | int]
) -> VectorH:
    """h_Q = h_V + B|_z(k)^{-1}(tau^* Q) for a point Q of the fiber dual lattice."""
    return _pullback(flag, tau, *_prepare(flag, tau), q)


def fano_margins(
    flag: FlagManifold, tau: TauMap, polytope: Polytope
) -> tuple[MarginEntry, ...]:
    """Margin alpha(h_Q) for every polytope vertex Q and root alpha in R_m+.

    Entries are ordered by vertex index, then by the lexicographic root
    order of R_m+.
    """
    basis, gram = _prepare(flag, tau)
    if polytope.dim != tau.fiber_dim:
        raise InputError(
            f"polytope dimension {polytope.dim} does not match tau rows {tau.fiber_dim}"
        )
    entries: list[MarginEntry] = []
    for vi, q in enumerate(polytope.vertices):
        coords = _pullback(flag, tau, basis, gram, q).coords
        for root in flag.r_m_plus:
            value = sum(
                (c * coords[i] for i, c in enumerate(root) if c), Fraction(0)
            )
            entries.append(MarginEntry(vi, q, root, value))
    return tuple(entries)


def fano_check(flag: FlagManifold, fan: Fan, tau: TauMap) -> FanoVerdict:
    """Decide positivity of the first Chern class of the bundle.

    A fiber of dimension 0 (point fan) leaves the flag manifold itself,
    which is always Fano; the margin table is then empty.
    """
    _prepare(flag, tau)
    if fan.dim != tau.fiber_dim:
        raise InputError(
            f"fan dimension {fan.dim} does not match tau rows {tau.fiber_dim}"
        )
    diag = _require_smooth_complete(fan)
    fiber_fano = diag.fano
    if fan.dim == 0:
        return FanoVerdict(fiber_fano, (), fiber_fano, ())
    margins = fano_margins(flag, tau, diag.polytope)
    violations = tuple(e for e in margins if e.value <= 0)
    return FanoVerdict(
        fiber_fano=fiber_fano,
        margins=margins,
        is_fano=fiber_fano and not violations,
        violations=violations,
    )


def check_tau_integrality(
    flag: FlagManifold,
    tau: TauMap,
    cocharacter_basis: Sequence[VectorH] | None = None,
) -> bool | None:
    """Whether tau maps the given lattice generators into the fiber lattice.

    Returns None ("not checked") when no generators are supplied; the
    verdict of the positivity check does not depend on this.
    """
    if cocharacter_basis is None:
        return None
    basis, _ = _prepare(flag, tau)
    for gen in cocharacter_basis:
        coeffs = express_in_zk(flag, gen, basis)
        image = (
            sum((x * c for x, c in zip(row, coeffs)), Fraction(0))
            for row in tau.matrix
        )
        if any(x.denominator != 1 for x in image):
            return False
    return True
