"""Exact Fano criterion for homogeneous toric bundles over flag manifolds."""

from .errors import DomainError, InputError
from .fanobundle import (
    FanoVerdict,
    MarginEntry,
    TauMap,
    fano_check,
)
from .flagbase import (
    FlagManifold,
    Painting,
    build_flag,
    chamber_margins,
    in_chamber,
)
from .rootsys import (
    RootSystem,
    SimpleType,
    VectorH,
    build_root_system,
)
from .toricfiber import (
    Fan,
    FanDiagnostics,
    Polytope,
    canonical_polytope,
    is_fano,
    point_fan,
    product,
    projective_space,
    validate_fan,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InputError",
    "Fan",
    "FanDiagnostics",
    "FanoVerdict",
    "FlagManifold",
    "MarginEntry",
    "Painting",
    "Polytope",
    "RootSystem",
    "SimpleType",
    "TauMap",
    "VectorH",
    "build_flag",
    "build_root_system",
    "canonical_polytope",
    "chamber_margins",
    "fano_check",
    "in_chamber",
    "is_fano",
    "point_fan",
    "product",
    "projective_space",
    "validate_fan",
]
