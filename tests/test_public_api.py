"""The package's public surface: what __all__ offers and what _linalg keeps."""

import inspect

import fanotoric
from fanotoric import _linalg

PUBLIC = [
    "DomainError",
    "Fan",
    "FanDiagnostics",
    "FanoVerdict",
    "FlagManifold",
    "InputError",
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
    "check_tau_integrality",
    "fano_check",
    "fano_margins",
    "in_chamber",
    "is_fano",
    "point_fan",
    "product",
    "projective_space",
    "pullback_point",
    "tau_is_surjective",
    "validate_fan",
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert len(PUBLIC) == 28
    assert sorted(fanotoric.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fanotoric, name) is not None, name


def test_linalg_keeps_only_rank_and_inverse():
    public = sorted(
        name
        for name, value in vars(_linalg).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == _linalg.__name__
    )
    assert public == ["invert", "matrix_rank"]
