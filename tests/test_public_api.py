"""The package's public surface: what __all__ offers, what the engine's
records store, and what _linalg keeps."""

import dataclasses
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
    "fano_check",
    "in_chamber",
    "is_fano",
    "point_fan",
    "product",
    "projective_space",
    "validate_fan",
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert len(PUBLIC) == 24
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


# Each record stores a fact once: no field copies another field of the same
# record or of its input, and none is left for no reader.
RECORD_FIELDS = {
    "RootSystem": ["components", "positive_roots", "gram"],
    "FlagManifold": [
        "rs",
        "painting",
        "r_m_plus",
        "zk_basis_default",
        "h_V",
        "_crossed_inverse",
        "_restrictions",
        "_restriction_of",
    ],
    "FanDiagnostics": ["smooth", "complete", "non_unimodular_cones", "fano", "polytope"],
    "Polytope": ["dim", "vertices"],
    "FanoVerdict": ["is_fano", "fiber", "_flag", "_pull"],
    "MarginEntry": ["vertex_index", "root", "value"],
}


def test_records_store_each_fact_once():
    for name, expected in RECORD_FIELDS.items():
        record = getattr(fanotoric, name)
        assert [f.name for f in dataclasses.fields(record)] == expected, name
