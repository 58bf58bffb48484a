"""Refined virtual classes of punctured tropical map moduli.

Exact-arithmetic toolkit for cone complexes, Stanley-Reisner Chow operators,
Segre/Chern refined-class computations, tropical type enumeration, gerby
pushforward identities, and blowup (non-)invariance checks.

Importing the package loads no submodule. Each exported name is imported
from its home module on first use (PEP 562), so a caller loads only the
modules it calls.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "conecx": (
        "Ray", "ConeComplex", "PLFunction", "SubdivisionStep", "build_complex",
        "validate_complex", "star_subdivide", "pl_function", "pl_pullback",
    ),
    "chowring": (
        "ChowClass", "reduce", "multiply", "divisor_of_pl", "pullback",
        "pushforward", "truncate", "serialize", "unit", "zero", "ray_class",
        "stratum_class",
    ),
    "puncture": (
        "MonomialIdealOnComplex", "RefinedClassResult", "monomial_ideal",
        "normalized_ideal", "puncturing_components", "principalize",
        "segre_class", "refined_class", "refined_class_excess",
    ),
    "aluffi": ("AluffiDomainError", "principalize_newton", "segre_newton"),
    "tropdata": (
        "NumericalData", "TargetModel", "VertexDecor", "EdgeDecor",
        "TropicalType", "EnumerationBoundError", "BalancingError",
        "NonSmoothConeError", "PuncturingData", "PrincipalizationError",
        "numerical_data", "target_model", "validate_numerical_data",
        "positivize", "puncturing_data",
    ),
    "tropmaps": (
        "TypeCone", "slopes_from_balancing", "enumerate_types", "canonical_key",
        "cone_of_type", "realizable", "specializations", "assemble_complex",
        "positivize_type",
    ),
    "gerby": (
        "RootingData", "rooting_data", "derive_source_roots", "validate_rooting",
        "twist_complex", "root_pushforward", "root_pullback",
        "check_pushforward_identity", "check_pushforward_identity_on_complex",
    ),
    "blowups": (
        "BlowupStep", "faithful_lift", "stabilize_rank", "SubdivisionError",
        "subdivision", "trivial_subdivision", "barycentric_subdivision",
        "check_slope_sensitivity", "compare_under_subdivision",
    ),
    "fixtureio": ("SchemaError", "Fixture", "load_fixture", "load_fixture_file"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import an exported name from its home module and keep it here."""
    module = _HOME.get(name)
    if module is None:
        # lets `from punctref import conecx` fall back to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

