"""Whirling knight's tours: digraphs, Farkas certificates, exact LP feasibility.

The whirling-knight digraph on an n x n board keeps exactly the knight
moves that turn counter-clockwise about the board centre; a whirling tour
is a Hamiltonian cycle in it, and its coil count is its winding number
about the centre.  This package builds the digraph, constructs and
verifies closed-form Farkas certificates showing that coil count n/2 is
impossible when n = 4 or 6 (mod 8), decides cycle-cover LP feasibility
exactly, and searches for and verifies tours.

Importing the package loads none of its layers.  Each name below is
looked up in its home module on every access (PEP 562), which loads that
module on first use, so ``whirlknight.X is whirlknight.<home>.X`` always
holds, also while a tracer or a test has swapped the home attribute.
"""

import importlib

# Each layer's exported names: exactly that module's ``__all__``.
_EXPORTS = {
    "certificates": (
        "FAMILIES",
        "FarkasCertificate",
        "VerificationReport",
        "build_n3_certificate",
        "build_t1",
        "build_t2",
        "certificate_from_json",
        "certificate_to_json",
        "parity_census",
        "verify_certificate",
    ),
    "digraph": ("Arc", "WhirlDigraph", "build_digraph", "digraph_from_json", "digraph_to_json"),
    "geometry": (
        "KNIGHT_STEPS",
        "RAYS",
        "BoardGeometry",
        "Cell",
        "KnightStep",
        "ccw_cross",
        "crosses_axis_ray",
        "is_ccw",
    ),
    "polytope": (
        "CoilInterval",
        "CycleCover",
        "FractionalAssignment",
        "LpDecision",
        "NoCycleCoverError",
        "coil_interval",
        "coil_of_cover",
        "enumerate_cycle_covers",
        "lp_decision_to_json",
        "lp_feasible",
        "validate_assignment",
    ),
    "tours": (
        "SearchStats",
        "Tour",
        "check_reduction",
        "search_tour",
        "tour_from_json",
        "tour_to_json",
        "verify_tour",
        "winding_by_ray",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
