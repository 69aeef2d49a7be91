"""Whirling knight's tours: digraphs, Farkas certificates, exact LP feasibility.

The whirling-knight digraph on an n x n board keeps exactly the knight
moves that turn counter-clockwise about the board centre; a whirling tour
is a Hamiltonian cycle in it, and its coil count is its winding number
about the centre.  This package builds the digraph, constructs and
verifies closed-form Farkas certificates showing that coil count n/2 is
impossible when n = 4 or 6 (mod 8), decides cycle-cover LP feasibility
exactly, and searches for and verifies tours.

Importing the package loads none of its layers; it holds the package's
two tables.  ``FAMILIES``, the closed-form certificate families, is a plain
attribute, and each family's builder ``build_<name>`` is exported from its
entry.  ``_EXPORTS`` names each layer's public names, and each layer's
``__all__`` is its row.  Each of those names is looked up in its home
module on every access (PEP 562), which loads that module on first use, so
``whirlknight.X is whirlknight.<home>.X`` always holds, also while a tracer
or a test has swapped the home attribute.
"""

import importlib

# Each closed-form certificate family's name and the residue r of the boards it
# takes: n = r (mod 8), n >= r.  Family f is built by ``certificates.build_f``.
FAMILIES = {"t1": 6, "t2": 4}

# Each layer's exported names; each layer's ``__all__`` is its row.
_EXPORTS = {
    "certificates": (
        "FarkasCertificate",
        "VerificationReport",
        "build_n3_certificate",
        *(f"build_{name}" for name in FAMILIES),
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

__all__ = ["FAMILIES", *_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
