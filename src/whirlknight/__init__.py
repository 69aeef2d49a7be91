"""Whirling knight's tours: digraphs, Farkas certificates, exact LP feasibility.

The whirling-knight digraph on an n x n board keeps exactly the knight
moves that turn counter-clockwise about the board centre; a whirling tour
is a Hamiltonian cycle in it, and its coil count is its winding number
about the centre.  This package builds the digraph, constructs and
verifies closed-form Farkas certificates showing that coil count n/2 is
impossible when n = 4 or 6 (mod 8), decides cycle-cover LP feasibility
exactly, and searches for and verifies tours.
"""

from .certificates import (
    FarkasCertificate,
    VerificationReport,
    build_n3_certificate,
    build_t1,
    build_t2,
    certificate_from_json,
    certificate_to_json,
    parity_census,
    verify_certificate,
)
from .digraph import Arc, WhirlDigraph, build_digraph, digraph_from_json, digraph_to_json
from .geometry import (
    KNIGHT_STEPS,
    RAYS,
    BoardGeometry,
    Cell,
    KnightStep,
    ccw_cross,
    crosses_axis_ray,
    is_ccw,
)
from .polytope import (
    CoilInterval,
    CycleCover,
    FractionalAssignment,
    LpDecision,
    NoCycleCoverError,
    coil_interval,
    coil_of_cover,
    enumerate_cycle_covers,
    lp_decision_to_json,
    lp_feasible,
    validate_assignment,
)
from .tours import (
    SearchStats,
    Tour,
    check_reduction,
    search_tour,
    tour_from_json,
    tour_to_json,
    verify_tour,
    winding_by_ray,
)

__version__ = "0.1.0"
