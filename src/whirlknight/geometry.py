"""Exact integer geometry for whirling-knight boards.

Cells are (row, col) pairs with row 0 at the top and column 0 at the left.
The pivot is the board centre ((n-1)/2, (n-1)/2).  Orientation predicates
work in doubled coordinates (2i - (n-1), 2j - (n-1)), which put the pivot
at the origin and keep every comparison in plain integers, axis-ray
crossings included, with no fractions and no floating point anywhere.
``BoardGeometry`` alone numbers the digraph's vertices (``index``, its
inverse ``cell``) and counts them (``vertex_count``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Cell",
    "KnightStep",
    "BoardGeometry",
    "KNIGHT_STEPS",
    "RAYS",
    "ccw_cross",
    "is_ccw",
    "crosses_axis_ray",
]


class Cell(NamedTuple):
    """Board cell; ``i`` is the row from the top, ``j`` the column from the left."""

    i: int
    j: int


class KnightStep(NamedTuple):
    """One of the eight knight displacements (di² + dj² = 5)."""

    di: int
    dj: int


#: The eight knight steps in row-major order on (di, dj).  Arc enumeration
#: follows this order, so it is part of the serialized digraph format.
KNIGHT_STEPS: tuple[KnightStep, ...] = tuple(
    KnightStep(di, dj)
    for di in (-2, -1, 1, 2)
    for dj in (-2, -1, 1, 2)
    if di * di + dj * dj == 5
)

#: Axis-aligned open rays from the pivot, named from the board's viewpoint:
#: north points toward row 0, west toward column 0.
RAYS = ("north", "east", "south", "west")


def _json_int(x: object) -> int:
    """A number read from JSON, which must be an integer: no floats, bools or strings."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class BoardGeometry:
    """An n x n board together with its pivot ((n-1)/2, (n-1)/2).

    For even n the pivot lies between cells; for odd n it is the centre
    cell, which the digraph excludes.  It alone numbers and counts the vertices.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise ValueError(f"board side must be an integer >= 3, got {self.n!r}")

    def on_board(self, c: Cell) -> bool:
        return 0 <= c[0] < self.n and 0 <= c[1] < self.n

    @property
    def vertex_count(self) -> int:
        return self.n * self.n - self.n % 2  # every cell, less an odd board's centre

    def index(self, c: Cell) -> int:
        """Cell c's vertex index: row-major i*n + j, less one past an odd board's centre.

        This is the digraph's vertex order; a cell that is not a vertex raises.
        """
        n, (i, j) = self.n, c
        k, centre = i * n + j, (n * n // 2 if n % 2 else n * n)  # odd: (m, m), n = 2m + 1
        if type(i) is type(j) is int and 0 <= i < n and 0 <= j < n and k != centre:
            return k - (k > centre)
        raise ValueError(f"{tuple(c)} is not a vertex of the n={n} digraph")

    def cell(self, k: int) -> Cell:
        """Vertex k's cell, the inverse of ``index``; anything but a vertex index raises."""
        n = self.n
        if type(k) is int and 0 <= k < self.vertex_count:
            return Cell(*divmod(k + (n % 2 and k >= n * n // 2), n))  # skip an odd board's centre
        raise ValueError(f"{k!r} is not a vertex index of the n={n} digraph")

    def centre_cell(self) -> Cell | None:
        """The centre cell of an odd board (excluded from the digraph), else None."""
        if self.n % 2:
            return Cell((self.n - 1) // 2, (self.n - 1) // 2)
        return None


def ccw_cross(geom: BoardGeometry, u: Cell, v: Cell) -> int:
    """Doubled cross product (u - pivot) x (v - pivot).

    Positive means the step u -> v turns counter-clockwise about the pivot.
    No board-membership check: it is defined for any two points, on the
    board or off it.  ``build_digraph``'s per-step CCW test is this
    product, written out for v = u + knight step.
    """
    m = geom.n - 1
    ui, uj = 2 * u[0] - m, 2 * u[1] - m
    vi, vj = 2 * v[0] - m, 2 * v[1] - m
    return ui * vj - vi * uj


def _check_knight_pair(geom: BoardGeometry, u: Cell, v: Cell) -> None:
    if not (geom.on_board(u) and geom.on_board(v)):
        raise ValueError(f"{tuple(u)} -> {tuple(v)} is not on a {geom.n}x{geom.n} board")
    di, dj = v[0] - u[0], v[1] - u[1]
    if di * di + dj * dj != 5:
        raise ValueError(f"{tuple(u)} -> {tuple(v)} is not a knight displacement")


def is_ccw(geom: BoardGeometry, u: Cell, v: Cell) -> bool:
    """Is the knight arc u -> v counter-clockwise about the pivot?

    Exact integer test: the doubled cross product must be strictly
    positive.  A cross product of zero (u, pivot, v collinear; possible
    only on odd boards) counts as not CCW, so such arcs never enter the
    digraph.
    """
    _check_knight_pair(geom, u, v)
    return ccw_cross(geom, u, v) > 0


def crosses_axis_ray(geom: BoardGeometry, u: Cell, v: Cell, ray: str = "north") -> bool:
    """Does the open segment u -> v cross the given open axis ray from the pivot?

    One integer sign test decides it: a segment strictly straddling the
    pivot column (doubled uj * vj < 0) meets it at doubled row
    -ccw_cross / (uj - vj), so it crosses north iff ccw_cross * (uj - vj) > 0
    and south iff < 0.  West and east are north and south, transposed.

    On even boards every ray runs strictly between cells, so a segment
    either misses the ray or crosses it transversally.  On odd boards only
    the north ray is supported; it passes through cell centres and the
    convention is half-open: a segment departing from a cell on the ray
    counts as crossing, one arriving there does not.  Each pass of a path
    through a ray cell is then credited exactly once (to the departing
    arc), which keeps per-ray crossing totals of closed CCW cycles equal
    to their winding numbers.
    """
    if ray not in RAYS:
        raise ValueError(f"unknown ray {ray!r}; expected one of {RAYS}")
    _check_knight_pair(geom, u, v)
    m = geom.n - 1
    if geom.n % 2 and ray != "north":
        raise ValueError("only the north ray is supported on odd boards")
    if ray in ("east", "west"):
        u, v = Cell(u[1], u[0]), Cell(v[1], v[0])
    uj, vj = 2 * u[1] - m, 2 * v[1] - m
    if uj == 0:  # odd board, tail on the north ray
        return 2 * u[0] < m
    if uj * vj >= 0:
        return False
    side = ccw_cross(geom, u, v) * (uj - vj)
    return side > 0 if ray in ("north", "west") else side < 0

