"""Exact integer geometry for whirling-knight boards.

Cells are (row, col) pairs with row 0 at the top and column 0 at the left.
The pivot is the board centre ((n-1)/2, (n-1)/2).  Orientation predicates
work in doubled coordinates (2i - (n-1), 2j - (n-1)), which put the pivot
at the origin and keep every comparison in plain integers, axis-ray
crossings included, with no fractions and no floating point anywhere.
``BoardGeometry`` alone numbers the digraph's vertices (``index``, its
inverse ``cell``) and counts them (``vertex_count``).  ``_exact_int`` alone states
the rule that an integer input is exactly an ``int``, ``_PAIR`` with ``_cell`` that a cell from outside
the program is a tuple or list of exactly two of them, and ``_list`` that a JSON array field is a ``list``;
``_load_doc`` parses every JSON file, ``_read_doc`` wraps every JSON reader, and ``_dump_doc`` writes every JSON file.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from . import _EXPORTS

__all__ = list(_EXPORTS["geometry"])


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

#: The largest board side that ``build_digraph``, ``render``, ``build_t2`` and
#: ``parity_census`` accept.  The digraph has about 4n² arcs, and its build
#: peaks near 58 bytes per arc (CPython 3.11, n = 100..512), so n = 512 takes
#: about 60 MB and n = 10^5 would take terabytes; t2's triangle has about n²/8
#: cells.  A larger n raises before anything is allocated.  Every CLI command
#: reaches the limit through these functions or ``_bounded_board``, which they
#: call: ``cert verify`` before it builds a family's certificate, and
#: ``tour verify`` and ``render --in`` before they read a tour file's cells.
_MAX_SIDE = 512


def _exact_int(x: object, what: str, *args: object) -> int:
    """x if its type is exactly ``int``, else ValueError naming ``what.format(*args)``, built only then."""
    if type(x) is int:
        return x
    raise ValueError(f"{what.format(*args)} must be an integer, got {x!r}")


def _read_doc(doc: Any, kind: str, parse: Callable[[Any], Any]) -> Any:
    """parse(doc) on a parsed JSON document; its KeyError, TypeError or ValueError reads ``malformed <kind> JSON: ...``."""
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object as a dict; a key it repeats raises ``ValueError``."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"malformed JSON: an object repeats the key {key!r}")
    return doc


def _load_doc(text: str) -> Any:
    """The JSON document in text, whose objects may not repeat a key; every JSON file is read here."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _dump_doc(doc: Any) -> str:
    """The canonical text of a JSON document: no spaces, one closing newline; every JSON file is written here."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


_PAIR = (tuple, list)  # a cell is one of these (``Cell`` included) of length 2; a set, dict, range or str is not


def _cell_text(c: object) -> str:
    """A cell as error messages show it: a tuple or list as a tuple, anything else as its repr."""
    return str(tuple(c)) if isinstance(c, _PAIR) else repr(c)


def _list(x: object, what: str) -> list:
    """x if it is a ``list``, else ``ValueError`` naming ``what``; how every JSON array field is read."""
    if isinstance(x, list):
        return x
    raise ValueError(f"{what} must be a list, got {x!r}")


def _cell(c: object) -> Cell:
    """c as a Cell if it is a pair of ``int`` coordinates, else ``ValueError``; how a cell from outside is read."""
    if not (isinstance(c, _PAIR) and len(c) == 2):
        raise ValueError(f"{_cell_text(c)} is not a cell")
    return Cell(_exact_int(c[0], "cell coordinate"), _exact_int(c[1], "cell coordinate"))


@dataclass(frozen=True)
class BoardGeometry:
    """An n x n board together with its pivot ((n-1)/2, (n-1)/2).

    For even n the pivot lies between cells; for odd n it is the centre
    cell, which the digraph excludes.  It alone numbers and counts the vertices.
    """

    n: int

    def __post_init__(self) -> None:
        if _exact_int(self.n, "board side") < 3:
            raise ValueError(f"board side must be an integer >= 3, got {self.n!r}")

    def on_board(self, c: Cell) -> bool:
        """Is c on the board?  A non-cell (not a pair of ``int`` coordinates) raises ``ValueError``."""
        return all(0 <= x < self.n for x in _cell(c))

    @property
    def vertex_count(self) -> int:
        return self.n * self.n - self.n % 2  # every cell, less an odd board's centre

    def index(self, c: Cell) -> int:
        """Cell c's vertex index: row-major i*n + j, less one past an odd board's centre.

        This is the digraph's vertex order; anything but a vertex, a non-pair
        (not a ``_PAIR`` of length 2) included, raises ``ValueError``.
        """
        n = self.n
        i, j = c if isinstance(c, _PAIR) and len(c) == 2 else (None, None)
        if type(i) is type(j) is int and 0 <= i < n and 0 <= j < n:
            k, centre = i * n + j, (n * n // 2 if n % 2 else n * n)  # odd: (m, m), n = 2m + 1
            if k != centre:
                return k - (k > centre)
        raise ValueError(f"{_cell_text(c)} is not a vertex of the n={n} digraph")

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


def _bounded_board(n: int) -> BoardGeometry:
    """The board for n, which must be small enough to build: at most ``_MAX_SIDE``."""
    geom = BoardGeometry(n)
    if n > _MAX_SIDE:
        raise ValueError(f"board side must be at most {_MAX_SIDE}, got {n}")
    return geom


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
    u, v = _cell(u), _cell(v)  # so no non-pair, float, bool or Fraction reaches a predicate
    if not 0 <= min(*u, *v) <= max(*u, *v) < geom.n:
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

