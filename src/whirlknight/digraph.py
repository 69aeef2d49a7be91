"""The whirling-knight digraph: CCW knight arcs with plumb-line weights.

Vertices are all board cells, minus the centre cell on odd boards (the
centre coincides with the pivot); ``BoardGeometry`` numbers them (row-major,
that centre skipped) and counts them.  Arcs are enumerated tail row-major,
then in knight-step order.  For a fixed tail row and knight step (di, dj)
the CCW test ``ui*dj > di*uj`` (doubled coordinates) is linear in the
column j with the nonzero coefficient -2di, so the arcs form one interval
of columns, and ``build_digraph`` marks each interval with one slice and
copies the marked candidates in C.  The digraph is ``(n, tail, head, w)``:
the arc columns ``tail``, ``head`` (vertex indices) and ``w``, of one length and
indexed by arc id, which every solver reads.  ``vertices``, ``out_adj``, ``in_adj``,
the checked arc ends (``ends``), the ids of the crossing arcs (``crossing``)
and the ``Arc`` records of cells (``arcs``) are derived from them on first
use; ``arc(a)`` builds one record alone.  One fact is never derived:
``knight_runs``, the build's arc layout, holds only on a digraph that
``build_digraph`` made.  A built digraph is immutable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from . import _EXPORTS
from .geometry import KNIGHT_STEPS, BoardGeometry, Cell, _bounded_board, _cell, _dump_doc, _exact_int, _list, _load_doc, _read_doc

__all__ = list(_EXPORTS["digraph"])


class Arc(NamedTuple):
    tail: Cell
    head: Cell
    w: int  # north plumb-line crossing weight, 0 or 1
    id: int


@dataclass(frozen=True)
class WhirlDigraph:
    """The digraph as ``(n, tail, head, w)``, which equality and hashing compare; unequal columns raise when built.

    Derived on first use and cached (``dataclasses.replace`` derives them again): ``geometry``,
    which numbers and counts the vertices, ``vertices``, ``ends``, ``out_adj``, ``in_adj``,
    ``crossing`` and ``arcs``.  Every reader that indexes by the arc ends reads them from ``ends``,
    which checks them once per digraph.

    ``knight_runs`` is True only where ``build_digraph`` seeded it: the tail column ascends, so
    each vertex's out-arcs are one run of ids, and every arc is a knight step whose head no other
    arc of its run shares.  It is never derived, so a ``dataclasses.replace`` copy or a digraph
    built from columns by hand reads the class's False, whatever its columns hold.
    """

    n: int
    tail: tuple[int, ...]  # arc id -> vertex index
    head: tuple[int, ...]
    w: tuple[int, ...]  # arc id -> north plumb-line crossing weight, 0 or 1
    knight_runs = False  # not a field: build_digraph seeds True on the digraphs it makes

    def __post_init__(self) -> None:
        if not len(self.tail) == len(self.head) == len(self.w):
            raise ValueError(f"arc columns differ in length: tail {len(self.tail)}, head {len(self.head)}, w {len(self.w)}")

    @cached_property
    def geometry(self) -> BoardGeometry:
        return BoardGeometry(self.n)

    @cached_property
    def vertices(self) -> tuple[Cell, ...]:
        """Vertex index -> cell, in ``BoardGeometry.index`` order."""
        return tuple(map(self.geometry.cell, range(self.geometry.vertex_count)))

    @cached_property
    def ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(tail, head)``, once a min/max scan has shown every end a vertex index in ``range(vertex_count)``.

        Every reader that indexes by the arc ends takes them from here, so a
        negative end cannot wrap to a vertex at the back.  An end out of
        range raises ``ValueError``, and a failed scan caches nothing.
        ``build_digraph`` seeds the value; the constructor leaves the scan
        out, as it costs about a third of a build.
        """
        nv, tail, head = self.geometry.vertex_count, self.tail, self.head
        if tail and not (0 <= min(tail) and 0 <= min(head) and max(tail) < nv and max(head) < nv):
            raise ValueError(f"an arc end is not a vertex index in range({nv})")
        return tail, head

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Vertex index -> ids of the arcs leaving it, ascending."""
        return _group(self.geometry.vertex_count, self.ends[0])

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Vertex index -> ids of the arcs entering it, ascending."""
        return _group(self.geometry.vertex_count, self.ends[1])

    @cached_property
    def crossing(self) -> tuple[int, ...]:
        """Ids of the arcs with w != 0 (those that cross the plumb line), ascending."""
        return tuple(compress(range(len(self.w)), self.w))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc as a record, in arc-id order; built from the columns on first use."""
        tail, head = self.ends
        vs = self.vertices
        return tuple(Arc(vs[t], vs[h], x, a) for a, (t, h, x) in enumerate(zip(tail, head, self.w)))

    def arc(self, a: int) -> Arc:
        """Arc a as a record of cells; an a that is not an id in ``range(len(w))`` raises ``ValueError``."""
        if not 0 <= _exact_int(a, "arc id") < len(self.w):
            raise ValueError(f"unknown arc id {a}")
        cell = self.geometry.cell
        return Arc(cell(self.tail[a]), cell(self.head[a]), self.w[a], a)

    def out_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with tail v, in arc-id order."""
        return [self.arc(a) for a in self.out_adj[self.geometry.index(v)]]

    def in_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with head v, in arc-id order."""
        return [self.arc(a) for a in self.in_adj[self.geometry.index(v)]]

    def step_arcs(self, steps: Iterable[tuple[Cell, Cell]]) -> list[int]:
        """Arc ids of the steps (tail, head), in order; the first non-arc step raises."""
        ids, index = [], self.geometry.index
        for t, h in steps:
            ih = index(h)
            for a in self.out_adj[index(t)]:
                if self.head[a] == ih:
                    ids.append(a)
                    break
            else:
                raise ValueError(f"step {tuple(t)} -> {tuple(h)} is not an arc of the digraph")
        return ids


def build_digraph(n: int) -> WhirlDigraph:
    """Build the whirling-knight digraph on the n x n board.

    A side above ``geometry._MAX_SIDE`` (512) raises ``ValueError`` before
    anything is allocated.  Deterministic: vertices row-major, arcs tail
    row-major, then knight-step order.  In doubled coordinates (ui, uj) = (2i - m,
    2j - m), m = n - 1, with head v = u + s for the step s = (di, dj), so
    that (vi, vj) = (ui + 2di, uj + 2dj):

    * ``ccw_cross(u, v) = ui*vj - vi*uj = 2(ui*dj - di*uj)``, so the pair
      is an arc iff ``ui*dj > di*uj``, i.e. ``2*di*j < r`` with
      ``r = ui*dj + di*m``.  No knight step has di = 0, so for a fixed
      tail row i and step the arcs are one interval of columns: ``j <
      ceil(r / 2di)`` for di > 0 and ``j >= floor(r / 2di) + 1`` for
      di < 0, cut to the columns whose head is on the board, ``0 <= j +
      dj < n``, and empty unless the head row is, ``0 <= i + di < n``.
      The odd board's centre needs no case of its own: as tail or head
      its cross product is 0, so no interval holds it.
    * ``crosses_axis_ray(u, v)`` tests the sign of
      ``ccw_cross * (uj - vj) = -2dj * ccw_cross`` on a segment with
      ``uj*vj < 0``; on an arc ccw_cross > 0, so w = 1 iff dj < 0 and the
      segment straddles the pivot column, i.e. ``uj > 0 > vj``, which
      depends on j and the step alone.  A tail on the pivot column of an
      odd board (uj = 0) has w = 1 iff it lies north of the pivot,
      ``ui < 0``.

    Scratch lists of 8n slots hold one row's candidates, slot 8j + p for
    column j and step p: the tails and the heads read from the vertex-index
    rows (padded by two cells on each side, -1 there and at the odd-board
    centre).  One strided slice per (row, step) marks the interval in a
    fresh byte mask, and ``itertools.compress`` appends the marked slots to
    the columns, so the per-arc work runs in C, not in bytecode.  Every
    marked pair is an on-board knight step by construction, so the
    geometry predicates' own checks are not repeated here.

    The weights need no 8n slots: w = 1 needs ``0 < uj < -2dj <= 4`` or a
    tail on an odd board's pivot column (uj = 0, j = m/2), so only the
    window of columns m//2 .. m//2 + 2 can hold a 1.  Its two weight lists
    (north and south of the pivot) are filled once.  Each row compresses
    only its window slots, whose arcs follow the row's arcs left of the
    window, and ``w``, one zero per arc, takes them at that offset: exactly
    what a compress of the full rows gives.

    The digraph it returns comes with three facts the build already knows,
    seeded in its instance dict, where ``cached_property`` keeps its value:
    ``crossing``, the ids of the window arcs with w = 1; ``ends``, the
    columns themselves, since every end is read from the vertex-index rows;
    and ``knight_runs`` = True, since the tails go row-major and each tail's
    arcs are distinct knight steps.  None is a field, so
    ``dataclasses.replace`` derives the first two again and reads False
    for the third.
    """
    centre = _bounded_board(n).centre_cell()
    m, slots = n - 1, 8 * n
    rows: list[list[int]] = []  # vertex indices of each row, padded with -1
    k = 0  # BoardGeometry.index order, counted here: filling through cell costs ~9x more
    for i in range(n):
        cells = list(range(k, k + n))
        if centre is not None and i == centre.i:  # no vertex at the centre: later cells move down one
            cells[centre.j:] = [-1, *range(k + centre.j, k + n - 1)]
        k = cells[-1] + 1
        rows.append([-1, -1, *cells, -1, -1])
    # Per step p: the columns whose head is on the board, and its w in each window column.
    window = range(m // 2, min(n, m // 2 + 3))  # the only columns whose arcs can cross
    a, b = 8 * window.start, 8 * window.stop
    steps = []
    w_south = [0] * (b - a)
    for p, (di, dj) in enumerate(KNIGHT_STEPS):
        steps.append((p, di, dj, max(0, -dj), min(n, n - dj)))
        w_south[p::8] = [int(2 * j - m > 0 > 2 * j - m + 2 * dj) for j in window]
    w_north = w_south
    if centre is not None:  # a tail on the pivot column, the window's first, crosses iff it lies north of the pivot
        w_north = w_south.copy()
        w_north[:8] = [1] * 8
    tails, heads = [0] * slots, [0] * slots
    tail: list[int] = []
    head: list[int] = []
    window_arcs: list[tuple[int, list[int]]] = []  # per row: the id of its first window arc, and their weights
    for i in range(n):
        ui, cells, mask = 2 * i - m, rows[i][2:n + 2], bytearray(slots)
        for p, di, dj, lo, hi in steps:
            if not 0 <= i + di < n:
                continue
            r = ui * dj + di * m  # arc iff 2*di*j < r
            if di > 0:
                hi = min(hi, -(-r // (2 * di)))
            else:
                lo = max(lo, r // (2 * di) + 1)
            if lo < hi:
                mask[8 * lo + p:8 * hi + p:8] = b"\x01" * (hi - lo)
                tails[p::8] = cells
                heads[p::8] = rows[i + di][2 + dj:n + 2 + dj]
        window_arcs.append((len(tail) + mask.count(1, 0, a), list(compress(w_north if ui < 0 else w_south, mask[a:b]))))
        tail += compress(tails, mask)
        head += compress(heads, mask)
    w = [0] * len(tail)
    crossing: list[int] = []
    for s, ws in window_arcs:
        w[s:s + len(ws)] = ws
        crossing += compress(range(s, s + len(ws)), ws)
    g = WhirlDigraph(n=n, tail=tuple(tail), head=tuple(head), w=tuple(w))
    vars(g).update(crossing=tuple(crossing), ends=(g.tail, g.head), knight_runs=True)
    return g


def _group(nv: int, column: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex index -> the arc ids whose entry in column (tail or head) is that vertex, ascending."""
    rows: list[list[int]] = [[] for _ in range(nv)]
    for a, k in enumerate(column):
        rows[k].append(a)
    return tuple(map(tuple, rows))


def digraph_to_json(g: WhirlDigraph) -> str:
    """Canonical JSON form; byte-stable for a given n."""
    tail, head = g.ends
    vs = g.vertices
    doc = {
        "n": g.n,
        "vertices": [[c.i, c.j] for c in vs],
        "arcs": [{"u": [vs[t].i, vs[t].j], "v": [vs[h].i, vs[h].j], "w": x}
                 for t, h, x in zip(tail, head, g.w)],
    }
    return _dump_doc(doc)


def digraph_from_json(text: str) -> WhirlDigraph:
    """Parse a digraph file, verifying it against a fresh reconstruction.

    The digraph is a pure function of n, so the file must list exactly the
    canonical vertices and arcs; anything else is treated as corrupt.
    """
    return _digraph_from_doc(_load_doc(text))


def _digraph_from_doc(doc: object) -> WhirlDigraph:
    """``digraph_from_json`` on the document ``_load_doc`` returned."""
    n, vertices, arcs = _read_doc(doc, "digraph", lambda doc: (
        _exact_int(doc["n"], "n"),
        list(map(_cell, _list(doc["vertices"], "vertices"))),
        [(_cell(a["u"]), _cell(a["v"]), _exact_int(a["w"], "arc weight")) for a in _list(doc["arcs"], "arcs")],
    ))
    g = build_digraph(n)  # a bad n, or one above the size limit, raises here
    if vertices != list(g.vertices):
        raise ValueError("digraph JSON vertex list does not match the canonical digraph")
    if arcs != [(vertices[t], vertices[h], x) for t, h, x in zip(g.tail, g.head, g.w)]:
        raise ValueError("digraph JSON arc list does not match the canonical digraph")
    return g
