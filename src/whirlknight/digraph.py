"""The whirling-knight digraph: CCW knight arcs with plumb-line weights.

Vertices are all board cells, minus the centre cell on odd boards (the
centre coincides with the pivot); ``BoardGeometry`` numbers them (row-major,
that centre skipped) and counts them.  Arcs are enumerated tail row-major,
then in knight-step order.  The digraph is ``(n, tail, head, w)``: the arc
columns ``tail``, ``head`` (vertex indices) and ``w``, indexed by arc id,
which every solver reads.  ``vertices``, ``out_adj``, ``in_adj`` and the
``Arc`` records of cells (``arcs``) are derived from them on first use;
``arc(a)`` builds one record alone.  A built digraph is immutable.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .geometry import KNIGHT_STEPS, BoardGeometry, Cell, _json_int

__all__ = ["Arc", "WhirlDigraph", "build_digraph", "digraph_to_json", "digraph_from_json"]


class Arc(NamedTuple):
    tail: Cell
    head: Cell
    w: int  # north plumb-line crossing weight, 0 or 1
    id: int


@dataclass(frozen=True)
class WhirlDigraph:
    """The digraph as ``(n, tail, head, w)``, which equality and hashing compare.

    Derived on first use and cached (``dataclasses.replace`` derives them again): ``geometry``,
    which numbers and counts the vertices, ``vertices``, ``out_adj``, ``in_adj`` and ``arcs``.
    """

    n: int
    tail: tuple[int, ...]  # arc id -> vertex index
    head: tuple[int, ...]
    w: tuple[int, ...]  # arc id -> north plumb-line crossing weight, 0 or 1

    @cached_property
    def geometry(self) -> BoardGeometry:
        return BoardGeometry(self.n)

    @cached_property
    def vertices(self) -> tuple[Cell, ...]:
        """Vertex index -> cell, in ``BoardGeometry.index`` order."""
        return tuple(map(self.geometry.cell, range(self.geometry.vertex_count)))

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Vertex index -> ids of the arcs leaving it, ascending."""
        return _group(self.geometry.vertex_count, self.tail, range(len(self.tail)))

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Vertex index -> ids of the arcs entering it, ascending."""
        # Ids taken from out_adj, so each arc id is one int object in both lists.
        ids = sorted(chain.from_iterable(self.out_adj))
        return _group(self.geometry.vertex_count, map(self.head.__getitem__, ids), ids)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc as a record, in arc-id order; built from the columns on first use."""
        vs = self.vertices
        return tuple(
            Arc(vs[t], vs[h], x, a) for a, (t, h, x) in enumerate(zip(self.tail, self.head, self.w))
        )

    def arc(self, a: int) -> Arc:
        """Arc a as a record of cells."""
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

    Deterministic: vertices row-major, arcs tail row-major then knight-step
    order.  Each (tail u, step s) pair costs one read of a vertex-index
    grid padded by two cells on every side (-1 off the board and at the
    odd-board centre) and two integer tests.  In doubled coordinates
    (ui, uj), with head v = u + s so that (vi, vj) = (ui + 2di, uj + 2dj):

    * ``ccw_cross(u, v) = ui*vj - vi*uj = 2(ui*dj - di*uj)``, so the pair
      is an arc iff ``ui*dj > di*uj``;
    * ``crosses_axis_ray(u, v)`` tests the sign of
      ``ccw_cross * (uj - vj) = -2dj * ccw_cross`` on a segment with
      ``uj*vj < 0``; on an arc ccw_cross > 0, so w = 1 iff dj < 0 and the
      segment straddles the pivot column, i.e. ``uj > 0 > vj``.  A tail on
      the pivot column of an odd board (uj = 0) has w = 1 iff it lies
      north of the pivot, ``ui < 0``.

    Every generated pair is an on-board knight step by construction, so
    the geometry predicates' own checks are not repeated here.
    """
    centre = BoardGeometry(n).centre_cell()
    width, m = n + 4, n - 1
    grid = [-1] * (width * width)
    k = 0  # BoardGeometry.index order, counted here: filling through cell costs ~9x more
    for i in range(n):
        for j in range(n):
            if (i, j) != centre:
                grid[(i + 2) * width + j + 2] = k
                k += 1
    steps = [(di, dj, di * width + dj) for di, dj in KNIGHT_STEPS]
    tail: list[int] = []
    head: list[int] = []
    w: list[int] = []
    for i in range(n):
        ui = 2 * i - m
        for j in range(n):
            uj, base = 2 * j - m, (i + 2) * width + j + 2
            t = grid[base]
            if t < 0:  # the odd-board centre
                continue
            for di, dj, offset in steps:
                h = grid[base + offset]
                if h >= 0 and ui * dj > di * uj:
                    tail.append(t)
                    head.append(h)
                    w.append(int(ui < 0) if uj == 0 else int(uj > 0 > uj + 2 * dj))
    return WhirlDigraph(n=n, tail=tuple(tail), head=tuple(head), w=tuple(w))


def _group(nv: int, keys: Iterable[int], ids: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex index -> the ids whose key is that vertex, in the order given."""
    rows: list[list[int]] = [[] for _ in range(nv)]
    for k, a in zip(keys, ids):
        rows[k].append(a)
    return tuple(map(tuple, rows))


def digraph_to_json(g: WhirlDigraph) -> str:
    """Canonical JSON form; byte-stable for a given n."""
    vs = g.vertices
    doc = {
        "n": g.n,
        "vertices": [[c.i, c.j] for c in vs],
        "arcs": [{"u": [vs[t].i, vs[t].j], "v": [vs[h].i, vs[h].j], "w": x}
                 for t, h, x in zip(g.tail, g.head, g.w)],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def digraph_from_json(text: str) -> WhirlDigraph:
    """Parse a digraph file, verifying it against a fresh reconstruction.

    The digraph is a pure function of n, so the file must list exactly the
    canonical vertices and arcs; anything else is treated as corrupt.
    """
    doc = json.loads(text)
    try:
        n = _json_int(doc["n"])
        vertices = [Cell(_json_int(i), _json_int(j)) for i, j in doc["vertices"]]
        arcs = [(Cell(*map(_json_int, a["u"])), Cell(*map(_json_int, a["v"])), _json_int(a["w"]))
                for a in doc["arcs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed digraph JSON: {exc}") from exc
    # Counted first, so a short vertex list never costs a build of size n²; a bad n raises here.
    g = build_digraph(n) if len(vertices) == BoardGeometry(n).vertex_count else None
    if g is None or vertices != list(g.vertices):
        raise ValueError("digraph JSON vertex list does not match the canonical digraph")
    if arcs != [(vertices[t], vertices[h], x) for t, h, x in zip(g.tail, g.head, g.w)]:
        raise ValueError("digraph JSON arc list does not match the canonical digraph")
    return g
