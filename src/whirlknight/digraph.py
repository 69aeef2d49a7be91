"""The whirling-knight digraph: CCW knight arcs with plumb-line weights.

Vertices are all board cells, minus the centre cell on odd boards (the
centre coincides with the pivot).  Arcs are enumerated tail row-major,
then in knight-step order.  The digraph is its arc columns ``tail``,
``head`` (vertex indices) and ``w``, indexed by arc id, which every
solver reads; ``Arc`` records of cells are built only on request
(``arc(a)``, ``arcs``).  A built digraph is immutable.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .geometry import KNIGHT_STEPS, BoardGeometry, Cell, _json_int, ccw_cross, crosses_axis_ray

__all__ = ["Arc", "WhirlDigraph", "build_digraph", "digraph_to_json", "digraph_from_json"]


class Arc(NamedTuple):
    tail: Cell
    head: Cell
    w: int  # north plumb-line crossing weight, 0 or 1
    id: int


@dataclass(frozen=True)
class WhirlDigraph:
    n: int
    vertices: tuple[Cell, ...]
    tail: tuple[int, ...]  # arc id -> vertex index
    head: tuple[int, ...]
    w: tuple[int, ...]  # arc id -> north plumb-line crossing weight, 0 or 1
    out_adj: tuple[tuple[int, ...], ...]  # vertex index -> arc ids, ascending
    in_adj: tuple[tuple[int, ...], ...]
    vertex_index: dict[Cell, int] = field(repr=False)

    @property
    def geometry(self) -> BoardGeometry:
        return BoardGeometry(self.n)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc as a record, in arc-id order; built from the columns on first use."""
        vs = self.vertices
        return tuple(
            Arc(vs[t], vs[h], x, a) for a, (t, h, x) in enumerate(zip(self.tail, self.head, self.w))
        )

    def arc(self, a: int) -> Arc:
        """Arc a as a record of cells."""
        return Arc(self.vertices[self.tail[a]], self.vertices[self.head[a]], self.w[a], a)

    def index_of(self, v: Cell) -> int:
        try:
            return self.vertex_index[Cell(*v)]
        except KeyError:
            raise ValueError(f"{tuple(v)} is not a vertex of the n={self.n} digraph") from None

    def out_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with tail v, in arc-id order."""
        return [self.arc(a) for a in self.out_adj[self.index_of(v)]]

    def in_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with head v, in arc-id order."""
        return [self.arc(a) for a in self.in_adj[self.index_of(v)]]

    def step_arcs(self, steps: Iterable[tuple[Cell, Cell]]) -> list[int]:
        """Arc ids of the steps (tail, head), in order; the first non-arc step raises."""
        ids = []
        for t, h in steps:
            ih = self.index_of(h)
            for a in self.out_adj[self.index_of(t)]:
                if self.head[a] == ih:
                    ids.append(a)
                    break
            else:
                raise ValueError(f"step {tuple(t)} -> {tuple(h)} is not an arc of the digraph")
        return ids


def build_digraph(n: int) -> WhirlDigraph:
    """Build the whirling-knight digraph on the n x n board.

    Enumerates on-board knight pairs, keeps the counter-clockwise ones and
    validates only those, once, while reading their north-ray crossing
    weights.  Deterministic: vertices row-major, arcs tail row-major then
    knight-step order.
    """
    geom = BoardGeometry(n)
    centre = geom.centre_cell()
    vertices = tuple(
        Cell(i, j) for i in range(n) for j in range(n) if Cell(i, j) != centre
    )
    vindex = {c: k for k, c in enumerate(vertices)}
    tail: list[int] = []
    head: list[int] = []
    w: list[int] = []
    out_adj: list[list[int]] = [[] for _ in vertices]
    in_adj: list[list[int]] = [[] for _ in vertices]
    for t, u in enumerate(vertices):
        for s in KNIGHT_STEPS:
            h = vindex.get(Cell(u.i + s.di, u.j + s.dj))
            if h is not None and ccw_cross(geom, u, vertices[h]) > 0:
                aid = len(w)
                tail.append(t)
                head.append(h)
                w.append(int(crosses_axis_ray(geom, u, vertices[h])))
                out_adj[t].append(aid)
                in_adj[h].append(aid)
    return WhirlDigraph(
        n=n,
        vertices=vertices,
        tail=tuple(tail),
        head=tuple(head),
        w=tuple(w),
        out_adj=tuple(tuple(a) for a in out_adj),
        in_adj=tuple(tuple(a) for a in in_adj),
        vertex_index=vindex,
    )


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
    # Counted first, so a short vertex list never costs a build of size n².
    g = build_digraph(n) if len(vertices) == n * n - n % 2 else None
    if g is None or vertices != list(g.vertices):
        raise ValueError("digraph JSON vertex list does not match the canonical digraph")
    if arcs != [(vertices[t], vertices[h], x) for t, h, x in zip(g.tail, g.head, g.w)]:
        raise ValueError("digraph JSON arc list does not match the canonical digraph")
    return g
