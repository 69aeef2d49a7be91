"""The whirling-knight digraph: CCW knight arcs with plumb-line weights.

Vertices are all board cells, minus the centre cell on odd boards (the
centre coincides with the pivot).  Arcs are enumerated tail row-major,
then in knight-step order; the columns ``tail``, ``head`` (vertex indices)
and ``w``, indexed by arc id, are what every solver reads.  A built
digraph is immutable.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
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
    arcs: tuple[Arc, ...]
    out_adj: tuple[tuple[int, ...], ...]  # vertex index -> arc ids, ascending
    in_adj: tuple[tuple[int, ...], ...]
    vertex_index: dict[Cell, int] = field(repr=False)
    # Arc-id-indexed columns, derived from arcs and vertex_index.
    tail: tuple[int, ...] = field(init=False, repr=False, compare=False)
    head: tuple[int, ...] = field(init=False, repr=False, compare=False)
    w: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vi = self.vertex_index
        object.__setattr__(self, "tail", tuple(vi[a.tail] for a in self.arcs))
        object.__setattr__(self, "head", tuple(vi[a.head] for a in self.arcs))
        object.__setattr__(self, "w", tuple(a.w for a in self.arcs))

    @property
    def geometry(self) -> BoardGeometry:
        return BoardGeometry(self.n)

    def index_of(self, v: Cell) -> int:
        try:
            return self.vertex_index[Cell(*v)]
        except KeyError:
            raise ValueError(f"{tuple(v)} is not a vertex of the n={self.n} digraph") from None

    def out_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with tail v, in arc-id order."""
        return [self.arcs[a] for a in self.out_adj[self.index_of(v)]]

    def in_arcs(self, v: Cell) -> list[Arc]:
        """Arcs with head v, in arc-id order."""
        return [self.arcs[a] for a in self.in_adj[self.index_of(v)]]

    def arc_between(self, u: Cell, v: Cell) -> Arc | None:
        """The arc u -> v, or None if there is none."""
        iv = self.index_of(v)
        for a in self.out_adj[self.index_of(u)]:
            if self.head[a] == iv:
                return self.arcs[a]
        return None

    def step_arcs(self, steps: Iterable[tuple[Cell, Cell]]) -> list[int]:
        """Arc ids of the steps (tail, head), in order; the first non-arc step raises."""
        ids = []
        for t, h in steps:
            a = self.arc_between(t, h)
            if a is None:
                raise ValueError(f"step {tuple(t)} -> {tuple(h)} is not an arc of the digraph")
            ids.append(a.id)
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
    arcs: list[Arc] = []
    out_adj: list[list[int]] = [[] for _ in vertices]
    in_adj: list[list[int]] = [[] for _ in vertices]
    for t, u in enumerate(vertices):
        for s in KNIGHT_STEPS:
            h = vindex.get(Cell(u.i + s.di, u.j + s.dj))
            if h is not None and ccw_cross(geom, u, vertices[h]) > 0:
                v = vertices[h]
                aid = len(arcs)
                arcs.append(Arc(u, v, int(crosses_axis_ray(geom, u, v)), aid))
                out_adj[t].append(aid)
                in_adj[h].append(aid)
    return WhirlDigraph(
        n=n,
        vertices=vertices,
        arcs=tuple(arcs),
        out_adj=tuple(tuple(a) for a in out_adj),
        in_adj=tuple(tuple(a) for a in in_adj),
        vertex_index=vindex,
    )


def digraph_to_json(g: WhirlDigraph) -> str:
    """Canonical JSON form; byte-stable for a given n."""
    doc = {
        "n": g.n,
        "vertices": [[c.i, c.j] for c in g.vertices],
        "arcs": [{"u": [a.tail.i, a.tail.j], "v": [a.head.i, a.head.j], "w": a.w} for a in g.arcs],
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
    g = build_digraph(n)
    if vertices != list(g.vertices):
        raise ValueError("digraph JSON vertex list does not match the canonical digraph")
    if arcs != [(a.tail, a.head, a.w) for a in g.arcs]:
        raise ValueError("digraph JSON arc list does not match the canonical digraph")
    return g
