"""Whirling-tour verification, the tour-to-LP reduction check, winding counts, and budgeted search.

A whirling tour is a Hamiltonian directed cycle of the digraph; its coil
count is the number of tour arcs crossing the north plumb-line, which
(all arcs being CCW) equals the winding number of the cycle about the
pivot.  Search is depth-first backtracking with forced-arc propagation,
dead-vertex pruning, coil pruning and Warnsdorff-style successor
ordering, all read from per-vertex counts of the arcs still open; pushing
or popping a path vertex updates only its neighbours' counts, so a node
costs O(deg), not a pass over the board.  Search is explicitly budgeted,
and a not-found result never means nonexistence.  Nonexistence claims
belong to the certificate and LP modules.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable

from .digraph import WhirlDigraph
from .geometry import RAYS, BoardGeometry, Cell, _json_int, crosses_axis_ray
from .polytope import FractionalAssignment, validate_assignment

__all__ = [
    "Tour",
    "SearchStats",
    "verify_tour",
    "check_reduction",
    "winding_by_ray",
    "search_tour",
    "tour_to_json",
    "tour_from_json",
]

_PROGRESS_EVERY = 100_000  # node expansions between progress calls


@dataclass(frozen=True)
class Tour:
    """A verified Hamiltonian cycle, as the cyclic cell sequence plus coil count."""

    cells: tuple[Cell, ...]
    coil: int


@dataclass
class SearchStats:
    """Filled in by search_tour: expansions used, whether the space closed, and
    the longest path reached (``max_depth``, in vertices).

    Each call resets every field, so a reused object describes the last search.

    ``exhausted`` True means the depth-first search ran out of branches
    before running out of budget, i.e. no tour satisfying the constraints
    exists from the canonical start vertex (which is every tour, since a
    Hamiltonian cycle visits it).  It needs budget to spare: when the
    space closes on exactly the last node of the budget, it stays False.
    """

    nodes: int = 0
    exhausted: bool = False
    max_depth: int = 0


def verify_tour(g: WhirlDigraph, cells) -> Tour:
    """Validate a cell sequence as a whirling tour and compute its coil count.

    Checks that every vertex appears exactly once and that each cyclically
    consecutive pair is an arc; reports the first offending pair.
    """
    cells = _check_cells(g.geometry, cells)
    coil = sum(g.w[a] for a in g.step_arcs(zip(cells, cells[1:] + cells[:1])))
    return Tour(cells=cells, coil=coil)


def _check_cells(geom: BoardGeometry, cells) -> tuple[Cell, ...]:
    """verify_tour's checks that need only the board: each vertex appears exactly once.

    They cost O(len(cells)), so callers run them before building a file's digraph.
    """
    cells = tuple(Cell(*c) for c in cells)
    seen: set[Cell] = set()
    for c in cells:
        geom.index(c)  # raises on a cell that is not a vertex
        if c in seen:
            raise ValueError(f"vertex {tuple(c)} is visited twice")
        seen.add(c)
    nv = geom.vertex_count
    if len(cells) != nv:
        unseen = (c for c in map(geom.cell, range(nv)) if c not in seen)
        missing = [tuple(c) for c in islice(unseen, 3)]
        raise ValueError(f"not Hamiltonian: {nv - len(cells)} vertices missing, e.g. {missing}")
    return cells


def check_reduction(g: WhirlDigraph, tour: Tour) -> bool:
    """Check the tour-to-LP reduction row by row.

    Converts the tour to its 0/1 arc indicator and checks it with
    ``validate_assignment`` against the tour's coil count: degree rows,
    coil row and box bounds.  Raises on inputs that are not Hamiltonian
    cycles of g at all.
    """
    cells = _check_cells(g.geometry, tour.cells)
    arcs = g.step_arcs(zip(cells, cells[1:] + cells[:1]))
    try:
        validate_assignment(g, FractionalAssignment(x=dict.fromkeys(arcs, Fraction(1))), tour.coil)
    except ValueError:
        return False
    return True


def winding_by_ray(g: WhirlDigraph, tour: Tour, ray: str = "north") -> int:
    """Count tour arcs crossing one of the four open axis rays from the pivot.

    All arcs are CCW, so every crossing contributes +1 and the four totals
    agree (they all equal the winding number).  Odd boards support the
    north ray only.
    """
    if ray not in RAYS:
        raise ValueError(f"unknown ray {ray!r}; expected one of {RAYS}")
    geom = g.geometry
    n = len(tour.cells)
    return sum(
        crosses_axis_ray(geom, tour.cells[k], tour.cells[(k + 1) % n], ray)
        for k in range(n)
    )


def _check_search(n: int, budget: int) -> None:
    """search_tour's argument checks, which need only n and the budget.

    Callers run them before building the digraph, so a rejection is cheap.
    """
    BoardGeometry(n)  # a bad n keeps the board's own message
    if n % 2 and n != 3:
        raise ValueError("search supports even boards (and the n=3 fixture)")
    if budget < 1:
        raise ValueError("budget must be >= 1")


def search_tour(
    g: WhirlDigraph,
    coil_target: int | None = None,
    budget: int = 1_000_000,
    seed: int = 0,
    progress: Callable[[int, int], None] | None = None,
    stats: SearchStats | None = None,
) -> Tour | None:
    """Budgeted depth-first search for a whirling tour, optionally at a coil count.

    The cycle is grown from the first vertex, (0, 0), which every tour
    visits, so fixing it loses nothing.  Three counters per vertex u are
    kept for the path as it stands:

    * ``in_free[u]``: in-arcs from unvisited tails;
    * ``out_free[u]``: out-arcs to unvisited heads or back to the start;
    * ``cross_free[u]``: the crossing arcs among those out-arcs.

    Pushing or popping a vertex v changes only the counters of v's
    neighbours, so each update costs O(deg v).  Aggregates over the
    unvisited vertices turn the counters into the pruning rules at each
    node, with no pass over the other vertices:

    * stranded vertices: an unvisited vertex with ``out_free`` 0 kills the
      branch, and so does one with ``in_free`` 0 unless the path head has
      an arc to it;
    * forced arcs: that one vertex must be visited next, and two vertices
      with ``in_free`` 0 kill the branch;
    * ordering: fewest ``out_free`` first, ties in arc-id order; a nonzero
      seed shuffles equal-priority candidates reproducibly;
    * coil pruning (with a target): the running crossing count must never
      exceed the target, and an admissible upper bound on the remaining
      crossings (one per future tail with a crossing out-arc still open)
      must keep the target reachable.

    The search is one loop over an explicit stack: a frame per depth holds
    its untried moves and the coil on arrival, so no recursion limit caps
    the depth.  ``progress(nodes, depth)`` is called every 100 000 nodes.

    Every pruning rule only discards branches with no valid completion,
    so returning None with budget to spare means the (start-anchored)
    space was exhausted; returning None at budget means "not found".
    A returned tour is re-verified before being handed back.  n must be
    even, except n = 3 which hosts the classic 3x3 fixture.
    """
    _check_search(g.n, budget)
    nv = g.geometry.vertex_count
    out_opts = [[(g.head[a], g.w[a]) for a in arcs] for arcs in g.out_adj]  # arc-id order
    in_opts = [[(g.tail[a], g.w[a]) for a in arcs] for arcs in g.in_adj]
    has_cross_out = [any(w for _, w in opts) for opts in out_opts]
    rng = random.Random(seed) if seed else None
    if stats is None:
        stats = SearchStats()
    stats.nodes, stats.exhausted, stats.max_depth = 0, False, 0
    start = 0
    visited = bytearray(nv)
    visited[start] = 1
    path = [start]
    in_free = [sum(t != start for t, _ in opts) for opts in in_opts]
    out_free = [len(opts) for opts in out_opts]
    cross_free = [sum(w for _, w in opts) for opts in out_opts]  # w is 0 or 1
    # Aggregates over the unvisited vertices.
    no_in = {u for u in range(nv) if not visited[u] and not in_free[u]}
    no_out = sum(1 for u in range(nv) if not visited[u] and not out_free[u])
    crossing = sum(1 for u in range(nv) if not visited[u] and cross_free[u])

    def visit(v: int) -> None:
        nonlocal no_out, crossing
        visited[v] = 1
        no_in.discard(v)
        no_out -= not out_free[v]
        crossing -= cross_free[v] > 0
        for h, _ in out_opts[v]:
            in_free[h] -= 1
            if not in_free[h] and not visited[h]:
                no_in.add(h)
        for t, w in in_opts[v]:
            out_free[t] -= 1
            cross_free[t] -= w
            if not visited[t]:
                no_out += not out_free[t]
                crossing -= w and not cross_free[t]

    def unvisit(v: int) -> None:
        """Exactly undo visit(v)."""
        nonlocal no_out, crossing
        for h, _ in out_opts[v]:
            if not in_free[h]:
                no_in.discard(h)
            in_free[h] += 1
        for t, w in in_opts[v]:
            if not visited[t]:
                no_out -= not out_free[t]
                crossing += w and not cross_free[t]
            out_free[t] += 1
            cross_free[t] += w
        visited[v] = 0
        if not in_free[v]:
            no_in.add(v)
        no_out += not out_free[v]
        crossing += cross_free[v] > 0

    def moves(current: int, coil: int) -> list[tuple[int, int]]:
        """The (head, w) moves from the path head in search order; [] if dead or full."""
        if len(path) == nv or no_out or len(no_in) > 1:
            return []
        if coil_target is not None and coil + has_cross_out[current] + crossing < coil_target:
            return []
        # A vertex left with no unvisited tail can only be entered from current, now.
        candidates = [(head, w) for head, w in out_opts[current] if not visited[head]
                      and (not no_in or head in no_in) and (coil_target is None or coil + w <= coil_target)]
        if rng is not None:
            rng.shuffle(candidates)
        candidates.sort(key=lambda m: out_free[m[0]])  # stable: ties keep arc-id or shuffled order
        return candidates

    frames: list[tuple[list[tuple[int, int]], int]] = []  # untried moves, coil on arrival
    coil = 0
    while stats.nodes < budget:
        stats.nodes += 1
        depth = len(path)
        if depth > stats.max_depth:
            stats.max_depth = depth
        if progress is not None and stats.nodes % _PROGRESS_EVERY == 0:
            progress(stats.nodes, depth)
        current = path[-1]
        if depth == nv and any(h == start and coil_target in (None, coil + w) for h, w in out_opts[current]):
            return verify_tour(g, list(map(g.geometry.cell, path)))
        frames.append((moves(current, coil)[::-1], coil))  # reversed: pop() takes the next move
        while len(frames) > 1 and not frames[-1][0]:  # backtrack to the deepest frame with an untried move
            frames.pop()
            unvisit(path.pop())
        untried, arrival = frames[-1]
        if not untried:
            stats.exhausted = stats.nodes < budget
            return None
        head, w = untried.pop()
        visit(head)
        path.append(head)
        coil = arrival + w
    return None


def tour_to_json(n: int, tour: Tour) -> str:
    doc = {"n": n, "cells": [[c.i, c.j] for c in tour.cells], "coil": tour.coil}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def tour_from_json(text: str) -> tuple[int, list[Cell]]:
    """Parse a tour file; returns (n, cells).  Verification is separate."""
    doc = json.loads(text)
    try:
        n = _json_int(doc["n"])
        cells = [Cell(_json_int(i), _json_int(j)) for i, j in doc["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tour JSON: {exc}") from exc
    return n, cells
