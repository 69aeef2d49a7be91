"""Whirling-tour verification, winding counts, and budgeted search.

A whirling tour is a Hamiltonian directed cycle of the digraph; its coil
count is the number of tour arcs crossing the north plumb-line, which
(all arcs being CCW) equals the winding number of the cycle about the
pivot.  Search is depth-first backtracking with forced-arc propagation,
dead-vertex pruning and Warnsdorff-style successor ordering; it is
explicitly budgeted, and a not-found result never means nonexistence.
Nonexistence claims belong to the certificate and LP modules.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .digraph import WhirlDigraph
from .geometry import RAYS, BoardGeometry, Cell, _json_int, crosses_axis_ray

__all__ = [
    "Tour",
    "SearchStats",
    "verify_tour",
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
    """Filled in by search_tour: expansions used and whether the space closed.

    Each call resets both fields, so a reused object describes the last search.

    ``exhausted`` True means the depth-first search ran out of branches
    before running out of budget, i.e. no tour satisfying the constraints
    exists from the canonical start vertex (which is every tour, since a
    Hamiltonian cycle visits it).  It needs budget to spare: when the
    space closes on exactly the last node of the budget, it stays False.
    """

    nodes: int = 0
    exhausted: bool = False


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
    n, centre = geom.n, geom.centre_cell()
    cells = tuple(Cell(*c) for c in cells)
    seen: set[Cell] = set()
    for c in cells:
        if not geom.on_board(c) or c == centre:
            raise ValueError(f"{tuple(c)} is not a vertex of the n={n} digraph")
        if c in seen:
            raise ValueError(f"vertex {tuple(c)} is visited twice")
        seen.add(c)
    nv = n * n - n % 2
    if len(cells) != nv:
        unseen = ((i, j) for i in range(n) for j in range(n) if (i, j) not in seen and (i, j) != centre)
        missing = list(islice(unseen, 3))
        raise ValueError(f"not Hamiltonian: {nv - len(cells)} vertices missing, e.g. {missing}")
    return cells


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
    visits, so fixing it loses nothing.  At each node:

    * dead-vertex pruning: any unvisited vertex with no remaining in- or
      out-option kills the branch;
    * forced arcs: an unvisited vertex whose only remaining in-option is
      the current path head must be visited next (two such vertices kill
      the branch);
    * ordering: fewest onward successors first, ties in arc-id order; a
      nonzero seed shuffles equal-priority candidates reproducibly;
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
    nv = len(g.vertices)
    out_opts = [[(g.head[a], g.w[a]) for a in arcs] for arcs in g.out_adj]  # arc-id order
    in_tails = [[g.tail[a] for a in arcs] for arcs in g.in_adj]
    has_cross_out = [any(w for _, w in opts) for opts in out_opts]
    onward = [0] * nv  # remaining out-options per unvisited vertex, set by each sweep
    rng = random.Random(seed) if seed else None
    if stats is None:
        stats = SearchStats()
    stats.nodes, stats.exhausted = 0, False
    start = 0
    visited = bytearray(nv)
    visited[start] = 1
    path = [start]

    def moves(current: int, coil: int) -> list[tuple[int, int]]:
        """The (head, w) moves from the path head in search order; [] if dead or full."""
        if len(path) == nv:
            return []
        # Pruning sweep over unvisited vertices: liveness, forcing, coil bound.
        forced = -1
        cross_bound = 1 if (coil_target is not None and has_cross_out[current]) else 0
        for u in range(nv):
            if visited[u]:
                continue
            in_ok = 0
            in_from_current = False
            for t in in_tails[u]:
                if not visited[t]:
                    in_ok += 1
                elif t == current:
                    in_ok += 1
                    in_from_current = True
            if in_ok == 0:
                return []
            out_ok = 0
            cross_ok = False
            for head, w in out_opts[u]:
                if not visited[head] or head == start:
                    out_ok += 1
                    if w:
                        cross_ok = True
            if out_ok == 0:
                return []
            onward[u] = out_ok
            if cross_ok:
                cross_bound += 1
            if in_ok == 1 and in_from_current:
                if forced >= 0 and forced != u:
                    return []
                forced = u
        if coil_target is not None and coil + cross_bound < coil_target:
            return []
        candidates = [(head, w) for head, w in out_opts[current] if not visited[head] and forced in (-1, head)
                      and (coil_target is None or coil + w <= coil_target)]
        if rng is not None:
            rng.shuffle(candidates)
        candidates.sort(key=lambda m: onward[m[0]])  # stable: ties keep arc-id or shuffled order
        return candidates

    frames: list[tuple[list[tuple[int, int]], int]] = []  # untried moves, coil on arrival
    coil = 0
    while stats.nodes < budget:
        stats.nodes += 1
        if progress is not None and stats.nodes % _PROGRESS_EVERY == 0:
            progress(stats.nodes, len(path))
        current = path[-1]
        if len(path) == nv and any(h == start and coil_target in (None, coil + w) for h, w in out_opts[current]):
            return verify_tour(g, [g.vertices[k] for k in path])
        frames.append((moves(current, coil)[::-1], coil))  # reversed: pop() takes the next move
        while frames and not frames[-1][0]:  # backtrack to the deepest frame with an untried move
            frames.pop()
            visited[path.pop()] = 0
        if not frames:
            stats.exhausted = stats.nodes < budget
            return None
        untried, arrival = frames[-1]
        head, w = untried.pop()
        visited[head] = 1
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
