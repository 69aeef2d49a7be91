"""Whirling-tour verification, the tour-to-LP reduction check, winding counts, and budgeted search.

A whirling tour is a Hamiltonian directed cycle of the digraph; its coil
count is the number of tour arcs crossing the north plumb-line, which
(all arcs being CCW) equals the winding number of the cycle about the
pivot.  Search is depth-first backtracking with forced-arc propagation,
dead-vertex pruning, coil pruning and Warnsdorff-style successor
ordering, all read from per-vertex counts of the arcs still open.  It is
one loop: each step visits a vertex, moving its neighbours' counts down
by one, or backtracks one, moving them back up by one, so a node costs
O(deg), not a pass over the board.  Search is explicitly budgeted,
and a not-found result never means nonexistence.  Nonexistence claims
belong to the certificate and LP modules.  ``_tour_arcs`` is the one tour
check, which every function that takes a digraph and a tour calls; a tour
file is checked once, by it, against the digraph of the file's n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from . import _EXPORTS
from .digraph import WhirlDigraph
from .geometry import BoardGeometry, Cell, _cell, _dump_doc, _exact_int, _list, _load_doc, _read_doc, crosses_axis_ray

__all__ = list(_EXPORTS["tours"])

_PROGRESS_EVERY = 100_000  # node expansions between progress calls


@dataclass(frozen=True)
class Tour:
    """A verified Hamiltonian cycle, as the cyclic cell sequence plus coil count."""

    cells: tuple[Cell, ...]
    coil: int


@dataclass
class SearchStats:
    """Filled in by search_tour as it returns: expansions used, whether the
    space closed, and the longest path reached (``max_depth``, in vertices).

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
    cells, arcs = _tour_arcs(g, cells)
    return Tour(cells=cells, coil=sum(g.w[a] for a in arcs))


def _tour_arcs(g: WhirlDigraph, cells) -> tuple[tuple[Cell, ...], list[int]]:
    """The one tour check: the checked cells and their steps' arc ids, the closing step last.

    Each vertex must appear exactly once; then each cyclic step must be an arc.
    """
    geom = g.geometry
    seen: dict[Cell, None] = {}  # the cells in visiting order
    for c in cells:
        geom.index(c)  # raises on anything that is not a vertex, a non-pair included
        c = Cell(*c)
        if c in seen:
            raise ValueError(f"vertex {tuple(c)} is visited twice")
        seen[c] = None
    cells, nv = tuple(seen), geom.vertex_count
    if len(cells) != nv:
        unseen = (c for c in map(geom.cell, range(nv)) if c not in seen)
        missing = [tuple(c) for c in islice(unseen, 3)]
        raise ValueError(f"not Hamiltonian: {nv - len(cells)} vertices missing, e.g. {missing}")
    return cells, g.step_arcs(zip(cells, cells[1:] + cells[:1]))


def check_reduction(g: WhirlDigraph, tour: Tour) -> bool:
    """Check the tour-to-LP reduction row by row.

    Converts the tour to its 0/1 arc indicator and checks it with
    ``validate_assignment`` against the tour's coil count: degree rows,
    coil row and box bounds.  Raises on inputs that are not Hamiltonian
    cycles of g at all.
    """
    from .polytope import FractionalAssignment, validate_assignment  # the only use of polytope here

    _, arcs = _tour_arcs(g, tour.cells)
    try:
        validate_assignment(g, FractionalAssignment(x=dict.fromkeys(arcs, 1)), tour.coil)
    except ValueError:
        return False
    return True


def winding_by_ray(g: WhirlDigraph, tour: Tour, ray: str = "north") -> int:
    """Count tour arcs crossing one of the four open axis rays from the pivot.

    All arcs are CCW, so every crossing contributes +1 and the four totals
    agree (they all equal the winding number).  Odd boards support the
    north ray only; a tour of another digraph raises ``ValueError``.
    """
    _, arcs = _tour_arcs(g, tour.cells)
    return sum(crosses_axis_ray(g.geometry, t, h, ray) for t, h, _, _ in map(g.arc, arcs))


def search_tour(
    g: WhirlDigraph,
    coil_target: int | None = None,
    budget: int = 1_000_000,
    seed: int = 0,
    progress: Callable[[int, int], None] | None = None,
    stats: SearchStats | None = None,
) -> Tour | None:
    """Budgeted depth-first search for a whirling tour, optionally at a coil count.

    The search reads only the vertex count and the arc columns.  Parallel
    arcs count once: a step (t, h) is the first arc of the pair in arc-id
    order, as ``verify_tour`` counts it.  The cycle is grown from the first
    vertex, (0, 0), which every tour visits, so fixing it loses nothing.
    Three counters per vertex u are kept for the path as it stands:

    * ``in_free[u]``: in-arcs from unvisited tails;
    * ``out_free[u]``: out-arcs to unvisited heads or back to the start;
    * ``cross_free[u]``: the crossing arcs among those out-arcs.

    Three counts over the unvisited vertices turn them into the pruning
    rules at each node, with no pass over the other vertices:

    * stranded vertices: an unvisited vertex with ``out_free`` 0 kills the
      branch, and so does one with ``in_free`` 0 unless the path head has
      an arc to it;
    * forced arcs: that one vertex must be visited next, and two vertices
      with ``in_free`` 0 kill the branch;
    * ordering: fewest ``out_free`` first, ties in arc-id order; a nonzero
      seed shuffles equal-priority candidates reproducibly (a node with
      fewer than two moves skips both, as its shuffle would draw nothing);
    * coil pruning (with a target): the running crossing count must never
      exceed the target, and an admissible upper bound on the remaining
      crossings (one per future tail with a crossing out-arc still open)
      must keep the target reachable.

    The search is one loop over an explicit stack (a frame per depth: its
    untried moves and the coil on arrival), so no recursion limit caps the
    depth.  Each step visits the next untried move or backtracks one
    vertex.  A visit takes v out of the counts at its counters as they
    stand, then each arc at v moves the other end's counter by -1, and an
    unvisited neighbour's count changes when that counter reaches 0.  A
    backtrack puts v back at its counters as they stand, then each arc at
    v moves the other end's counter by +1, and the count changes back when
    that counter leaves 0.  So a backtrack exactly undoes its visit on any
    column digraph, self-loops included.
    The node count and depth are locals: ``progress(nodes, depth)`` gets
    them every 100 000 nodes, and ``stats`` is written on return.

    Every pruning rule only discards branches with no valid completion,
    so returning None with budget to spare means the (start-anchored)
    space was exhausted; returning None at budget means "not found".
    A returned tour is re-verified before being handed back.  Before any node, ``ValueError`` is raised,
    in this order, for a budget that is not an ``int`` >= 1, a coil target or seed that is not exactly an
    ``int`` (so no float decides what a search proves or the order it tries), an arc end outside
    ``range(vertex_count)`` and a weight other than 0 or 1; unequal arc columns raise at construction.
    """
    if _exact_int(budget, "budget") < 1:
        raise ValueError("budget must be >= 1")
    if coil_target is not None:
        _exact_int(coil_target, "coil count")
    _exact_int(seed, "seed")
    nv = g.geometry.vertex_count
    # The counters index by the arc ends, and the coil prune assumes 0/1 weights.
    tail, head = g.ends
    if not set(g.w) <= {0, 1}:
        raise ValueError("an arc weight is not 0 or 1")
    # Without a target the coil window [0, nv] never prunes: a coil is at most its arc count.
    lo, hi = (0, nv) if coil_target is None else (coil_target, coil_target)
    first: dict[tuple[int, int], int] = {}  # (tail, head) -> w of the pair's first arc
    for t, h, w in zip(tail, head, g.w):
        first.setdefault((t, h), w)
    out_opts: list[list[tuple[int, int]]] = [[] for _ in range(nv)]  # (head, w), arc-id order
    in_tails: list[list[int]] = [[] for _ in range(nv)]
    for (t, h), w in first.items():
        out_opts[t].append((h, w))
        in_tails[h].append(t)
    has_cross_out = [any(w for _, w in opts) for opts in out_opts]
    in_cross = [[t for t in tails if first[t, h]] for h, tails in enumerate(in_tails)]  # crossing in-arcs
    rng = random.Random(seed) if seed else None
    if stats is None:
        stats = SearchStats()
    stats.nodes, stats.exhausted, stats.max_depth = 0, False, 0
    start = 0
    visited = bytearray(nv)
    visited[start] = 1
    path = [start]
    in_free = [sum(t != start for t in tails) for tails in in_tails]
    out_free = [len(opts) for opts in out_opts]
    cross_free = [sum(w for _, w in opts) for opts in out_opts]  # w is 0 or 1
    # Counts over the unvisited vertices.
    no_in = sum(1 for u in range(nv) if not visited[u] and not in_free[u])
    no_out = sum(1 for u in range(nv) if not visited[u] and not out_free[u])
    crossing = sum(1 for u in range(nv) if not visited[u] and cross_free[u])
    frames: list[tuple[list[tuple[int, int]], int]] = []  # untried moves, coil on arrival
    by_out_free = lambda m: out_free[m[0]]  # the move order's key, built once
    coil, nodes, max_depth, tour = 0, 0, 0, None
    while nodes < budget:  # a new node: count it, try the closing arc, list its moves
        nodes += 1
        depth = len(path)
        if depth > max_depth:
            max_depth = depth
        if progress is not None and nodes % _PROGRESS_EVERY == 0:
            progress(nodes, depth)
        current = path[-1]
        if depth == nv and any(h == start and lo <= coil + w <= hi for h, w in out_opts[current]):
            tour = verify_tour(g, list(map(g.geometry.cell, path)))
            break
        moves = []
        if not (no_out or no_in > 1 or coil + has_cross_out[current] + crossing < lo):
            # A vertex left with no unvisited tail can only be entered from current, now.
            moves = [(h, w) for h, w in out_opts[current] if not visited[h]
                     and (not no_in or not in_free[h]) and coil + w <= hi]
            if len(moves) > 1:  # fewer need no order, and their shuffle draws nothing
                if rng is not None:
                    rng.shuffle(moves)
                moves.sort(key=by_out_free)  # stable: ties keep arc-id or shuffled order
                moves.reverse()  # pop() takes the next move
        frames.append((moves, coil))
        while not moves:  # backtrack one vertex: it rejoins the counts, each arc at it gives one back
            frames.pop()
            if not frames:  # the root has no move left
                stats.exhausted = nodes < budget
                break
            v = path.pop()
            no_in += not in_free[v]
            no_out += not out_free[v]
            crossing += cross_free[v] > 0
            visited[v] = 0
            for h, _ in out_opts[v]:
                x = in_free[h]
                in_free[h] = x + 1
                if not x and not visited[h]:
                    no_in -= 1
            for t in in_tails[v]:
                x = out_free[t]
                out_free[t] = x + 1
                if not x and not visited[t]:
                    no_out -= 1
            for t in in_cross[v]:
                x = cross_free[t]
                cross_free[t] = x + 1
                if not x and not visited[t]:
                    crossing += 1
            moves, coil = frames[-1]
        else:  # visit the next untried head: it leaves the counts, each arc at it takes one
            v, w = moves.pop()
            path.append(v)
            coil += w
            no_in -= not in_free[v]
            no_out -= not out_free[v]
            crossing -= cross_free[v] > 0
            visited[v] = 1
            for h, _ in out_opts[v]:
                x = in_free[h] - 1
                in_free[h] = x
                if not x and not visited[h]:
                    no_in += 1
            for t in in_tails[v]:
                x = out_free[t] - 1
                out_free[t] = x
                if not x and not visited[t]:
                    no_out += 1
            for t in in_cross[v]:
                x = cross_free[t] - 1
                cross_free[t] = x
                if not x and not visited[t]:
                    crossing -= 1
            continue
        break  # the space is closed
    stats.nodes, stats.max_depth = nodes, max_depth
    return tour


def tour_to_json(n: int, tour: Tour) -> str:
    """The tour file of a tour on the n x n board; an n whose board the tour does not cover raises."""
    nv = BoardGeometry(n).vertex_count  # rises strictly with n, so it pins the tour's n
    if len(tour.cells) != nv:
        raise ValueError(f"the tour has {len(tour.cells)} cells, the n={n} board has {nv} vertices")
    doc = {"n": n, "cells": [[c[0], c[1]] for c in tour.cells], "coil": tour.coil}
    return _dump_doc(doc)


def tour_from_json(text: str) -> tuple[int, list[Cell], int | None]:
    """Parse a tour file; returns (n, cells, coil), coil None when the file has no ``coil``.

    Verification, the claimed coil's included, is separate.
    """
    return _tour_from_doc(_load_doc(text))


def _tour_from_doc(doc: object) -> tuple[int, list[Cell], int | None]:
    """``tour_from_json`` on the document ``_load_doc`` returned."""
    return _read_doc(doc, "tour", lambda doc: (
        _exact_int(doc["n"], "n"),
        list(map(_cell, _list(doc["cells"], "cells"))),
        _exact_int(doc["coil"], "coil") if "coil" in doc else None,
    ))
