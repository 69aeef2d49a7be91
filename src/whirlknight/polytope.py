"""Exact feasibility decisions for the cycle-cover LP.

Dropping the coil row from the LP leaves the assignment polytope of the
digraph's arcs, which is integral: the minimum and maximum of the integer
coil functional sum(w_e x_e) over it are attained at cycle covers, and
the functional's range is the whole interval between them.  Feasibility
of the LP at coil count c is therefore exactly min_coil <= c <= max_coil,
decided by two perfect-matching solves (out-copies vs in-copies of the
vertices, one edge per arc).

The solver below is a sparse primal-dual matching on the digraph's
adjacency lists with Python-int potentials, so every comparison is exact;
there is no floating point in this module.  Each solve returns its
potentials, which prove the extreme cover optimal by LP duality.
Feasible decisions come with an exact rational witness: the convex
combination of the two extreme covers that meets the coil row.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .digraph import WhirlDigraph
from .geometry import Cell

if TYPE_CHECKING:  # pragma: no cover
    from .tours import Tour

__all__ = [
    "NoCycleCoverError",
    "CycleCover",
    "CoilInterval",
    "MatchingDuals",
    "FractionalAssignment",
    "LpDecision",
    "coil_interval",
    "lp_feasible",
    "coil_of_cover",
    "check_reduction",
    "validate_assignment",
    "cover_to_json",
    "cover_from_json",
    "lp_decision_to_json",
]


class NoCycleCoverError(ValueError):
    """The digraph admits no cycle cover (no perfect matching exists)."""


@dataclass(frozen=True)
class CycleCover:
    """Successor permutation along arcs: vertex-disjoint cycles covering V."""

    succ: dict[Cell, Cell]

    def cycles(self) -> list[list[Cell]]:
        """The cycles of the cover, each starting at its smallest cell."""
        seen: set[Cell] = set()
        out = []
        for start in sorted(self.succ):
            if start in seen:
                continue
            cyc = []
            v = start
            while v not in seen:
                seen.add(v)
                cyc.append(v)
                v = self.succ[v]
            out.append(cyc)
        return out


@dataclass(frozen=True)
class MatchingDuals:
    """Integer potentials that prove a perfect matching optimal.

    ``u`` is indexed by tail vertex and ``v`` by head vertex.  Every arc
    e = (t, h) of cost c_e has reduced cost c_e - u[t] - v[h] >= 0, and
    sum(u) + sum(v) equals the matching's cost, so by LP duality no cycle
    cover costs less.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True)
class CoilInterval:
    min_coil: int
    max_coil: int
    argmin: CycleCover
    argmax: CycleCover
    min_duals: MatchingDuals  # for arc cost w
    max_duals: MatchingDuals  # for arc cost 1 - w


@dataclass(frozen=True)
class FractionalAssignment:
    """Arc-id -> value map with exact rational entries; omitted ids are 0."""

    x: dict[int, Fraction]


@dataclass(frozen=True)
class LpDecision:
    n: int
    c: int
    feasible: bool
    min_coil: int
    max_coil: int
    witness: FractionalAssignment | None


def _min_cost_matching(
    out_adj: Sequence[Sequence[int]], head: Sequence[int], cost: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Exact minimum-cost perfect matching of rows to columns on a sparse graph.

    Row i may take column head[a] at integer cost cost[a] for each arc id
    a in out_adj[i].  Primal-dual successive shortest paths with integer
    potentials u (rows) and v (columns).  Each phase runs one Dial
    bucket-queue Dijkstra over the reduced costs cost[a] - u[i] - v[head[a]]
    from all free rows at once, raises the potentials so that every
    shortest augmenting path becomes tight (reduced cost 0), then augments
    along a maximal set of vertex-disjoint tight paths found by iterative
    DFS.  Reduced costs stay >= 0 and matched arcs stay tight throughout,
    so the final potentials prove the matching optimal.  Dial's queue
    keeps one bucket per distance up to the largest one reached, which
    suits small integer costs such as the 0/1 coil weights.  Iteration order is
    fixed, so the result is deterministic.

    Returns the matched arc id of each row, u and v.  Raises
    NoCycleCoverError when some free row has no augmenting path.
    """
    nv = len(out_adj)
    u = []
    for arcs in out_adj:
        if not arcs:
            raise NoCycleCoverError("no cycle cover exists: some vertex has no out-arc")
        u.append(min(cost[a] for a in arcs))
    v = [0] * nv
    has_in = bytearray(nv)
    for i, arcs in enumerate(out_adj):
        for a in arcs:
            h = head[a]
            r = cost[a] - u[i]
            if not has_in[h] or r < v[h]:
                v[h] = r
                has_in[h] = 1
    if not all(has_in):
        raise NoCycleCoverError("no cycle cover exists: some vertex has no in-arc")

    row_arc = [-1] * nv  # matched arc of each row
    col_row = [-1] * nv  # matched row of each column
    free = list(range(nv))
    while free:
        # Dial's Dijkstra: buckets[d] holds columns at tentative distance d;
        # a matched column passes its distance to its row at reduced cost 0.
        dist = [-1] * nv
        buckets: list[list[int]] = [[]]
        scanned = [(i, 0) for i in free]  # rows, in scan order
        settled = []  # matched columns popped before the first free one
        best = -1  # least tentative distance of a free column so far
        top = d = 0
        while True:
            while top < len(scanned):
                i, di = scanned[top]
                top += 1
                ui = u[i] - di
                for a in out_adj[i]:
                    h = head[a]
                    nd = cost[a] - ui - v[h]
                    if 0 <= best <= nd:
                        continue
                    dh = dist[h]
                    if dh < 0 or nd < dh:
                        dist[h] = nd
                        if col_row[h] < 0:
                            best = nd
                        while len(buckets) <= nd:
                            buckets.append([])
                        buckets[nd].append(h)
            while d < len(buckets) and not buckets[d]:
                d += 1
            if d == len(buckets):
                raise NoCycleCoverError(
                    "no cycle cover exists: some vertex cannot be matched"
                )
            h = buckets[d].pop()
            if dist[h] != d:
                continue  # stale entry; h was reached more cheaply
            i = col_row[h]
            if i < 0:
                break
            settled.append((h, d))
            scanned.append((i, d))
        for i, di in scanned:
            if di < d:
                u[i] += d - di
        for h, dh in settled:
            if dh < d:
                v[h] -= d - dh

        # Augment along a maximal set of vertex-disjoint tight paths.
        seen = bytearray(nv)
        ptr = [0] * nv
        for r in free:
            rows = [r]
            path: list[int] = []
            while rows:
                i = rows[-1]
                adj = out_adj[i]
                k = ptr[i]
                ui = u[i]
                while k < len(adj):
                    a = adj[k]
                    k += 1
                    h = head[a]
                    if not seen[h] and cost[a] - ui == v[h]:
                        seen[h] = 1
                        break
                else:
                    ptr[i] = k
                    rows.pop()
                    if path:
                        path.pop()
                    continue
                ptr[i] = k
                path.append(a)
                nxt = col_row[h]
                if nxt < 0:
                    for i, a in zip(rows, path):
                        row_arc[i] = a
                        col_row[head[a]] = i
                    break
                rows.append(nxt)
        free = [i for i in free if row_arc[i] < 0]
    return row_arc, u, v


def _solve_cover(g: WhirlDigraph, cost: Sequence[int]) -> tuple[CycleCover, MatchingDuals]:
    row_arc, u, v = _min_cost_matching(g.out_adj, g.head, cost)
    succ = {g.vertices[i]: g.arcs[a].head for i, a in enumerate(row_arc)}
    return CycleCover(succ=succ), MatchingDuals(u=tuple(u), v=tuple(v))


def _check_duals(g: WhirlDigraph, cost: Sequence[int], duals: MatchingDuals, total: int) -> None:
    """Exact optimality proof: reduced costs >= 0 and zero duality gap."""
    u, v, head = duals.u, duals.v, g.head
    for i, arcs in enumerate(g.out_adj):
        for a in arcs:
            if cost[a] - u[i] - v[head[a]] < 0:
                raise AssertionError(f"potentials violate the reduced cost of arc {a}")
    if sum(u) + sum(v) != total:
        raise AssertionError(
            f"duality gap: potentials sum to {sum(u) + sum(v)}, cover costs {total}"
        )


def coil_interval(g: WhirlDigraph) -> CoilInterval:
    """Extreme coil counts over all cycle covers, with witnessing covers.

    One min-cost matching solve with arc cost w and one with cost 1 - w.
    The returned endpoints are recounted from the witness covers' arc
    weights, which doubles as the runtime check of the integrality
    premise, and each solve's potentials are checked to prove its cover
    optimal.
    """
    w_max = [1 - x for x in g.w]
    lo_cover, lo_duals = _solve_cover(g, g.w)
    hi_cover, hi_duals = _solve_cover(g, w_max)
    lo = coil_of_cover(g, lo_cover)
    hi = coil_of_cover(g, hi_cover)
    _check_duals(g, g.w, lo_duals, lo)
    _check_duals(g, w_max, hi_duals, len(g.vertices) - hi)
    if lo > hi:
        raise AssertionError(f"matching solves disagree: min {lo} > max {hi}")
    return CoilInterval(
        min_coil=lo,
        max_coil=hi,
        argmin=lo_cover,
        argmax=hi_cover,
        min_duals=lo_duals,
        max_duals=hi_duals,
    )


def coil_of_cover(g: WhirlDigraph, cover: CycleCover) -> int:
    """Total plumb-line crossing weight of a cover; validates it first."""
    succ = cover.succ
    if set(succ) != set(g.vertices):
        raise ValueError("cover does not assign a successor to every vertex")
    if len(set(succ.values())) != len(succ):
        raise ValueError("cover successors are not a permutation")
    total = 0
    for t, h in succ.items():
        a = g.arc_between(t, h)
        if a is None:
            raise ValueError(f"cover step {tuple(t)} -> {tuple(h)} is not an arc")
        total += a.w
    return total


def _convex_witness(g: WhirlDigraph, iv: CoilInterval, c: int) -> FractionalAssignment:
    lam = Fraction(1) if iv.max_coil == iv.min_coil else Fraction(
        iv.max_coil - c, iv.max_coil - iv.min_coil
    )
    x: dict[int, Fraction] = {}
    for cover, coef in ((iv.argmin, lam), (iv.argmax, 1 - lam)):
        if coef == 0:
            continue
        for t, h in cover.succ.items():
            aid = g.arc_between(t, h).id
            x[aid] = x.get(aid, Fraction(0)) + coef
    return FractionalAssignment(x=x)


def validate_assignment(g: WhirlDigraph, fa: FractionalAssignment, c: int) -> None:
    """Check every LP row of an assignment exactly; raise on any residual."""
    for aid, val in fa.x.items():
        if not (0 <= val <= 1):
            raise ValueError(f"arc {aid} value {val} violates the box bounds")
        if not (0 <= aid < len(g.arcs)):
            raise ValueError(f"unknown arc id {aid}")
    for k, v in enumerate(g.vertices):
        into = sum(fa.x.get(a, Fraction(0)) for a in g.in_adj[k])
        out = sum(fa.x.get(a, Fraction(0)) for a in g.out_adj[k])
        if into != 1 or out != 1:
            raise ValueError(f"degree rows at {tuple(v)} sum to in={into}, out={out}")
    coil = sum(g.w[aid] * val for aid, val in fa.x.items())
    if coil != c:
        raise ValueError(f"coil row sums to {coil}, expected {c}")


def lp_feasible(g: WhirlDigraph, c: int) -> LpDecision:
    """Decide the cycle-cover LP at coil count c, with an exact witness.

    Feasible iff min_coil <= c <= max_coil.  The witness is the convex
    combination lam*argmin + (1-lam)*argmax with lam chosen so the coil
    row holds exactly; it is validated before being returned.
    """
    iv = coil_interval(g)
    feasible = iv.min_coil <= c <= iv.max_coil
    witness = None
    if feasible:
        witness = _convex_witness(g, iv, c)
        validate_assignment(g, witness, c)
    return LpDecision(
        n=g.n,
        c=c,
        feasible=feasible,
        min_coil=iv.min_coil,
        max_coil=iv.max_coil,
        witness=witness,
    )


def check_reduction(g: WhirlDigraph, tour: "Tour") -> bool:
    """Check the tour-to-LP reduction row by row.

    Converts the tour to its 0/1 arc indicator and verifies the degree
    rows, the coil row against the tour's coil count, and the box bounds.
    Raises on inputs that are not Hamiltonian cycles of g at all.
    """
    cells = [Cell(*c) for c in tour.cells]
    if len(cells) != len(g.vertices) or set(cells) != set(g.vertices):
        raise ValueError("not a Hamiltonian cycle: vertex set mismatch")
    x = [0] * len(g.arcs)
    for k, t in enumerate(cells):
        a = g.arc_between(t, cells[(k + 1) % len(cells)])
        if a is None:
            raise ValueError(f"tour step from {tuple(t)} is not an arc")
        x[a.id] = 1
    ok = all(sum(x[a] for a in g.in_adj[k]) == 1 for k in range(len(g.vertices)))
    ok = ok and all(sum(x[a] for a in g.out_adj[k]) == 1 for k in range(len(g.vertices)))
    ok = ok and all(val in (0, 1) for val in x)
    coil_row = sum(w * xa for w, xa in zip(g.w, x))
    return ok and coil_row == tour.coil


def cover_to_json(n: int, cover: CycleCover) -> str:
    steps = [[t.i, t.j, h.i, h.j] for t, h in sorted(cover.succ.items())]
    return json.dumps({"n": n, "succ": steps}, separators=(",", ":")) + "\n"


def cover_from_json(text: str) -> tuple[int, CycleCover]:
    """Parse a cover file; a tail listed twice is an error, not an overwrite."""
    doc = json.loads(text)
    try:
        n = int(doc["n"])
        succ: dict[Cell, Cell] = {}
        for a, b, c, d in doc["succ"]:
            t = Cell(int(a), int(b))
            if t in succ:
                raise ValueError(f"tail {tuple(t)} is listed twice")
            succ[t] = Cell(int(c), int(d))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed cycle-cover JSON: {exc}") from exc
    return n, CycleCover(succ=succ)


def lp_decision_to_json(d: LpDecision) -> str:
    doc = {
        "n": d.n,
        "c": d.c,
        "feasible": d.feasible,
        "min_coil": d.min_coil,
        "max_coil": d.max_coil,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
