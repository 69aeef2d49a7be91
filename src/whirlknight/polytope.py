"""Exact feasibility decisions for the cycle-cover LP.

Dropping the coil row from the LP leaves the assignment polytope of the
digraph's arcs, which is integral: the minimum and maximum of the integer
coil functional sum(w_e x_e) over it are attained at cycle covers, and
the functional's range is the whole interval between them.  Feasibility
of the LP at coil count c is therefore exactly min_coil <= c <= max_coil,
decided by two perfect-matching solves (out-copies vs in-copies of the
vertices, one edge per arc).  A solve matches each vertex to one arc
leaving it, and the tuple of those arc ids is the cover
(``CycleCover.arcs``).

The solver below is a sparse primal-dual matching on the digraph's
adjacency lists with Python-int potentials.  They start at zero, which is
dual feasible because every arc cost it is given is 0 or 1; every
comparison is exact, and there is no floating point in this module.  By
LP duality each solve's potentials are a Farkas certificate in the
paper's form, checked by ``verify_certificate`` like the closed-form
families.  Infeasible decisions carry one; feasible ones carry an exact
rational witness, the convex combination of the two extreme covers that
meets the coil row.  Small boards (n <= 7) can also have every cycle
cover enumerated, as a brute-force check of the interval.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .certificates import FarkasCertificate, verify_certificate
from .digraph import WhirlDigraph
from .geometry import Cell

__all__ = [
    "NoCycleCoverError",
    "CycleCover",
    "CoilInterval",
    "FractionalAssignment",
    "LpDecision",
    "coil_interval",
    "lp_feasible",
    "coil_of_cover",
    "enumerate_cycle_covers",
    "validate_assignment",
    "lp_decision_to_json",
]


class NoCycleCoverError(ValueError):
    """The digraph admits no cycle cover (no perfect matching exists)."""


@dataclass(frozen=True)
class CycleCover:
    """Vertex-disjoint cycles covering V, as arc ids: arcs[k] is the arc leaving vertex k.

    Valid when every arc leaves its vertex and the heads are a
    permutation; ``coil_of_cover`` checks both.
    """

    arcs: tuple[int, ...]

    def cycles(self, g: WhirlDigraph) -> list[list[Cell]]:
        """The cycles of the cover in g, each starting at its smallest cell."""
        seen, cell = bytearray(len(self.arcs)), g.geometry.cell
        out = []
        for start in range(len(self.arcs)):
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = 1
                cyc.append(cell(v))
                v = g.head[self.arcs[v]]
            if cyc:
                out.append(cyc)
        return out


@dataclass(frozen=True)
class CoilInterval:
    min_coil: int
    max_coil: int
    argmin: CycleCover
    argmax: CycleCover
    below: FarkasCertificate  # excludes c = min_coil - 1, with RHS 1
    above: FarkasCertificate  # excludes c = max_coil + 1, with RHS 1


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
    witness: FractionalAssignment | None  # set iff feasible
    certificate: FarkasCertificate | None  # set iff infeasible; RHS = distance to the interval


def _min_cost_matching(
    out_adj: Sequence[Sequence[int]], head: Sequence[int], cost: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Exact minimum-cost perfect matching of rows to columns on a sparse graph.

    Row i may take column head[a] at integer cost cost[a] for each arc id
    a in out_adj[i]; every cost must be >= 0.  Primal-dual successive
    shortest paths with integer potentials u (rows) and v (columns), both
    starting at zero, which is dual feasible because no cost is negative
    (Ahuja, Magnanti & Orlin, Network Flows, 1993).  Each phase runs one Dial
    bucket-queue Dijkstra over the reduced costs cost[a] - u[i] - v[head[a]]
    from all free rows at once, raises the potentials so that every
    shortest augmenting path becomes tight (reduced cost 0), then augments
    along a maximal set of vertex-disjoint tight paths found by iterative
    DFS.  Reduced costs stay >= 0 and matched arcs stay tight throughout,
    so the final potentials prove the matching optimal.  Dial's queue
    keeps one bucket per distance up to the largest one reached, which
    suits small integer costs such as the 0/1 coil weights.  Iteration
    order is fixed, so the result is deterministic.

    Returns the matched arc id of each row, u and v.  Raises
    NoCycleCoverError when no free row has an augmenting path, which is
    also how a vertex without out- or in-arcs shows.
    """
    nv = len(out_adj)
    u, v = [0] * nv, [0] * nv
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


def _extreme_cover(g: WhirlDigraph, gamma: int) -> tuple[CycleCover, int, FarkasCertificate]:
    """The least-coil (gamma = -1) or most-coil (gamma = +1) cover, its coil and certificate.

    The matching's arc cost is k - gamma * w with k = 1 if gamma > 0 else 0.
    A reduced cost k - gamma * w - u[tail] - v[head] >= 0 is LHS <= 0 for
    alpha = v, beta = u - k, and a zero duality gap is RHS = 1 at
    c = coil + gamma: the certificate that must verify proves the cover extreme.
    """
    k = int(gamma > 0)
    row_arc, u, v = _min_cost_matching(g.out_adj, g.head, [k - gamma * x for x in g.w])
    cell = g.geometry.cell
    cover = CycleCover(arcs=tuple(row_arc))
    coil = coil_of_cover(g, cover)
    cert = FarkasCertificate(
        n=g.n,
        c=coil + gamma,
        alpha={cell(i): x for i, x in enumerate(v) if x},
        beta={cell(i): x - k for i, x in enumerate(u) if x != k},
        gamma=gamma,
    )
    report = verify_certificate(g, cert)
    if not report.valid or report.rhs != 1:
        raise AssertionError(
            f"potentials give no certificate at c={cert.c}: valid={report.valid} "
            f"rhs={report.rhs} max_lhs={report.max_lhs}"
        )
    return cover, coil, cert


def coil_interval(g: WhirlDigraph) -> CoilInterval:
    """Extreme coil counts over all cycle covers, with witnessing covers.

    One matching solve for each end.  The endpoints are recounted from
    the witness covers' arc weights, which doubles as the runtime check
    of the integrality premise, and each solve's potentials are returned
    as a verified Farkas certificate: ``below`` excludes c = min_coil - 1
    and ``above`` excludes c = max_coil + 1, both with RHS exactly 1.
    """
    lo_cover, lo, below = _extreme_cover(g, -1)
    hi_cover, hi, above = _extreme_cover(g, 1)
    if lo > hi:
        raise AssertionError(f"matching solves disagree: min {lo} > max {hi}")
    return CoilInterval(
        min_coil=lo, max_coil=hi, argmin=lo_cover, argmax=hi_cover, below=below, above=above
    )


def coil_of_cover(g: WhirlDigraph, cover: CycleCover) -> int:
    """Total plumb-line crossing weight of a cover; validates it first."""
    arcs, geom = cover.arcs, g.geometry
    if len(arcs) != geom.vertex_count:
        raise ValueError(f"cover has {len(arcs)} arcs for {geom.vertex_count} vertices")
    for k, a in enumerate(arcs):
        if not (0 <= a < len(g.w) and g.tail[a] == k):
            raise ValueError(f"cover arc {a} does not leave vertex {tuple(geom.cell(k))}")
    if len({g.head[a] for a in arcs}) != len(arcs):
        raise ValueError("cover heads are not a permutation")
    return sum(g.w[a] for a in arcs)


def enumerate_cycle_covers(g: WhirlDigraph) -> list[CycleCover]:
    """All cycle covers of a small digraph, by arc-choice DFS.

    Rows (tails) take an out-arc in vertex order.  A branch ends as soon
    as a later row has no unused head left, or an unused column (head) has
    no later row that reaches it; both counts are kept per vertex and
    updated in O(deg) per choice.  Neither check drops a cover, so the
    covers come out in the same order as from the plain DFS.

    Guarded to n <= 7, where the covers number 1, 1, 1, 16 and 289 for
    n = 3..7.
    """
    if g.n > 7:
        raise ValueError(f"enumeration is intended for n <= 7, got n={g.n}")
    nv = g.geometry.vertex_count
    out_opts = [[g.head[a] for a in arcs] for arcs in g.out_adj]
    in_opts = [[g.tail[a] for a in arcs] for arcs in g.in_adj]
    heads_left = [len(heads) for heads in out_opts]  # unused heads of each row
    rows_left = [len(tails) for tails in in_opts]  # rows still to choose that reach each column
    used = bytearray(nv)
    chosen = [0] * nv
    covers: list[CycleCover] = []

    def rec(k: int) -> None:
        if k == nv:
            covers.append(CycleCover(arcs=tuple(chosen)))
            return
        for head in out_opts[k]:
            rows_left[head] -= 1
        for a, head in zip(g.out_adj[k], out_opts[k]):
            if used[head]:
                continue
            used[head] = 1
            for t in in_opts[head]:
                heads_left[t] -= 1
            if not (any(t > k and not heads_left[t] for t in in_opts[head])
                    or any(not used[h] and not rows_left[h] for h in out_opts[k])):
                chosen[k] = a
                rec(k + 1)
            for t in in_opts[head]:
                heads_left[t] += 1
            used[head] = 0
        for head in out_opts[k]:
            rows_left[head] += 1

    rec(0)
    return covers


def _convex_witness(g: WhirlDigraph, iv: CoilInterval, c: int) -> FractionalAssignment:
    lam = Fraction(1) if iv.max_coil == iv.min_coil else Fraction(
        iv.max_coil - c, iv.max_coil - iv.min_coil
    )
    x: dict[int, Fraction] = {}
    for cover, coef in ((iv.argmin, lam), (iv.argmax, 1 - lam)):
        if coef == 0:
            continue
        for aid in cover.arcs:
            x[aid] = x.get(aid, Fraction(0)) + coef
    return FractionalAssignment(x=x)


def validate_assignment(g: WhirlDigraph, fa: FractionalAssignment, c: int) -> None:
    """Check every LP row of an assignment exactly; raise on any residual.

    One pass over the entries sums every row, checking each entry's box
    bound and arc id before the id is used.
    """
    nv = g.geometry.vertex_count
    into, out, coil = [0] * nv, [0] * nv, 0
    for aid, val in fa.x.items():
        if not (0 <= val <= 1):
            raise ValueError(f"arc {aid} value {val} violates the box bounds")
        if not (0 <= aid < len(g.w)):
            raise ValueError(f"unknown arc id {aid}")
        into[g.head[aid]] += val
        out[g.tail[aid]] += val
        coil += g.w[aid] * val
    for k, (i, o) in enumerate(zip(into, out)):
        if i != 1 or o != 1:
            raise ValueError(f"degree rows at {tuple(g.geometry.cell(k))} sum to in={i}, out={o}")
    if coil != c:
        raise ValueError(f"coil row sums to {coil}, expected {c}")


def lp_feasible(g: WhirlDigraph, c: int) -> LpDecision:
    """Decide the cycle-cover LP at coil count c, with an exact proof either way.

    Feasible iff min_coil <= c <= max_coil.  The witness is the convex
    combination lam*argmin + (1-lam)*argmax with lam chosen so the coil
    row holds exactly; it is validated before being returned.  An
    infeasible c gets the interval's ``below`` or ``above`` certificate
    moved to c, whose RHS is then the distance from c to the interval.
    """
    iv = coil_interval(g)
    feasible = iv.min_coil <= c <= iv.max_coil
    witness = certificate = None
    if feasible:
        witness = _convex_witness(g, iv, c)
        validate_assignment(g, witness, c)
    else:
        certificate = replace(iv.below if c < iv.min_coil else iv.above, c=c)
    return LpDecision(
        n=g.n,
        c=c,
        feasible=feasible,
        min_coil=iv.min_coil,
        max_coil=iv.max_coil,
        witness=witness,
        certificate=certificate,
    )


def lp_decision_to_json(d: LpDecision) -> str:
    doc = {
        "n": d.n,
        "c": d.c,
        "feasible": d.feasible,
        "min_coil": d.min_coil,
        "max_coil": d.max_coil,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
