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
adjacency lists with Python-int potentials; every comparison is exact,
and there is no floating point in this module.  It runs a shortest-path
search only when a sweep for tight augmenting paths finds none.  The
least-coil solve starts with every row free; the most-coil solve starts
from the least-coil cover, keeping each row's arc where it is of least
cost, so only a few rows start free.  By LP duality each
solve's potentials are a Farkas certificate in the paper's form.  The
certificate checker itself proves it, run on the potentials' columns,
and it is built as cells only on first access.  Infeasible decisions
carry one; feasible ones carry an exact rational witness, the convex
combination of the two extreme covers that meets the coil row.
``validate_assignment`` checks a witness in plain ``int`` arithmetic: it
scales every value to the lcm of their denominators, so each row sum is
one integer compared with that lcm.
Small boards (n <= 7) can also have every cycle cover enumerated, as a
brute-force check of the interval.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _EXPORTS
from .certificates import FarkasCertificate, _check_columns
from .digraph import WhirlDigraph
from .geometry import BoardGeometry, Cell, _dump_doc, _exact_int

__all__ = list(_EXPORTS["polytope"])


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
        """The cycles of the cover in g, each starting at its smallest cell.

        An invalid cover, or an arc end of g outside ``range(vertex_count)``,
        raises ``ValueError``, as in ``coil_of_cover``.
        """
        coil_of_cover(g, self)
        head, seen, cell = g.ends[1], bytearray(len(self.arcs)), g.geometry.cell
        out = []
        for start in range(len(self.arcs)):
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = 1
                cyc.append(cell(v))
                v = head[self.arcs[v]]
            if cyc:
                out.append(cyc)
        return out


@dataclass(frozen=True)
class CoilInterval:
    """The coil interval, its extreme covers and each end's certificate columns.

    ``columns[gamma]`` is the (alpha, beta) by vertex index of the solve with
    that gamma: the least-coil solve's potentials at -1, the most-coil's at 1.
    ``below`` (excludes c = min_coil - 1) and ``above`` (c = max_coil + 1),
    both with RHS 1, are built from them on first access.
    """

    min_coil: int
    max_coil: int
    argmin: CycleCover
    argmax: CycleCover
    geometry: BoardGeometry
    columns: dict[int, tuple[list[int], list[int]]]

    @cached_property
    def below(self) -> FarkasCertificate:
        return self._certificate(self.min_coil - 1)

    @cached_property
    def above(self) -> FarkasCertificate:
        return self._certificate(self.max_coil + 1)

    def _certificate(self, c: int) -> FarkasCertificate:
        """The certificate at c outside the interval; its RHS is c's distance to the interval."""
        gamma = -1 if c < self.min_coil else 1
        cell = self.geometry.cell
        alpha, beta = ({cell(i): x for i, x in enumerate(col) if x} for col in self.columns[gamma])
        return FarkasCertificate(n=self.geometry.n, c=c, alpha=alpha, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class FractionalAssignment:
    """Arc-id -> value map with exact entries, each an ``int`` or a ``Fraction``; omitted ids are 0."""

    x: dict[int, int | Fraction]


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
    out_adj: Sequence[Sequence[int]],
    head: Sequence[int],
    cost: Sequence[int],
    start: Sequence[int] | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Exact minimum-cost perfect matching of rows to columns on a sparse graph.

    Row i may take column head[a] at any integer cost cost[a] for each arc
    id a in out_adj[i], which lists every arc.  Primal-dual successive
    shortest paths with integer potentials u (rows) and v (columns) (Ahuja,
    Magnanti & Orlin, Network Flows, 1993).  The solve alternates two
    steps.  A sweep augments along a maximal set of vertex-disjoint tight
    paths (reduced cost cost[a] - u[i] - v[head[a]] = 0) found by
    iterative DFS from the free rows; a sweep that augmented is followed at
    once by another.  A sweep reaches each row at most once, since the
    column that leads to it is then seen, so it reads each row's arcs
    through one iterator, made when it first reaches the row and resumed
    when the DFS backs up to it: every arc is tried at most once per
    sweep, in out_adj order.  A root whose first tight arc ends at a free
    column is matched at once, and keeps no path.  Only a sweep that
    augments nothing, which proves that no tight augmenting path is left,
    is followed by one Dial bucket-queue Dijkstra over the reduced costs
    from all free rows at once; it raises the potentials so that every
    shortest augmenting path becomes tight.

    The first phase is closed form.  Without a start every u begins at the
    least arc cost and every v at 0, and every row is free.  start, if
    given, must be a perfect matching of the same graph: start[i] in
    out_adj[i] and the heads distinct.  Each u then begins at its own row's
    least arc cost, every v at 0, and a row keeps its start arc if that arc
    is tight; only the others begin free.  Either way every reduced cost
    starts >= 0 whatever the costs' signs.  Reduced costs stay >= 0 and
    matched arcs stay tight throughout, so the final potentials prove the
    matching optimal.  Dial's queue keeps one bucket per distance up to the
    largest one reached, which suits small integer costs such as the 0/1
    coil weights.  Iteration order is fixed, so the result is deterministic.

    Returns the matched arc id of each row, u and v.  Raises
    NoCycleCoverError when no free row has an augmenting path, which is
    also how a vertex without out- or in-arcs shows; with a start, a row
    without arcs raises a plain ``ValueError`` before any sweep.
    """
    nv = len(out_adj)
    v = [0] * nv
    row_arc = [-1] * nv  # matched arc of each row
    col_row = [-1] * nv  # matched row of each column
    if start is None:
        u = [min(cost, default=0)] * nv
        free = list(range(nv))
    else:
        u = []
        for adj in out_adj:
            if not adj:
                raise ValueError("a start is given for a row with no arcs")
            low = cost[adj[0]]
            for a in adj:
                if cost[a] < low:
                    low = cost[a]
            u.append(low)
        free = []
        for i, a in enumerate(start):
            if cost[a] == u[i]:
                row_arc[i] = a
                col_row[head[a]] = i
            else:
                free.append(i)
    while True:
        # Augment along a maximal set of vertex-disjoint tight paths.  Row i
        # (potential ui) reads its arcs through it; the rows below it wait
        # in rows with their iterators in iters, and path[k] leaves rows[k].
        seen = bytearray(nv)
        for i in free:
            it, ui, rows = iter(out_adj[i]), u[i], None
            while True:
                for a in it:
                    h = head[a]
                    if not seen[h] and cost[a] - ui == v[h]:
                        seen[h] = 1
                        break
                else:  # i is a dead end: go back to the row below it
                    if not rows:
                        break
                    i, it = rows.pop(), iters.pop()
                    ui = u[i]
                    path.pop()
                    continue
                nxt = col_row[h]
                if nxt < 0:  # a free column: augment
                    row_arc[i] = a
                    col_row[h] = i
                    if rows:
                        for i, a in zip(rows, path):
                            row_arc[i] = a
                            col_row[head[a]] = i
                    break
                if rows is None:
                    rows, iters, path = [], [], []
                rows.append(i)
                iters.append(it)
                path.append(a)
                i, it, ui = nxt, iter(out_adj[nxt]), u[nxt]
        swept, free = len(free), [i for i in free if row_arc[i] < 0]
        if not free:
            return row_arc, u, v
        if len(free) < swept:
            continue  # this sweep augmented, so a tight path may be left
        # Dial's Dijkstra: buckets[d] holds columns at tentative distance d;
        # a matched column passes its distance to its row at reduced cost 0.
        dist = [-1] * nv
        buckets: list[list[int]] = [[]]
        scanned = [(i, 0) for i in free]  # rows, in scan order
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
            scanned.append((i, d))  # i's matched column h was popped at distance d
        for i, di in scanned:
            if di < d:
                u[i] += d - di
                if row_arc[i] >= 0:  # free rows have no column
                    v[head[row_arc[i]]] -= d - di


def _extreme_cover(
    g: WhirlDigraph, gamma: int, start: Sequence[int] | None = None
) -> tuple[CycleCover, int, tuple[list, list]]:
    """The least-coil (gamma = -1) or most-coil (gamma = +1) cover, its coil and columns.

    The matching's arc cost is -gamma * w, and start, if given, is a cover
    of g that the matching starts from.  Its potentials are the
    certificate's columns, alpha = v and beta = u: an arc's LHS is then
    minus its reduced cost, and a zero duality gap is RHS = 1 at
    c = coil + gamma.  The certificate checker proves both on the columns,
    so the cover is proved extreme without building a certificate.
    """
    row_arc, u, v = _min_cost_matching(g.out_adj, g.ends[1], [-gamma * x for x in g.w], start)
    cover = CycleCover(arcs=tuple(row_arc))
    coil = coil_of_cover(g, cover)
    report = _check_columns(g, v, u, gamma, sum(v) + sum(u) + (coil + gamma) * gamma)
    if report.max_lhs > 0 or report.rhs != 1:
        raise AssertionError(
            f"potentials give no certificate at c={coil + gamma}: "
            f"valid={report.valid} rhs={report.rhs} max_lhs={report.max_lhs}"
        )
    return cover, coil, (v, u)


def coil_interval(g: WhirlDigraph) -> CoilInterval:
    """Extreme coil counts over all cycle covers, with witnessing covers.

    One matching solve for each end: the most-coil solve starts from the
    least-coil cover, which ``coil_of_cover`` has checked as a cover of g,
    so only the rows whose least-coil arc is not of least cost start free.
    The endpoints are recounted from the witness covers' arc weights, which
    doubles as the runtime check of the integrality premise.  The
    certificate checker itself, run on each solve's potentials as columns,
    proves them a Farkas certificate:
    ``below`` excludes c = min_coil - 1 and ``above`` c = max_coil + 1, both
    with RHS 1, each built on first access.  An arc end outside
    ``range(vertex_count)`` raises ``ValueError`` before either solve, when
    the first solve reads ``g.out_adj``.
    """
    lo_cover, lo, lo_cols = _extreme_cover(g, -1)
    hi_cover, hi, hi_cols = _extreme_cover(g, 1, start=lo_cover.arcs)
    if lo > hi:
        raise AssertionError(f"matching solves disagree: min {lo} > max {hi}")
    return CoilInterval(lo, hi, lo_cover, hi_cover, g.geometry, {-1: lo_cols, 1: hi_cols})


def coil_of_cover(g: WhirlDigraph, cover: CycleCover) -> int:
    """Total plumb-line crossing weight of a cover; validates it first.

    Every arc end of g must be a vertex index in ``range(vertex_count)``,
    and every arc id of type ``int`` (not a bool) and leave its own vertex,
    and the heads must be a permutation; anything else raises
    ``ValueError``.
    """
    tail, head = g.ends
    arcs, geom = cover.arcs, g.geometry
    if len(arcs) != geom.vertex_count:
        raise ValueError(f"cover has {len(arcs)} arcs for {geom.vertex_count} vertices")
    for k, a in enumerate(arcs):
        if not (0 <= _exact_int(a, "arc id") < len(g.w) and tail[a] == k):
            raise ValueError(f"cover arc {a} does not leave vertex {tuple(geom.cell(k))}")
    if len({head[a] for a in arcs}) != len(arcs):
        raise ValueError("cover heads are not a permutation")
    return sum(g.w[a] for a in arcs)


def enumerate_cycle_covers(g: WhirlDigraph) -> list[CycleCover]:
    """All cycle covers of a small digraph, by arc-choice DFS on an explicit stack.

    Rows (tails) take an out-arc in vertex order; the stack is rows 0..k,
    each with its current arc and the position of its next option.  A
    branch ends as soon as a later row has no unused head left, or an
    unused column (head) has no later row that reaches it; both counts
    are kept per vertex and updated in O(deg) per choice.  Neither check
    drops a cover, so the covers come out in the same order as from the
    plain DFS.

    Guarded to n <= 7, where the covers number 1, 1, 1, 16 and 289 for
    n = 3..7.
    """
    if g.n > 7:
        raise ValueError(f"enumeration is intended for n <= 7, got n={g.n}")
    nv = g.geometry.vertex_count
    tail, head = g.ends
    out_opts = [[head[a] for a in arcs] for arcs in g.out_adj]
    in_opts = [[tail[a] for a in arcs] for arcs in g.in_adj]
    heads_left = [len(heads) for heads in out_opts]  # unused heads of each row
    rows_left = [len(tails) for tails in in_opts]  # rows still to choose that reach each column
    used = bytearray(nv)
    chosen = [-1] * nv  # arc of each row on the stack; -1 before its first choice
    nxt = [0] * nv  # position in out_opts of the next option each row on the stack tries
    covers: list[CycleCover] = []
    k = 0
    while k >= 0:
        if k == nv:
            covers.append(CycleCover(arcs=tuple(chosen)))
            k -= 1
            continue
        opts = out_opts[k]
        if chosen[k] < 0:  # row k is entered: its columns have one row less to come
            for h in opts:
                rows_left[h] -= 1
        else:  # back at row k: take back its choice
            h = head[chosen[k]]
            for t in in_opts[h]:
                heads_left[t] += 1
            used[h] = 0
        for j in range(nxt[k], len(opts)):
            h = opts[j]
            if used[h]:
                continue
            used[h] = 1
            for t in in_opts[h]:
                heads_left[t] -= 1
            if not (any(t > k and not heads_left[t] for t in in_opts[h])
                    or any(not used[x] and not rows_left[x] for x in opts)):
                chosen[k], nxt[k] = g.out_adj[k][j], j + 1
                k += 1
                break
            for t in in_opts[h]:
                heads_left[t] += 1
            used[h] = 0
        else:  # row k has no option left
            for h in opts:
                rows_left[h] += 1
            chosen[k], nxt[k] = -1, 0
            k -= 1
    return covers


def _convex_witness(iv: CoilInterval, c: int) -> FractionalAssignment:
    """lam*argmin + (1-lam)*argmax, with lam set so the coil row equals c.

    Built by cover membership, with no arithmetic per arc: argmin's arcs
    take lam, then each argmax arc takes 1 if argmin holds it too and
    1 - lam if not.  A cover whose coefficient is 0 adds no keys.  Every
    value is a ``Fraction``.
    """
    lam = Fraction(1) if iv.max_coil == iv.min_coil else Fraction(
        iv.max_coil - c, iv.max_coil - iv.min_coil
    )
    one, rest = Fraction(1), 1 - lam
    x: dict[int, int | Fraction] = dict.fromkeys(iv.argmin.arcs, lam) if lam else {}
    if rest:
        for aid in iv.argmax.arcs:
            x[aid] = one if aid in x else rest
    return FractionalAssignment(x=x)


def validate_assignment(g: WhirlDigraph, fa: FractionalAssignment, c: int) -> None:
    """Check every LP row of an assignment exactly; raise on any residual.

    One pass over the entries checks each entry's type (an ``int`` arc id,
    an ``int`` or ``Fraction`` value), box bound and arc id, in that order,
    before the id is used, so the first bad entry is the one reported and
    no float enters a row sum.  The rows are then summed in plain ``int``
    over the common denominator d, the lcm of the values' denominators:
    each value counts as numerator * (d // denominator), each degree row
    must sum to d and the coil row to c * d.  c must be an ``int`` (not a
    bool), as for ``lp_feasible``.  An arc end of g outside
    ``range(vertex_count)`` raises ``ValueError`` before any entry is read.
    """
    tail, head = g.ends
    _exact_int(c, "coil count")
    w = g.w
    entries, dens = [], set()
    for aid, val in fa.x.items():
        _exact_int(aid, "arc id")
        if type(val) not in (int, Fraction):
            raise ValueError(f"arc {aid} value {val!r} is not an int or Fraction")
        num, den = val.numerator, val.denominator  # den > 0; an int has den 1
        if not (0 <= num <= den):
            raise ValueError(f"arc {aid} value {val} violates the box bounds")
        if not (0 <= aid < len(w)):
            raise ValueError(f"unknown arc id {aid}")
        entries.append((aid, num, den))
        dens.add(den)
    d = math.lcm(*dens)
    nv = g.geometry.vertex_count
    into, out, coil = [0] * nv, [0] * nv, 0
    for aid, num, den in entries:
        scaled = num * (d // den)
        into[head[aid]] += scaled
        out[tail[aid]] += scaled
        coil += w[aid] * scaled
    for k, (i, o) in enumerate(zip(into, out)):
        if i != d or o != d:
            raise ValueError(
                f"degree rows at {tuple(g.geometry.cell(k))} sum to "
                f"in={Fraction(i, d)}, out={Fraction(o, d)}"
            )
    if coil != c * d:
        raise ValueError(f"coil row sums to {Fraction(coil, d)}, expected {c}")


def lp_feasible(g: WhirlDigraph, c: int) -> LpDecision:
    """Decide the cycle-cover LP at coil count c, with an exact proof either way.

    Feasible iff min_coil <= c <= max_coil.  The witness is the convex
    combination lam*argmin + (1-lam)*argmax with lam chosen so the coil
    row holds exactly; it is validated before being returned.  An
    infeasible c gets the potentials of the solve on its side as one
    certificate at c, whose RHS is the distance from c to the interval.
    c must be an ``int`` (not a bool); anything else is rejected before
    any solve.
    """
    _exact_int(c, "coil count")
    iv = coil_interval(g)
    feasible = iv.min_coil <= c <= iv.max_coil
    witness = certificate = None
    if feasible:
        witness = _convex_witness(iv, c)
        validate_assignment(g, witness, c)
    else:
        certificate = iv._certificate(c)
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
    return _dump_doc(doc)
