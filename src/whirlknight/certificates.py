"""Closed-form Farkas infeasibility certificates and their exact verification.

A certificate is a triple (alpha, beta, gamma): alpha multiplies each
vertex's in-degree row of the cycle-cover LP, beta the out-degree row,
gamma the single coil-count row.  It witnesses infeasibility of the LP at
coil count c when

    LHS_e = alpha[head] + beta[tail] + gamma * w_e <= 0   for every arc e,
    RHS   = sum(alpha) + sum(beta) + c * gamma        >= 1.

Everything here is integer-valued and verified arc-by-arc with exact
arithmetic; there are no tolerances.

Candidate lemma: an arc whose head is out of supp(alpha), whose tail is
out of supp(beta) and whose gamma * w is 0 has LHS exactly 0.  So only
the in-arcs of supp(alpha), the out-arcs of supp(beta) and, when
gamma != 0, the crossing arcs (w != 0) need an evaluation, at most
8 * (|alpha| + |beta|) + |crossing| of the E arcs; the rest add 0 to the
max LHS, if there is a rest, and no violation.  On a digraph that
``build_digraph`` made, ``verify_certificate`` reads only these
candidates when that bound is below E / 16, and every arc otherwise.
E / 16 is near where the two paths cost the same: on random supports,
half alpha and half beta, the candidates took as long as the full scan
at a bound of about 0.11 E at n = 30, 0.075 E at n = 100 and 0.055 E at
n = 300 (2-vCPU x86 container, CPython 3.11).  t1's support of (n+2)/2
cells falls below it from n = 38 on, where the check of t1 at n = 510
takes about 9 ms against 88 ms for the full scan; t2's n²/8 triangle cells and
the LP's dense potentials stay with the full scan.

The package's ``FAMILIES`` lists the closed-form families, each with the
residue class of n mod 8 it takes; the builder of family f is ``build_f``.
Each builder writes the paper's alpha/beta entries straight from its
formula (h = n/2), and both open with the same block rows: alpha = 1 at
(r, h-1) and beta = 1 at (r, h) for each row r of a list.

* ``build_t1`` (n = 8m+6): block rows {4k, 4k+1} for k = 0..m, the in-strip
  and out-strip flanking the pivot column; gamma = -1.
* ``build_t2`` (n = 8m+4): block rows {4k} for k = 0..m, then, on the
  north-east triangle, alpha = -1 on even i+j and beta = 1 on odd i+j;
  gamma = -1.

Both achieve RHS exactly 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import FAMILIES, _EXPORTS
from .digraph import Arc, WhirlDigraph
from .geometry import KNIGHT_STEPS, BoardGeometry, Cell, _bounded_board, _cell, _cell_text, _dump_doc, _exact_int, _list, _load_doc, _read_doc

__all__ = list(_EXPORTS["certificates"])


@dataclass(frozen=True)
class FarkasCertificate:
    """Integer LP multipliers; cells absent from alpha/beta carry zero.

    alpha and beta are kept separate even where their supports overlap
    (the T2 family puts alpha = -1 and beta = +1 on the same block cells):
    they multiply different LP rows and never merge.  Construction rejects
    a support cell that is not a vertex, and any c, gamma or entry whose
    type is not exactly ``int``, in O(support), before any digraph.
    """

    n: int
    c: int
    alpha: dict[Cell, int]
    beta: dict[Cell, int]
    gamma: int

    def __post_init__(self) -> None:
        index = BoardGeometry(self.n).index
        _exact_int(self.c, "c")
        _exact_int(self.gamma, "gamma")
        for name, support in (("alpha", self.alpha), ("beta", self.beta)):
            for v, x in support.items():
                try:
                    index(v)
                except ValueError:
                    raise ValueError(f"{name} support cell {_cell_text(v)} is not a vertex") from None
                _exact_int(x, "{0} entry at ({1[0]}, {1[1]})", name, v)  # v is a pair of ints here

    def sum_alpha(self) -> int:
        return sum(self.alpha.values())

    def sum_beta(self) -> int:
        return sum(self.beta.values())


@dataclass(frozen=True)
class VerificationReport:
    rhs: int
    max_lhs: int
    violations: tuple[tuple[Arc, int], ...]  # arcs with LHS > 0, in arc-id order
    valid: bool


def _require_residue(n: int, family: str) -> int:
    """Validate n against the family's class n = r (mod 8), n >= r; return m = (n - r) / 8."""
    r = FAMILIES[family]
    if _exact_int(n, "board side") < r or n % 8 != r:
        raise ValueError(f"expected n = {r} (mod 8) with n >= {r}, got {n!r}")
    return (n - r) // 8


def _block_rows(h: int, rows) -> tuple[dict[Cell, int], dict[Cell, int]]:
    """(alpha, beta) with alpha = 1 at (r, h-1) and beta = 1 at (r, h) for each row r."""
    return {Cell(r, h - 1): 1 for r in rows}, {Cell(r, h): 1 for r in rows}


def build_t1(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 6 (mod 8).

    With alpha = 1 on the in-strip N_in, beta = 1 on the out-strip N_out
    and gamma = -1, an arc's LHS is [head in N_in] + [tail in N_out] - w
    with w in {0, 1}, so LHS <= 0 on every arc is exactly the paper's facts: (a) every arc into N_in crosses the
    plumb-line, (b) every arc out of N_out crosses it, and (c) no arc runs
    from N_out to N_in.  ``verify_certificate`` is therefore their check.
    """
    m = _require_residue(n, "t1")
    h = n // 2
    alpha, beta = _block_rows(h, [4 * k + d for k in range(m + 1) for d in (0, 1)])
    return FarkasCertificate(n=n, c=h, alpha=alpha, beta=beta, gamma=-1)


def _triangle(n: int):
    """The north-east triangle row-major: cells (i, j) with i < h <= j and i + j <= n-1."""
    _bounded_board(n)  # about n²/8 cells: an n above _MAX_SIDE raises before the walk
    h = n // 2
    return (Cell(i, j) for i in range(h) for j in range(h, n - i))


def build_t2(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 4 (mod 8).

    The block cells (r, h) also sit in the even triangle, so they carry
    alpha = -1 and beta = +1 simultaneously.
    """
    m = _require_residue(n, "t2")
    h = n // 2
    triangle = _triangle(n)  # the size limit, before any cell is made
    alpha, beta = _block_rows(h, range(0, 4 * m + 1, 4))
    for v in triangle:
        if (v.i + v.j) % 2:
            beta[v] = 1
        else:
            alpha[v] = -1
    return FarkasCertificate(n=n, c=h, alpha=alpha, beta=beta, gamma=-1)


def build_n3_certificate() -> FarkasCertificate:
    """The 3x3 certificate: alpha = 1 on the west column, gamma = -1, c = 2."""
    return FarkasCertificate(
        n=3,
        c=2,
        alpha={Cell(0, 0): 1, Cell(1, 0): 1, Cell(2, 0): 1},
        beta={},
        gamma=-1,
    )


def verify_certificate(g: WhirlDigraph, cert: FarkasCertificate) -> VerificationReport:
    """Check a certificate against every arc of g, exactly, as int columns by vertex index.

    On a built digraph (``g.knight_runs``) whose candidate bound is below
    E / 16 (the module docstring's rule), the LHS is evaluated on the
    candidate arcs alone, else on all arcs; the report is the same either
    way.  An arc end outside ``range(vertex_count)`` raises ``ValueError``.
    """
    if cert.n != g.n:
        raise ValueError(f"certificate is for n={cert.n}, digraph has n={g.n}")
    nv = g.geometry.vertex_count
    alpha, beta = [0] * nv, [0] * nv  # by vertex index
    index = g.geometry.index
    for support, col in ((cert.alpha, alpha), (cert.beta, beta)):
        for v, x in support.items():
            col[index(v)] = x
    sparse = g.knight_runs and 16 * (8 * (len(cert.alpha) + len(cert.beta)) + len(g.crossing)) < len(g.w)
    return _check_columns(g, alpha, beta, cert.gamma, cert.c, _candidates(g, cert) if sparse else None)


def _candidates(g: WhirlDigraph, cert: FarkasCertificate) -> list[int]:
    """The ids of the arcs of a built digraph g whose LHS under cert can be nonzero, ascending.

    An arc's LHS is alpha[head] + beta[tail] + gamma * w, so only three
    kinds of arc can have LHS != 0: the out-arcs of supp(beta), the in-arcs
    of supp(alpha) and, when gamma != 0, ``g.crossing``.  They are found
    through the build's layout (``g.knight_runs``): a tail's out-arcs are
    the run of ids that ``bisect`` finds in the ascending tail column, and
    a head's in-arcs come from its at most 8 knight-step tails, each
    looked up by its head entry in its tail's run, so no CCW or weight
    test is made again.  Each support cell adds at most 8 ids, so there are
    at most 8 * (|alpha| + |beta|) + |crossing| of them.
    """
    n, (tail, head), end = g.n, g.ends, len(g.w)
    index, centre = g.geometry.index, g.geometry.centre_cell()
    ids = set(g.crossing) if cert.gamma else set()
    for v in cert.beta:
        t = index(v)
        ids.update(range(bisect_left(tail, t), bisect_left(tail, t + 1)))
    for v in cert.alpha:
        h = index(v)
        for di, dj in KNIGHT_STEPS:
            u = (v[0] - di, v[1] - dj)
            if 0 <= u[0] < n and 0 <= u[1] < n and u != centre:
                t = index(u)
                a = bisect_left(tail, t)
                while a < end and tail[a] == t:  # t's run, up to its arc into h
                    if head[a] == h:
                        ids.add(a)
                        break
                    a += 1
    return sorted(ids)


def _check_columns(
    g: WhirlDigraph, alpha: list[int], beta: list[int], gamma: int, c: int, ids: list[int] | None = None
) -> VerificationReport:
    """The Farkas check of alpha and beta, int columns by vertex index, on all arcs or on ``ids``.

    The one place an arc's LHS is evaluated.  It never samples, and it
    collects every violating arc, not just the first.  Valid means max
    LHS <= 0 and RHS >= 1.  With ids None, one comprehension reads alpha
    and beta on every arc, from the two end columns; the coil row is then
    added only on ``g.crossing``, the arcs with w != 0 (about 3n of the
    4n² arcs), whose ids a built digraph carries from its build.  With
    ids, the ascending ids of ``_candidates``, the comprehension reads
    those arcs alone, coil row included.  By the module's candidate lemma
    every other arc has LHS exactly 0, so max LHS takes 0 in exactly when
    some arc lies outside ids, and the violations, all among ids, stay in
    arc-id order.  ``verify_certificate`` passes ids only when
    8 * (|alpha| + |beta|) + |crossing| < E / 16, the rule measured in the
    module docstring.  An ``Arc`` record is built only for each violating
    arc, from the cells of its ends.
    """
    tail, head = g.ends
    w = g.w
    if ids is None:
        lhs = [alpha[h] + beta[t] for t, h in zip(tail, head)]
        if gamma:
            for a in g.crossing:
                lhs[a] += gamma * w[a]
        ids = range(len(lhs))
    else:
        lhs = [alpha[head[a]] + beta[tail[a]] + gamma * w[a] for a in ids]
    max_lhs = max(lhs, default=0)
    if len(lhs) < len(w):  # an arc outside ids, whose LHS is 0
        max_lhs = max(max_lhs, 0)
    cell = g.geometry.cell
    violations = tuple(
        (Arc(cell(tail[a]), cell(head[a]), w[a], a), x) for a, x in zip(ids, lhs) if x > 0
    ) if max_lhs > 0 else ()
    rhs = sum(alpha) + sum(beta) + c * gamma
    return VerificationReport(rhs, max_lhs, violations, valid=not violations and rhs >= 1)


def parity_census(n: int) -> tuple[int, int]:
    """Count north-east-triangle cells by (i+j) parity for n = 4 (mod 8).

    Returns (even_count, odd_count), by direct enumeration of the
    triangle.  The odd count exceeds the even count by 2m+1.
    """
    _require_residue(n, "t2")
    parities = [(v.i + v.j) % 2 for v in _triangle(n)]
    return (parities.count(0), parities.count(1))


def _sorted_entries(support: dict[Cell, int]) -> list[list[int]]:
    return [[c[0], c[1], x] for c, x in sorted(support.items()) if x]


def certificate_to_json(cert: FarkasCertificate) -> str:
    """Canonical JSON: entries row-major, zero cells omitted."""
    doc = {
        "n": cert.n,
        "c": cert.c,
        "gamma": cert.gamma,
        "alpha": _sorted_entries(cert.alpha),
        "beta": _sorted_entries(cert.beta),
    }
    return _dump_doc(doc)


def _entries_from_json(name: str, rows) -> dict[Cell, int]:
    """Support entries [i, j, x], a list of them, as a cell map; zeros dropped, repeats rejected."""
    support: dict[Cell, int] = {}
    for entry in _list(rows, name):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"{name} entry {entry!r} is not [i, j, x]")
        i, j, x = entry
        cell = _cell((i, j))
        if cell in support:
            raise ValueError(f"{name} lists cell {tuple(cell)} twice")
        support[cell] = _exact_int(x, "{} entry", name)
    return {c: x for c, x in support.items() if x}


def certificate_from_json(text: str) -> FarkasCertificate:
    return _certificate_from_doc(_load_doc(text))


def _certificate_from_doc(doc: object) -> FarkasCertificate:
    """``certificate_from_json`` on the document ``_load_doc`` returned."""
    fields = _read_doc(doc, "certificate", lambda doc: dict(
        n=_exact_int(doc["n"], "n"),
        c=_exact_int(doc["c"], "c"),
        alpha=_entries_from_json("alpha", doc["alpha"]),
        beta=_entries_from_json("beta", doc["beta"]),
        gamma=_exact_int(doc["gamma"], "gamma"),
    ))
    # Built outside the envelope: a bad n or support cell keeps the certificate's own message.
    return FarkasCertificate(**fields)
