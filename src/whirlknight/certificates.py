"""Closed-form Farkas infeasibility certificates and their exact verification.

A certificate is a triple (alpha, beta, gamma): alpha multiplies each
vertex's in-degree row of the cycle-cover LP, beta the out-degree row,
gamma the single coil-count row.  It witnesses infeasibility of the LP at
coil count c when

    LHS_e = alpha[head] + beta[tail] + gamma * w_e <= 0   for every arc e,
    RHS   = sum(alpha) + sum(beta) + c * gamma        >= 1.

Everything here is integer-valued and verified arc-by-arc with exact
arithmetic; there are no tolerances.

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

from dataclasses import dataclass

from . import FAMILIES, _EXPORTS
from .digraph import Arc, WhirlDigraph
from .geometry import BoardGeometry, Cell, _bounded_board, _cell, _cell_text, _dump_doc, _exact_int, _list, _load_doc, _read_doc

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

    An arc end outside ``range(vertex_count)`` raises ``ValueError``.
    """
    if cert.n != g.n:
        raise ValueError(f"certificate is for n={cert.n}, digraph has n={g.n}")
    nv = g.geometry.vertex_count
    alpha, beta = [0] * nv, [0] * nv  # by vertex index
    index = g.geometry.index
    for support, col in ((cert.alpha, alpha), (cert.beta, beta)):
        for v, x in support.items():
            col[index(v)] = x
    return _check_columns(g, alpha, beta, cert.gamma, cert.c)


def _check_columns(
    g: WhirlDigraph, alpha: list[int], beta: list[int], gamma: int, c: int
) -> VerificationReport:
    """The Farkas check of alpha and beta, int columns by vertex index.

    The one place an arc's LHS is evaluated.  Scans all arcs (never
    samples) and collects every violating arc, not just the first.  Valid
    means max LHS <= 0 and RHS >= 1.  One comprehension reads alpha and
    beta on every arc, from the two end columns; the coil row is then
    added only on ``g.crossing``, the arcs with w != 0 (about 3n of the
    4n² arcs), whose ids a built digraph carries from its build.  Violating
    ids are listed first, and an ``Arc`` record is built only for each of
    them.
    """
    tail, head = g.ends
    lhs = [alpha[h] + beta[t] for t, h in zip(tail, head)]
    if gamma:
        w = g.w
        for a in g.crossing:
            lhs[a] += gamma * w[a]
    max_lhs = max(lhs, default=0)
    violators = [a for a, x in enumerate(lhs) if x > 0] if max_lhs > 0 else []
    violations = tuple((g.arc(a), lhs[a]) for a in violators)
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
