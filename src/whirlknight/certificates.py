"""Closed-form Farkas infeasibility certificates and their exact verification.

A certificate is a triple (alpha, beta, gamma): alpha multiplies each
vertex's in-degree row of the cycle-cover LP, beta the out-degree row,
gamma the single coil-count row.  It witnesses infeasibility of the LP at
coil count c when

    LHS_e = alpha[head] + beta[tail] + gamma * w_e <= 0   for every arc e,
    RHS   = sum(alpha) + sum(beta) + c * gamma        >= 1.

Everything here is integer-valued and verified arc-by-arc with exact
arithmetic; there are no tolerances.

Two closed-form families are provided, one per residue class of n mod 8.
Each builder writes the paper's alpha/beta entries straight from its
formula (h = n/2):

* ``build_t1`` (n = 8m+6): alpha = 1 on the in-strip (r, h-1) and beta = 1
  on the out-strip (r, h), for the rows r of the m+1 two-row blocks
  {4k, 4k+1} flanking the pivot column; gamma = -1.
* ``build_t2`` (n = 8m+4): on the north-east triangle, alpha = -1 on even
  i+j and beta = 1 on odd i+j; on each block row r in {0, 4, ..., 4m},
  alpha = 1 at (r, h-1) and beta = 1 at (r, h); gamma = -1.

Both achieve RHS exactly 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .digraph import Arc, WhirlDigraph
from .geometry import BoardGeometry, Cell, _json_int

__all__ = [
    "FarkasCertificate",
    "VerificationReport",
    "verify_certificate",
    "build_t1",
    "build_t2",
    "build_n3_certificate",
    "parity_census",
    "certificate_to_json",
    "certificate_from_json",
]


@dataclass(frozen=True)
class FarkasCertificate:
    """Integer LP multipliers; cells absent from alpha/beta carry zero.

    alpha and beta are kept separate even where their supports overlap
    (the T2 family puts alpha = -1 and beta = +1 on the same block cells):
    they multiply different LP rows and never merge.  Construction rejects
    a support cell that is not a vertex, in O(support), before any digraph.
    """

    n: int
    c: int
    alpha: dict[Cell, int]
    beta: dict[Cell, int]
    gamma: int

    def __post_init__(self) -> None:
        index = BoardGeometry(self.n).index
        for name, support in (("alpha", self.alpha), ("beta", self.beta)):
            for v in support:
                try:
                    index(v)
                except ValueError:
                    raise ValueError(f"{name} support cell {tuple(v)} is not a vertex") from None

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


def _require_residue(n: int, residue: int, minimum: int) -> int:
    """Validate n = residue (mod 8) and return m = (n - residue) / 8."""
    if not isinstance(n, int) or isinstance(n, bool) or n < minimum or n % 8 != residue:
        raise ValueError(
            f"expected n = {residue} (mod 8) with n >= {minimum}, got {n!r}"
        )
    return (n - residue) // 8


def build_t1(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 6 (mod 8).

    With alpha = 1 on the in-strip N_in, beta = 1 on the out-strip N_out
    and gamma = -1, an arc's LHS is [head in N_in] + [tail in N_out] - w
    with w in {0, 1}, so LHS <= 0 on every arc is exactly the paper's facts: (a) every arc into N_in crosses the
    plumb-line, (b) every arc out of N_out crosses it, and (c) no arc runs
    from N_out to N_in.  ``verify_certificate`` is therefore their check.
    """
    m = _require_residue(n, 6, 6)
    h = n // 2
    rows = [4 * k + d for k in range(m + 1) for d in (0, 1)]
    return FarkasCertificate(
        n=n,
        c=h,
        alpha={Cell(r, h - 1): 1 for r in rows},
        beta={Cell(r, h): 1 for r in rows},
        gamma=-1,
    )


def _triangle(n: int):
    """The north-east triangle row-major: cells (i, j) with i < h <= j and i + j <= n-1."""
    h = n // 2
    return (Cell(i, j) for i in range(h) for j in range(h, n - i))


def build_t2(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 4 (mod 8).

    The block cells (r, h) also sit in the even triangle, so they carry
    alpha = -1 and beta = +1 simultaneously.  Entries are written row-major.
    """
    _require_residue(n, 4, 4)
    h = n // 2
    alpha: dict[Cell, int] = {}
    beta: dict[Cell, int] = {}
    for v in _triangle(n):
        if v.j == h and v.i % 4 == 0:  # block row r: (r, h-1), (r, h) open the row
            alpha[Cell(v.i, h - 1)] = 1
            beta[v] = 1
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
    """Check a certificate against every arc of g, exactly.

    Scans all arcs (never samples) and collects every violating arc, not
    just the first.  Valid means max LHS <= 0 and RHS >= 1.
    """
    if cert.n != g.n:
        raise ValueError(f"certificate is for n={cert.n}, digraph has n={g.n}")
    nv = g.geometry.vertex_count
    alpha, beta = [0] * nv, [0] * nv  # by vertex index
    index = g.geometry.index
    for support, col in ((cert.alpha, alpha), (cert.beta, beta)):
        for v, x in support.items():
            col[index(v)] = x
    gamma = cert.gamma
    lhs = [alpha[h] + beta[t] + gamma * w for t, h, w in zip(g.tail, g.head, g.w)]
    max_lhs = max(lhs, default=0)
    violations = tuple((g.arc(a), x) for a, x in enumerate(lhs) if x > 0) if max_lhs > 0 else ()
    rhs = cert.sum_alpha() + cert.sum_beta() + cert.c * cert.gamma
    return VerificationReport(
        rhs=rhs,
        max_lhs=max_lhs,
        violations=violations,
        valid=not violations and rhs >= 1,
    )


def parity_census(n: int) -> tuple[int, int]:
    """Count north-east-triangle cells by (i+j) parity for n = 4 (mod 8).

    Returns (even_count, odd_count), by direct enumeration of the
    triangle.  The odd count exceeds the even count by 2m+1.
    """
    _require_residue(n, 4, 4)
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
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _entries_from_json(name: str, rows) -> dict[Cell, int]:
    """Support entries [i, j, x] as a cell map; zeros dropped, repeats rejected."""
    support: dict[Cell, int] = {}
    for i, j, x in rows:
        cell = Cell(_json_int(i), _json_int(j))
        if cell in support:
            raise ValueError(f"{name} lists cell {tuple(cell)} twice")
        support[cell] = _json_int(x)
    return {c: x for c, x in support.items() if x}


def certificate_from_json(text: str) -> FarkasCertificate:
    doc = json.loads(text)
    try:
        n, c = _json_int(doc["n"]), _json_int(doc["c"])
        alpha = _entries_from_json("alpha", doc["alpha"])
        beta = _entries_from_json("beta", doc["beta"])
        gamma = _json_int(doc["gamma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    # Outside the try: a bad n or support cell keeps the certificate's own message.
    return FarkasCertificate(n=n, c=c, alpha=alpha, beta=beta, gamma=gamma)
