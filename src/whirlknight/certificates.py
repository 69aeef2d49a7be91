"""Closed-form Farkas infeasibility certificates and their exact verification.

A certificate is a triple (alpha, beta, gamma): alpha multiplies each
vertex's in-degree row of the cycle-cover LP, beta the out-degree row,
gamma the single coil-count row.  It witnesses infeasibility of the LP at
coil count c when

    LHS_e = alpha[head] + beta[tail] + gamma * w_e <= 0   for every arc e,
    RHS   = sum(alpha) + sum(beta) + c * gamma        >= 1.

Everything here is integer-valued and verified arc-by-arc with exact
arithmetic; there are no tolerances.

Two closed-form families are provided, one per residue class of n mod 8:

* ``build_t1`` (n = 8m+6): unit weights on two (m+1)-block column strips
  flanking the pivot column, gamma = -1.
* ``build_t2`` (n = 8m+4): alternating-sign weights on the north-east
  triangle by coordinate parity, plus unit block corrections on rows
  {0, 4, ..., 4m}, gamma = -1.

Both achieve RHS exactly 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .digraph import Arc, WhirlDigraph
from .geometry import Cell, _json_int

__all__ = [
    "FarkasCertificate",
    "VerificationReport",
    "T1Supports",
    "T2Supports",
    "FactsReport",
    "verify_certificate",
    "t1_supports",
    "t2_supports",
    "build_t1",
    "build_t2",
    "build_n3_certificate",
    "parity_census",
    "check_facts_abc",
    "certificate_to_json",
    "certificate_from_json",
]


@dataclass(frozen=True)
class FarkasCertificate:
    """Integer LP multipliers; cells absent from alpha/beta carry zero.

    alpha and beta are kept separate even where their supports overlap
    (the T2 family puts alpha = -1 and beta = +1 on the same block cells):
    they multiply different LP rows and never merge.
    """

    n: int
    c: int
    alpha: dict[Cell, int]
    beta: dict[Cell, int]
    gamma: int

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


@dataclass(frozen=True)
class T1Supports:
    """Support cells of the T1 family (n = 8m+6): the in- and out-strips."""

    n_in: frozenset[Cell]
    n_out: frozenset[Cell]


@dataclass(frozen=True)
class T2Supports:
    """Support cells of the T2 family (n = 8m+4).

    The north-east triangle split by (i+j) parity, the block rows R and
    the block cells (r, h-1), (r, h) for r in R.
    """

    t_even: frozenset[Cell]
    t_odd: frozenset[Cell]
    r_rows: frozenset[int]
    blocks: frozenset[Cell]


def _require_residue(n: int, residue: int, minimum: int) -> int:
    """Validate n = residue (mod 8) and return m = (n - residue) / 8."""
    if not isinstance(n, int) or isinstance(n, bool) or n < minimum or n % 8 != residue:
        raise ValueError(
            f"expected n = {residue} (mod 8) with n >= {minimum}, got {n!r}"
        )
    return (n - residue) // 8


def t1_supports(n: int) -> T1Supports:
    """Block supports for n = 8m+6: two column strips flanking the pivot.

    Rows come in m+1 two-row blocks {4k, 4k+1}; columns are h-1 (in-side)
    and h (out-side).
    """
    m = _require_residue(n, 6, 6)
    h = n // 2
    rows = [4 * k + d for k in range(m + 1) for d in (0, 1)]
    return T1Supports(
        n_in=frozenset(Cell(r, h - 1) for r in rows),
        n_out=frozenset(Cell(r, h) for r in rows),
    )


def t2_supports(n: int) -> T2Supports:
    """Triangle and block supports for n = 8m+4.

    The north-east triangle T holds the cells (i, j) with 0 <= i <= h-1,
    h <= j <= n-1 and i + j <= n-1, split by (i+j) parity; the block rows
    are R = {0, 4, ..., 4m}.
    """
    m = _require_residue(n, 4, 4)
    h = n // 2
    tri = [Cell(i, j) for i in range(h) for j in range(h, n) if i + j <= n - 1]
    r_rows = [4 * k for k in range(m + 1)]
    return T2Supports(
        t_even=frozenset(c for c in tri if (c.i + c.j) % 2 == 0),
        t_odd=frozenset(c for c in tri if (c.i + c.j) % 2 == 1),
        r_rows=frozenset(r_rows),
        blocks=frozenset(Cell(r, j) for r in r_rows for j in (h - 1, h)),
    )


def build_t1(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 6 (mod 8)."""
    sup = t1_supports(n)
    return FarkasCertificate(
        n=n,
        c=n // 2,
        alpha={v: 1 for v in sorted(sup.n_in)},
        beta={v: 1 for v in sorted(sup.n_out)},
        gamma=-1,
    )


def build_t2(n: int) -> FarkasCertificate:
    """Certificate for coil count c = n/2 on boards with n = 4 (mod 8).

    alpha is -1 on even-parity triangle cells and +1 on the block cells
    (r, h-1); beta is +1 on odd-parity triangle cells and +1 on the block
    cells (r, h).  The block cells (r, h) also sit in the even triangle,
    so they carry alpha = -1 and beta = +1 simultaneously.
    """
    sup = t2_supports(n)
    h = n // 2
    alpha: dict[Cell, int] = {}
    beta: dict[Cell, int] = {}
    for v in sup.t_even:
        alpha[v] = alpha.get(v, 0) - 1
    for v in sup.t_odd:
        beta[v] = beta.get(v, 0) + 1
    for r in sup.r_rows:
        a = Cell(r, h - 1)
        b = Cell(r, h)
        alpha[a] = alpha.get(a, 0) + 1
        beta[b] = beta.get(b, 0) + 1
    alpha = {v: x for v, x in sorted(alpha.items()) if x}
    beta = {v: x for v, x in sorted(beta.items()) if x}
    return FarkasCertificate(n=n, c=n // 2, alpha=alpha, beta=beta, gamma=-1)


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
    alpha, beta = [0] * len(g.vertices), [0] * len(g.vertices)  # by vertex index
    for name, support, col in (("alpha", cert.alpha, alpha), ("beta", cert.beta, beta)):
        for v, x in support.items():
            k = g.vertex_index.get(v)
            if k is None:
                raise ValueError(f"{name} support cell {tuple(v)} is not a vertex")
            col[k] = x
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
    sup = t2_supports(n)
    return (len(sup.t_even), len(sup.t_odd))


@dataclass(frozen=True)
class FactsReport:
    """Result of the exhaustive arc scan behind the T1 block certificate."""

    fact_a: bool  # every arc into n_in crosses the plumb-line
    fact_b: bool  # every arc out of n_out crosses the plumb-line
    fact_c: bool  # no arc runs from n_out to n_in
    counterexamples: tuple[tuple[str, Arc], ...]

    @property
    def all_hold(self) -> bool:
        return self.fact_a and self.fact_b and self.fact_c


def check_facts_abc(g: WhirlDigraph) -> FactsReport:
    """Exhaustively verify the three structural facts behind the T1 family.

    (a) every arc whose head lies in n_in crosses the north plumb-line;
    (b) every arc whose tail lies in n_out crosses it;
    (c) no arc joins n_out to n_in.
    Requires n = 6 (mod 8).
    """
    sup = t1_supports(g.n)
    bad: list[tuple[str, Arc]] = []
    vs = g.vertices
    for a, (t, h, w) in enumerate(zip(g.tail, g.head, g.w)):
        into, out_of = vs[h] in sup.n_in, vs[t] in sup.n_out
        if into and w != 1:
            bad.append(("a", g.arc(a)))
        if out_of and w != 1:
            bad.append(("b", g.arc(a)))
        if out_of and into:
            bad.append(("c", g.arc(a)))
    facts = {f: all(name != f for name, _ in bad) for f in ("a", "b", "c")}
    return FactsReport(
        fact_a=facts["a"],
        fact_b=facts["b"],
        fact_c=facts["c"],
        counterexamples=tuple(bad),
    )


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
        return FarkasCertificate(
            n=_json_int(doc["n"]),
            c=_json_int(doc["c"]),
            alpha=_entries_from_json("alpha", doc["alpha"]),
            beta=_entries_from_json("beta", doc["beta"]),
            gamma=_json_int(doc["gamma"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
