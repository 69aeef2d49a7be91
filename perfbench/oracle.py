"""Exact checks the benchmark applies to the program's answers.

Written from the paper's definitions and sharing no code with the
package: cells are plain (i, j) tuples, the pivot sits at ((n-1)/2,
(n-1)/2), orientation uses the doubled cross product and plumb-line
crossings use Fraction interpolation.  Every check returns None when the
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

KNIGHT_DELTAS = ((-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1))


def board_cells(n: int) -> list[tuple[int, int]]:
    """All cells, minus the centre cell on odd boards."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    if n % 2:
        cells.remove(((n - 1) // 2, (n - 1) // 2))
    return cells


def is_ccw(n: int, u, v) -> bool:
    """Doubled cross product about the pivot: positive means counter-clockwise."""
    ux, uy = 2 * u[0] - (n - 1), 2 * u[1] - (n - 1)
    vx, vy = 2 * v[0] - (n - 1), 2 * v[1] - (n - 1)
    return ux * vy - vx * uy > 0


def is_knight_move(u, v) -> bool:
    return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 == 5


def crosses_north(n: int, u, v) -> int:
    """1 when the step u -> v crosses the open north ray from the pivot.

    On odd boards a tail sitting on the north ray counts as a crossing.
    """
    p = Fraction(n - 1, 2)
    if n % 2 and u[1] == p:
        return int(u[0] < p)
    if (u[1] - p) * (v[1] - p) >= 0:
        return 0
    t = (p - u[1]) / (v[1] - u[1])
    return int(u[0] + t * (v[0] - u[0]) < p)


def arcs(n: int) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """Every counter-clockwise knight step as (tail, head, crossing weight)."""
    members = set(board_cells(n))
    out = []
    for u in board_cells(n):
        for di, dj in KNIGHT_DELTAS:
            v = (u[0] + di, u[1] + dj)
            if v in members and is_ccw(n, u, v):
                out.append((u, v, crosses_north(n, u, v)))
    return out


def digraph_counts(n: int) -> dict:
    a = arcs(n)
    return {"vertices": len(board_cells(n)), "arcs": len(a), "crossing_arcs": sum(w for _, _, w in a)}


def _step_problem(n: int, u, v) -> str | None:
    members = set(board_cells(n))
    if u not in members or v not in members:
        return f"step {u}->{v} leaves the board"
    if not is_knight_move(u, v):
        return f"step {u}->{v} is not a knight move"
    if not is_ccw(n, u, v):
        return f"step {u}->{v} is not counter-clockwise"
    return None


def check_witness(n: int, steps: dict[int, tuple], x: dict[int, Fraction], c: int) -> str | None:
    """Re-sum every LP row of a fractional assignment exactly.

    ``steps`` maps each arc id in ``x`` to its (tail, head) cells.  Each
    step must be a counter-clockwise knight move, each value must lie in
    [0, 1], every in- and out-degree row must sum to exactly 1 and the
    coil row must sum to exactly c.
    """
    into = {v: Fraction(0) for v in board_cells(n)}
    out = dict(into)
    coil = Fraction(0)
    for aid, val in x.items():
        u, v = steps[aid]
        problem = _step_problem(n, u, v)
        if problem:
            return problem
        if not 0 <= val <= 1:
            return f"arc {aid} value {val} is outside [0, 1]"
        out[u] += val
        into[v] += val
        coil += crosses_north(n, u, v) * val
    for cell in into:
        if into[cell] != 1 or out[cell] != 1:
            return f"degree rows at {cell} sum to in={into[cell]}, out={out[cell]}"
    if coil != c:
        return f"coil row sums to {coil}, expected {c}"
    return None


def check_tour(n: int, cells) -> tuple[str | None, int]:
    """Validate a cyclic cell sequence as a whirling tour; return (problem, coil)."""
    cells = [tuple(c) for c in cells]
    if sorted(cells) != sorted(board_cells(n)):
        return "not Hamiltonian: cells are not exactly the board's vertices", 0
    coil = 0
    for k, u in enumerate(cells):
        v = cells[(k + 1) % len(cells)]
        problem = _step_problem(n, u, v)
        if problem:
            return problem, 0
        coil += crosses_north(n, u, v)
    return None, coil


def closed_form_certificate(n: int) -> dict:
    """The paper's certificate for c = n/2, as alpha/beta cell maps and gamma.

    n = 8m+6: unit alpha on column h-1 and unit beta on column h, rows
    4k and 4k+1 for k <= m.  n = 8m+4: on the north-east triangle
    (i < h <= j, i+j <= n-1), alpha = -1 on even i+j and beta = +1 on odd
    i+j, plus alpha += 1 at (r, h-1) and beta += 1 at (r, h) for r = 0, 4,
    ..., 4m.  gamma = -1 in both.
    """
    h, m = n // 2, n // 8
    alpha: dict[tuple[int, int], int] = {}
    beta: dict[tuple[int, int], int] = {}
    if n % 8 == 6:
        for r in (4 * k + d for k in range(m + 1) for d in (0, 1)):
            alpha[(r, h - 1)] = 1
            beta[(r, h)] = 1
    elif n % 8 == 4:
        for i in range(h):
            for j in range(h, n - i):
                if (i + j) % 2 == 0:
                    alpha[(i, j)] = -1
                else:
                    beta[(i, j)] = 1
        for r in range(0, 4 * m + 1, 4):
            alpha[(r, h - 1)] = alpha.get((r, h - 1), 0) + 1
            beta[(r, h)] = beta.get((r, h), 0) + 1
    else:
        raise ValueError(f"no closed-form certificate for n={n}")
    return {
        "n": n,
        "c": h,
        "gamma": -1,
        "alpha": {cell: x for cell, x in alpha.items() if x},
        "beta": {cell: x for cell, x in beta.items() if x},
    }


def certificate_digest(cert: dict) -> str:
    """sha256 of the canonical certificate JSON (entries row-major, no spaces)."""
    doc = {
        "n": cert["n"],
        "c": cert["c"],
        "gamma": cert["gamma"],
        "alpha": [[i, j, x] for (i, j), x in sorted(cert["alpha"].items())],
        "beta": [[i, j, x] for (i, j), x in sorted(cert["beta"].items())],
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_report(n: int, cert: dict, gamma: int) -> dict:
    """rhs, max LHS and violation count of a certificate under a chosen gamma."""
    alpha, beta = cert["alpha"], cert["beta"]
    lhs = [alpha.get(v, 0) + beta.get(u, 0) + gamma * w for u, v, w in arcs(n)]
    return {
        "rhs": sum(alpha.values()) + sum(beta.values()) + cert["c"] * gamma,
        "max_lhs": max(lhs),
        "violations": sum(1 for x in lhs if x > 0),
    }
