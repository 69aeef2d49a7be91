"""Regenerate perfbench/reference.json, the answers the benchmark checks against.

    python3 perfbench/make_reference.py

Needs scipy.  Coil intervals come from scipy's assignment solver run on
the oracle's own arc list, digraph counts and certificate reports from
``oracle.py``, and the paper's closed-form certificates are rebuilt there
too.  Reference tours are found with the package's search and accepted
only after the oracle re-checks them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

import oracle  # noqa: E402
import workloads as W  # noqa: E402
from whirlknight import build_digraph, search_tour  # noqa: E402


def coil_interval(n: int) -> list[int]:
    cells = oracle.board_cells(n)
    idx = {c: k for k, c in enumerate(cells)}
    big = 1 << 30
    w = np.full((len(cells), len(cells)), big, dtype=np.int64)
    for u, v, weight in oracle.arcs(n):
        w[idx[u], idx[v]] = weight
    ends = []
    for cost in (w, np.where(w >= big, big, -w)):
        rows, cols = linear_sum_assignment(cost)
        if int(w[rows, cols].max()) >= big:
            raise RuntimeError(f"n={n} has no cycle cover")
        ends.append(int(w[rows, cols].sum()))
    return ends


def reference_tour(n: int, coil: int) -> dict:
    g = build_digraph(n)
    for seed in range(1, 200):
        tour = search_tour(g, coil, budget=200_000, seed=seed)
        if tour is None:
            continue
        cells = [list(c) for c in tour.cells]
        problem, got = oracle.check_tour(n, cells)
        if problem or got != coil:
            raise RuntimeError(f"search returned a bad tour at n={n}: {problem or got}")
        return {"coil": coil, "cells": cells}
    raise RuntimeError(f"no tour found at n={n} coil={coil}")


def certificate_entry(n: int) -> dict:
    cert = oracle.closed_form_certificate(n)
    return {
        "sha256": oracle.certificate_digest(cert),
        "alpha_cells": len(cert["alpha"]),
        "beta_cells": len(cert["beta"]),
        "valid": oracle.certificate_report(n, cert, cert["gamma"]),
        "negative": oracle.certificate_report(n, cert, 0),
    }


def require(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"reference does not support the workload as written: {what}")


def cli_expectations(lp: dict, dg: dict, certs: dict) -> dict:
    """Expected exit codes and first-line stdout fields of each cli-mix command.

    The seed picks some arguments (t1 board, t2 board, lp c); each choice
    must give the same expected output, which is checked here.
    """
    for n in (14, 22, 30):
        require(certs[str(n)]["valid"] == {"rhs": 1, "max_lhs": 0, "violations": 0}, f"t1 at n={n}")
    t2 = []
    for n in (12, 20, 28):
        cert = oracle.closed_form_certificate(n)
        t2.append(oracle.certificate_report(n, dict(cert, c=n // 2 + 1), cert["gamma"]))
    require(t2[0] == t2[1] == t2[2] and t2[0]["rhs"] < 1, "t2 at c = n/2 + 1")
    lo8, hi8 = lp["8"]
    lo14, hi14 = lp["14"]
    require(4 < lo8 and lo14 <= 10 and 12 <= hi14, "lp verdicts at n = 8 and 14")
    def strs(d: dict) -> dict:  # key=value stdout fields are compared as text
        return {k: str(v) for k, v in d.items()}

    return {
        "cert-t1": {"exit": [0], "fields": dict(valid="true", **strs(certs["14"]["valid"]))},
        "cert-t2-c": {"exit": [1], "fields": dict(valid="false", **strs(t2[0]))},
        "lp-neg": {"exit": [1], "fields": {"feasible": False, "min_coil": lo8, "max_coil": hi8}},
        "lp-pos": {"exit": [0], "fields": {"feasible": True, "min_coil": lo14, "max_coil": hi14}},
        "search-found": {"exit": [0, 1], "fields": {}},
        "search-budget": {"exit": [0, 1], "fields": {}},
        "verify-ref": {"exit": [0], "fields": {"valid": "true", "n": "8", "coil": "7"}},
        "verify-bad": {"exit": [1], "fields": {"valid": "false"}},
        "digraph": {"exit": [0], "fields": dict(n="30", **strs(dg["30"]))},
        "render": {"exit": [0], "fields": {}},
        "render-bad": {"exit": [2], "fields": {}},
    }


def main() -> None:
    lp = {str(n): coil_interval(n) for n in W.LP_BOARDS}
    boards = sorted(set(W.CERT_BOARDS) | set(W.LP_BOARDS) | {n for n, _ in W.SEARCH_QUERIES})
    dg = {str(n): oracle.digraph_counts(n) for n in boards}
    certs = {str(n): certificate_entry(n) for n in W.CERT_BOARDS}
    ref = {
        "generated_by": "python3 perfbench/make_reference.py",
        "lp": lp,
        "digraph": dg,
        "certificates": certs,
        "tours": {str(n): reference_tour(n, coil) for n, coil in W.REFERENCE_TOURS},
        "cli": cli_expectations(lp, dg, certs),
    }
    W.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.REFERENCE}")


if __name__ == "__main__":
    main()
