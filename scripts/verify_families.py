#!/usr/bin/env python3
"""Verify every closed-form certificate family across a range of boards.

For every family in ``whirlknight.FAMILIES`` and every n of its class up
to --max-n, in increasing n, builds the family certificate
(``build_<family>``), verifies it arc-by-arc against the digraph, and
cross-checks the LP route at the certificate's own c: a valid certificate
must force lp_feasible(g, c) to be false, with min_coil >= c + RHS when
its gamma is negative and max_coil <= c - RHS otherwise, and the LP's
own certificate for that negative must verify too.  The support columns
count the nonzero alpha and beta entries of the family certificate and
of the LP one.
"""

import argparse
import time

import whirlknight as wk
from whirlknight import FAMILIES, build_digraph, lp_feasible, verify_certificate


def support(cert) -> int:
    return len(cert.alpha) + len(cert.beta)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=30)
    args = parser.parse_args()

    print(f"{'n':>4} {'family':>6} {'rhs':>4} {'max_lhs':>8} {'valid':>6} {'support':>7} "
          f"{'lp(c)':>8} {'min_coil':>8} {'lp_support':>10} {'time':>7}")
    boards = sorted((n, family) for family, r in FAMILIES.items() for n in range(r, args.max_n + 1, 8))
    for n, family in boards:
        cert = getattr(wk, f"build_{family}")(n)
        start = time.perf_counter()
        g = build_digraph(n)
        report = verify_certificate(g, cert)
        assert report.max_lhs <= 0  # no violated arc on any board of the class
        lp_support = "-"
        decision = lp_feasible(g, cert.c)
        if report.valid:  # soundness: a valid certificate forces infeasibility
            assert not decision.feasible
            if cert.gamma < 0:
                assert decision.min_coil >= cert.c + report.rhs
            else:
                assert decision.max_coil <= cert.c - report.rhs
            assert verify_certificate(g, decision.certificate).valid
            lp_support = support(decision.certificate)
        lp_txt = "feas" if decision.feasible else "infeas"
        elapsed = time.perf_counter() - start
        print(f"{n:>4} {family:>6} {report.rhs:>4} {report.max_lhs:>8} "
              f"{str(report.valid).lower():>6} {support(cert):>7} {lp_txt:>8} {decision.min_coil:>8} "
              f"{lp_support:>10} {elapsed:>6.2f}s")


if __name__ == "__main__":
    main()
