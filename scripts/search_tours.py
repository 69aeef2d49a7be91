#!/usr/bin/env python3
"""Budgeted tour search experiments on small boards.

Runs the backtracking search with and without a coil target and reports
what it finds within the node budget, with the elapsed time and the
search throughput in nodes per second.  A not-found result is just that;
nonexistence statements come from the certificate and LP modules.
"""

import argparse
import time

from whirlknight import SearchStats, build_digraph, coil_interval, search_tour


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--budget", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    g = build_digraph(args.n)
    iv = coil_interval(g)
    print(f"n={args.n}: coil interval [{iv.min_coil}, {iv.max_coil}]")

    targets = [None] + list(range(iv.min_coil, iv.max_coil + 1))
    for target in targets:
        stats = SearchStats()
        start = time.perf_counter()
        tour = search_tour(g, coil_target=target, budget=args.budget,
                           seed=args.seed, stats=stats)
        elapsed = time.perf_counter() - start
        timing = f"[{elapsed:.2f}s, {stats.nodes / elapsed:,.0f} nodes/s]"
        label = "any" if target is None else str(target)
        if tour is not None:
            print(f"  coil={label:>4}: found coil={tour.coil} "
                  f"nodes={stats.nodes} {timing}")
        else:
            closed = "space exhausted" if stats.exhausted else "budget exhausted"
            print(f"  coil={label:>4}: not found ({closed}, nodes={stats.nodes}) "
                  f"{timing}")


if __name__ == "__main__":
    main()
