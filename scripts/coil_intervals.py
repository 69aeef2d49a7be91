#!/usr/bin/env python3
"""Tabulate the coil interval [min_coil, max_coil] for even boards.

The interval is the exact range of the coil functional over the
assignment polytope; c = n/2 is LP-feasible iff it lands inside.  Useful
for seeing where the n/2 barrier sits in each residue class.
"""

import argparse
import time

from whirlknight import build_digraph, coil_interval


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=40)
    args = parser.parse_args()

    print(f"{'n':>4} {'n%8':>4} {'c=n/2':>6} {'min':>5} {'max':>5} {'c in range':>11} {'time':>7}")
    for n in range(4, args.max_n + 1, 2):
        start = time.perf_counter()
        iv = coil_interval(build_digraph(n))
        elapsed = time.perf_counter() - start
        c = n // 2
        inside = iv.min_coil <= c <= iv.max_coil
        print(f"{n:>4} {n % 8:>4} {c:>6} {iv.min_coil:>5} {iv.max_coil:>5} "
              f"{str(inside).lower():>11} {elapsed:>6.2f}s")


if __name__ == "__main__":
    main()
