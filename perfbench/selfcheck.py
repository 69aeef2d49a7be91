"""Self-checks of the benchmark's own logic.  Takes a few seconds.

    python3 perfbench/selfcheck.py

* the query lists a seed generates are identical on every call;
* a wrong verdict, a wrong exit code or a corrupted tour is counted as a
  failure, so failed_ratio rises above 0;
* a search that returns no tour within its budget is never a failure.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads as W  # noqa: E402

REF = W.load_reference()


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def failed_ratio(wl, queries) -> float:
    passes = run.Passes()
    run.run_pass(wl, queries, passes)
    return len(passes.failures) / passes.attempted


def check_queries_repeat() -> None:
    for name in run.WORKLOADS:
        for k in (0, 1):
            first = W.make(name, REF).queries(7, k)
            expect(first == W.make(name, REF).queries(7, k), f"{name} pass {k} queries repeat for a seed")
            if name != "certify":  # its board list is fixed
                expect(first != W.make(name, REF).queries(8, k), f"{name} pass {k} queries depend on the seed")


class WrongVerdict(W.LpLadder):
    def run(self, q):
        out = super().run(q)
        return dict(out, d=dataclasses.replace(out["d"], feasible=not out["d"].feasible))


class CorruptedTour(W.Search):
    def run(self, q):
        out = super().run(q)
        if out.get("tour") is not None:
            cells = W.corrupt(out["tour"].cells, "swap")
            out["tour"] = dataclasses.replace(out["tour"], cells=tuple(cells))
        return out


class WrongExit(W.CliMix):
    def run(self, q):
        out = super().run(q)
        return dict(out, exit=2 if out["exit"] != 2 else 0)


def check_failures_counted() -> None:
    lp = [W.Query("lp", "lp", (8, 4)), W.Query("lp2", "lp", (8, 7))]
    expect(failed_ratio(W.LpLadder(REF), lp) == 0, "correct lp answers pass")
    expect(failed_ratio(WrongVerdict(REF), lp) == 1, "flipped lp verdicts fail")

    found = [W.Query("s", "search", (6, 5, 3))]
    expect(failed_ratio(W.Search(REF), found) == 0, "a found tour passes")
    expect(failed_ratio(CorruptedTour(REF), found) == 1, "a corrupted returned tour fails")

    class SaysValid(W.Search):
        def run(self, q):
            return {"valid": True, "coil": REF["tours"]["6"]["coil"]}

    cells = REF["tours"]["6"]["cells"]
    bad = [W.Query("v", "verify", (6, "drop", tuple(map(tuple, cells[1:]))))]
    expect(failed_ratio(W.Search(REF), bad) == 0, "verify_tour rejects a corrupted tour")
    expect(failed_ratio(SaysValid(REF), bad) == 1, "accepting a corrupted tour fails")

    cli = [q for q in W.make("cli-mix", REF).queries(1, 0) if q.args[0] in ("lp-neg", "render-bad")]
    expect(failed_ratio(W.CliMix(REF, in_process=True), cli) == 0, "cli exit codes match the reference")
    expect(failed_ratio(WrongExit(REF, in_process=True), cli) == 1, "a wrong cli exit code fails")


def check_not_found_is_not_failure() -> None:
    miss = [W.Query("m", "search", (12, None, 5))]
    passes = run.Passes()
    run.run_pass(W.Search(REF), miss, passes)
    expect(passes.searches == 1 and passes.found == 0, "n=12 search stays budget-limited")
    expect(not passes.failures, "a budget-limited search is not a failure")
    out = {"tour": None, "nodes": W.SEARCH_BUDGET, "exhausted": False}
    expect(W.check_search(REF, 8, 7, W.SEARCH_BUDGET, out) is None, "not found at budget passes")
    out = {"tour": None, "nodes": 17, "exhausted": True}
    expect(W.check_search(REF, 8, 7, W.SEARCH_BUDGET, out) is not None,
           "claiming no tour exists where the reference has one fails")
    cli = W.CliMix(REF)
    argv = ["tour", "search", "--n", "8", "--coil", "6", "--budget", "2000"]
    fields = {"found": "false", "nodes": "2000", "exhausted": "false"}
    expect(cli._check_search(argv, 1, fields) is None, "cli search exit 1 at budget passes")


def main() -> int:
    os.chdir(ROOT)  # cli-mix writes its inputs under a path relative to the root
    try:
        check_queries_repeat()
        check_failures_counted()
        check_not_found_is_not_failure()
    finally:
        shutil.rmtree(W.WORK, ignore_errors=True)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
