"""The benchmark's contract with the package: the names and attributes ``perfbench/`` reads.

Runs in a subprocess with ``src`` and ``perfbench`` on ``sys.path``, as the
benchmark does, and without writing bytecode, so nothing lands under
``perfbench/``.  The cli-mix queries write their files under
``perfbench/out/work`` relative to the working directory, so they run from
a temporary one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONTRACT = """
import importlib
import sys

sys.path[:0] = sys.argv[1:3]
import spans
import workloads

missing = [
    f"{layer}.{name}"
    for layer, names in spans.TRACED.items()
    for name in names
    if not callable(getattr(importlib.import_module(f"whirlknight.{layer}"), name, None))
]
assert not missing, f"spans.TRACED names missing from the package: {missing}"

ref = workloads.load_reference()
tour8 = tuple(tuple(c) for c in ref["tours"]["8"]["cells"])
cases = [
    (workloads.Certify(ref), workloads.Query("q0", "certify", (14,))),
    (workloads.LpLadder(ref), workloads.Query("q1", "lp", (14, 10))),
    (workloads.LpLadder(ref), workloads.Query("q2", "lp", (14, 7))),
    (workloads.Search(ref), workloads.Query("q3", "verify", (8, "intact", tour8))),
    (workloads.Search(ref), workloads.Query("q4", "search", (6, 5, 12345))),
    (workloads.Search(ref), workloads.Query("q5", "search", (8, 6, 12345))),
    # The largest boards certify times: n = 100 (t2) and n = 102 (t1).
    (workloads.Certify(ref), workloads.Query("q6", "certify", (100,))),
    (workloads.Certify(ref), workloads.Query("q7", "certify", (102,))),
]
outs = []
for workload, query in cases:
    outs.append(workload.run(query))
    problem = workload.check(query, outs[-1])
    assert problem is None, f"{workload.name} {query.args[:2]}: {problem}"
# The n = 6 search finds its tour; the n = 8 one spends the whole budget, which check_search counts.
assert outs[4]["tour"] is not None
assert outs[5]["tour"] is None and not outs[5]["exhausted"]
print("ok")
"""


def test_workloads_run_and_check_against_the_package():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CONTRACT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


CLI_MIX = """
import sys

sys.path[:0] = sys.argv[1:3]
import workloads

# cli.main in process: the n = 30 digraph, its SVG (grid, arcs, plumb-line), a broken file,
# and a found and a budget-limited search, whose stdout line perfbench parses.
cli = workloads.CliMix(workloads.load_reference(), in_process=True)
names = ("digraph", "render", "render-bad", "search-found", "search-budget")
queries = [q for q in cli.queries(0, 0) if q.args[0] in names]
assert len(queries) == 5
for query in queries:
    cli.prepare(query)
    problem = cli.check(query, cli.run(query))
    assert problem is None, f"cli-mix {query.args[0]}: {problem}"
print("ok")
"""


def test_cli_mix_render_queries_check_in_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CLI_MIX, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert (tmp_path / "perfbench" / "out" / "work" / "g30.svg").is_file()
    assert (tmp_path / "perfbench" / "out" / "work" / "found6.json").is_file()
