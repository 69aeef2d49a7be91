"""The four benchmark workloads: query generation, execution and checks.

Each workload turns (workload seed, pass index) into a list of queries,
runs one query at a time through the package's public functions, and
checks each answer against ``reference.json`` and the exact code in
``oracle.py``.  Package functions are looked up as module attributes at
call time (``digraph.build_digraph``, never a local alias), so a tracer
that swaps those attributes sees every call.

Importing this module imports the package: put ``src`` on ``sys.path``
first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from whirlknight import certificates, cli, digraph, polytope, render, tours

import oracle

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Relative to the repository root, which run.py makes the working directory.
WORK = Path("perfbench") / "out" / "work"

LP_BOARDS = (8, 14, 20, 30)
CERT_BOARDS = tuple(n for n in range(4, 103) if n % 8 in (4, 6))
SEARCH_BUDGET = 12_000
# (n, coil target): found at n = 6; found or budget-limited at n = 8
# coil any / 7; unresolved at n = 8 coil 6; budget-limited beyond.
SEARCH_QUERIES = ((6, None), (6, 5), (8, None), (8, 7), (8, 6), (10, None), (12, None), (16, None))
REFERENCE_TOURS = ((6, 5), (8, 7), (10, 8))
# verify_tour queries use the n = 8 and 10 tours: with the n = 6 searches this
# puts the median query inside the n = 10 verify cluster, not between clusters.
VERIFY_BOARDS = (8, 10)
CORRUPTIONS = ("swap", "drop", "repeat", "reverse")
CLI_SEARCH_BUDGET = 2_000

WHY = {
    "lp-ladder": "dense matching solves in polytope do ~98% of the work; infeasible and "
    "feasible c per board, the latter building and validating a witness",
    "certify": "digraph build dominates and no solver runs; valid and gamma=0 certificates "
    "scan every arc, with and without violations, then render SVG",
    "search": "the per-node sweep in tours dominates at a fixed node budget; budget-limited "
    "search beside cheap verify_tour calls on good and corrupted tours",
    "cli-mix": "whole whirlknight commands as processes: interpreter start, import, argument "
    "parsing and the exit-code contract (0 positive, 1 negative, 2 error)",
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclasses.dataclass(frozen=True)
class Query:
    qid: str
    kind: str
    args: tuple


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _number(queries: list[tuple[str, tuple]], k: int) -> list[Query]:
    return [Query(f"p{k}.q{i}", kind, args) for i, (kind, args) in enumerate(queries)]


def corrupt(cells: list, how: str) -> list:
    """A damaged copy of a tour's cell sequence.

    The damage sits at fixed fractions of the tour, so a check that stops
    at the first fault costs the same whatever the seed.
    """
    cells = list(cells)
    m = len(cells)
    if how == "swap":
        cells[m // 3], cells[2 * m // 3] = cells[2 * m // 3], cells[m // 3]
    elif how == "drop":
        del cells[m // 2]
    elif how == "repeat":
        cells[m // 2] = cells[m // 4]
    elif how == "reverse":
        cells.reverse()
    else:
        raise ValueError(f"unknown corruption {how!r}")
    return cells


class Workload:
    name = ""
    runs_children = False  # peak memory is that of child processes

    def __init__(self, ref: dict):
        self.ref = ref

    def queries(self, seed: int, k: int) -> list[Query]:
        raise NotImplementedError

    def warmup(self, seed: int) -> list[Query]:
        """Queries run once, untimed, before the first timed pass."""
        return self.queries(seed, -1)

    def prepare(self, q: Query) -> None:
        """Untimed set-up before one query (writing its input files)."""

    def run(self, q: Query) -> dict:
        raise NotImplementedError

    def check(self, q: Query, out: dict) -> str | None:
        raise NotImplementedError

    def found(self, q: Query, out: dict) -> bool | None:
        """For search queries, whether a tour came back; None for other queries."""
        return None


class LpLadder(Workload):
    name = "lp-ladder"

    def queries(self, seed, k):
        # Boards go smallest first: a fresh process runs its first large solve
        # markedly slower, so a shuffled order would move the median query.
        rng = _rng(self.name, seed, k)
        qs = []
        for n in LP_BOARDS:
            lo, hi = self.ref["lp"][str(n)]
            qs += [("lp", (n, n // 2)), ("lp", (n, rng.randint(lo + 1, hi - 1)))]
        return _number(qs, k)

    def warmup(self, seed):
        # Every kind of query, without the two n = 30 solves of about 7 s each.
        return [q for q in self.queries(seed, -1) if q.args[0] < 30]

    def run(self, q):
        n, c = q.args
        g = digraph.build_digraph(n)
        return {"g": g, "d": polytope.lp_feasible(g, c)}

    def check(self, q, out):
        n, c = q.args
        g, d = out["g"], out["d"]
        lo, hi = self.ref["lp"][str(n)]
        if (d.n, d.c, d.min_coil, d.max_coil) != (n, c, lo, hi):
            return f"decision n={d.n} c={d.c} interval [{d.min_coil}, {d.max_coil}], reference [{lo}, {hi}]"
        if d.feasible != (lo <= c <= hi):
            return f"verdict feasible={d.feasible} at c={c}, reference interval [{lo}, {hi}]"
        if not d.feasible:
            return None if d.witness is None else "infeasible decision carries a witness"
        if d.witness is None:
            return "feasible decision has no witness"
        x = d.witness.x
        if not all(isinstance(a, int) and 0 <= a < len(g.arcs) for a in x):
            return "witness names an unknown arc id"
        steps = {a: (tuple(g.arcs[a].tail), tuple(g.arcs[a].head)) for a in x}
        return oracle.check_witness(n, steps, {a: Fraction(v) for a, v in x.items()}, c)


class Certify(Workload):
    name = "certify"

    def queries(self, seed, k):
        # The board list is the workload; the seed changes nothing.  Boards go
        # smallest first, as in lp-ladder, so every run warms up the same way.
        return _number([("certify", (n,)) for n in CERT_BOARDS], k)

    def warmup(self, seed):
        return [q for q in self.queries(seed, -1) if q.args[0] <= 44]

    def run(self, q):
        (n,) = q.args
        g = digraph.build_digraph(n)
        cert = certificates.build_t1(n) if n % 8 == 6 else certificates.build_t2(n)
        text = certificates.certificate_to_json(cert)
        back = certificates.certificate_from_json(text)
        return {
            "g": g,
            "cert": cert,
            "text": text,
            "back": back,
            "report": certificates.verify_certificate(g, back),
            "negative": certificates.verify_certificate(g, dataclasses.replace(back, gamma=0)),
            "svg": render.render(render.certificate_spec(back, "svg")),
        }

    def check(self, q, out):
        (n,) = q.args
        g = out["g"]
        want = self.ref["digraph"][str(n)]
        got = {"vertices": len(g.vertices), "arcs": len(g.arcs), "crossing_arcs": sum(a.w for a in g.arcs)}
        if got != want:
            return f"digraph counts {got}, reference {want}"
        want = self.ref["certificates"][str(n)]
        if hashlib.sha256(out["text"].encode()).hexdigest() != want["sha256"]:
            return "certificate JSON differs from the paper's closed form"
        if out["back"] != out["cert"]:
            return "certificate changed in the JSON round trip"
        for key, rep, valid in (("valid", out["report"], True), ("negative", out["negative"], False)):
            got = {"rhs": rep.rhs, "max_lhs": rep.max_lhs, "violations": len(rep.violations)}
            if got != want[key] or rep.valid != valid:
                return f"{key} certificate report {got} valid={rep.valid}, reference {want[key]}"
        svg = out["svg"]
        cells = want["alpha_cells"] + want["beta_cells"]
        if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
            return "certificate SVG is not a complete <svg> document"
        if svg.count("<rect ") != 1 + cells or svg.count("<line ") != 2 * (n + 1) + 1:
            return "certificate SVG does not draw one cell per support entry and the full grid"
        return None


class Search(Workload):
    name = "search"

    def queries(self, seed, k):
        rng = _rng(self.name, seed, k)
        qs = [("search", (n, coil, rng.randrange(1, 2**31))) for n, coil in SEARCH_QUERIES]
        for n in VERIFY_BOARDS:
            cells = [tuple(c) for c in self.ref["tours"][str(n)]["cells"]]
            qs.append(("verify", (n, "intact", tuple(cells))))
            for how in CORRUPTIONS:
                qs.append(("verify", (n, how, tuple(corrupt(cells, how)))))
        rng.shuffle(qs)
        return _number(qs, k)

    def run(self, q):
        g = digraph.build_digraph(q.args[0])
        if q.kind == "search":
            _, coil, seed = q.args
            stats = tours.SearchStats()
            tour = tours.search_tour(g, coil, budget=SEARCH_BUDGET, seed=seed, stats=stats)
            return {"tour": tour, "nodes": stats.nodes, "exhausted": stats.exhausted}
        try:
            return {"valid": True, "coil": tours.verify_tour(g, q.args[2]).coil}
        except ValueError:
            return {"valid": False}

    def check(self, q, out):
        n = q.args[0]
        if q.kind == "verify":
            problem, coil = oracle.check_tour(n, q.args[2])
            if out["valid"] != (problem is None):
                return f"verify_tour said valid={out['valid']}; oracle: {problem or 'valid'}"
            if out["valid"] and out["coil"] != coil:
                return f"verify_tour coil {out['coil']}, oracle coil {coil}"
            return None
        return check_search(self.ref, n, q.args[1], SEARCH_BUDGET, out)

    def found(self, q, out):
        return out["tour"] is not None if q.kind == "search" else None


def check_search(ref: dict, n: int, coil: int | None, budget: int, out: dict) -> str | None:
    """A returned tour must be right; not-found is never a failure unless it lies.

    A search that stops early without a tour claims that none exists, so
    it fails only when the reference holds a tour it should have found.
    """
    tour = out["tour"]
    if tour is not None:
        problem, got = oracle.check_tour(n, tour.cells)
        if problem:
            return f"returned tour is wrong: {problem}"
        if got != tour.coil or (coil is not None and got != coil):
            return f"returned tour has coil {got}, reported {tour.coil}, target {coil}"
        return None if out["nodes"] <= budget else f"used {out['nodes']} nodes over budget {budget}"
    known = ref["tours"].get(str(n))
    if out["exhausted"]:
        if known and coil in (None, known["coil"]):
            return f"search claims no tour at n={n} coil={coil}, but the reference has one"
        return None
    if out["nodes"] != budget:
        return f"search gave up after {out['nodes']} of {budget} nodes without exhausting"
    return None


def tour_file(n: int, cells) -> str:
    return json.dumps({"n": n, "cells": [list(c) for c in cells]}) + "\n"


def parse_fields(stdout: str) -> dict:
    """The first stdout line as a dict: JSON, or space-separated key=value pairs."""
    line = stdout.split("\n", 1)[0]
    if line.startswith("{"):
        return json.loads(line)
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


class CliMix(Workload):
    """Whole commands, as child processes or (traced run) via cli.main in process."""

    name = "cli-mix"

    def __init__(self, ref: dict, in_process: bool = False):
        super().__init__(ref)
        self.in_process = in_process
        self.runs_children = not in_process
        self.env = dict(os.environ, PYTHONPATH="src")

    def queries(self, seed, k):
        # Board sizes are fixed, so every pass does the same amount of work;
        # the seed picks c, search seeds and the corruption.
        rng = _rng(self.name, seed, k)
        t1, t2 = 22, 20
        ref8, ref10 = self.ref["tours"]["8"]["cells"], self.ref["tours"]["10"]["cells"]
        bad = corrupt(ref10, rng.choice(("drop", "repeat")))
        g30 = str(WORK / "g30.json")
        qs = [
            ("cert-t1", ["cert", "verify", "--family", "t1", "--n", str(t1)], ()),
            ("cert-t2-c", ["cert", "verify", "--family", "t2", "--n", str(t2), "--c", str(t2 // 2 + 1)], ()),
            ("lp-neg", ["lp", "--n", "8", "--c", "4"], ()),
            ("lp-pos", ["lp", "--n", "14", "--c", str(rng.randint(10, 12))], ()),
            ("search-found", ["tour", "search", "--n", "6", "--coil", "5", "--budget", str(CLI_SEARCH_BUDGET),
                              "--seed", str(rng.randrange(1, 2**31)), "--out", str(WORK / "found6.json")], ()),
            ("search-budget", ["tour", "search", "--n", "8", "--coil", "6", "--budget",
                               str(CLI_SEARCH_BUDGET), "--seed", str(rng.randrange(1, 2**31))], ()),
            ("verify-ref", ["tour", "verify", "--in", str(WORK / "ref8.json")],
             (("ref8.json", tour_file(8, ref8)),)),
            ("verify-bad", ["tour", "verify", "--in", str(WORK / "bad10.json")],
             (("bad10.json", tour_file(10, bad)),)),
            ("digraph", ["digraph", "--n", "30", "--out", g30], ()),
            ("render", ["render", "--in", g30, "--format", "svg", "--out", str(WORK / "g30.svg")], ()),
            ("render-bad", ["render", "--in", str(WORK / "broken.json")],
             (("broken.json", '{"n": 30, "vertices": [[0, 0], [0, 1]\n'),)),
        ]
        return _number([("cli", q) for q in qs], k)

    def prepare(self, q):
        """Write the command's input files and remove what an earlier pass wrote."""
        WORK.mkdir(parents=True, exist_ok=True)
        for fname, text in q.args[2]:
            (WORK / fname).write_text(text)
        argv = q.args[1]
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)

    def run(self, q):
        argv = q.args[1]
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "whirlknight.cli", *argv],
                env=self.env, capture_output=True, text=True,
            )  # no timeout: with one, run() polls the child's exit in steps of up to 50 ms
            return {"exit": proc.returncode, "stdout": proc.stdout}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return {"exit": code, "stdout": stdout.getvalue()}

    def check(self, q, out):
        name = q.args[0]
        want = self.ref["cli"][name]
        if out["exit"] not in want["exit"]:
            return f"{name}: exit {out['exit']}, reference {want['exit']}"
        fields = parse_fields(out["stdout"])
        if name.startswith("search"):
            return self._check_search(q.args[1], out["exit"], fields)
        for key, value in want["fields"].items():
            if fields.get(key) != value:
                return f"{name}: {key}={fields.get(key)!r}, reference {value!r}"
        if name == "render":
            svg = (WORK / "g30.svg").read_text()
            arcs = self.ref["digraph"]["30"]["arcs"]
            if not svg.endswith("</svg>\n") or svg.count("<line ") != 2 * 31 + arcs + 1:
                return "render: digraph SVG does not draw the grid, every arc and the plumb line"
        return None

    def _check_search(self, argv, code, fields):
        n, coil = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--coil") + 1])
        if code == 0:
            if fields.get("found") != "true" or fields.get("coil") != str(coil):
                return f"tour search exit 0 but printed {fields}"
            if "--out" in argv:
                doc = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
                problem, got = oracle.check_tour(n, doc["cells"])
                if problem or got != coil or doc.get("coil") != coil:
                    return f"tour file is wrong: {problem or f'coil {got}'}"
            return None
        if fields.get("found") != "false":
            return f"tour search exit 1 but printed {fields}"
        budget = int(argv[argv.index("--budget") + 1])
        out = {"tour": None, "nodes": int(fields["nodes"]), "exhausted": fields["exhausted"] == "true"}
        return check_search(self.ref, n, coil, budget, out)

    def found(self, q, out):
        return out["exit"] == 0 if q.args[0].startswith("search") else None


def make(name: str, ref: dict, in_process: bool = False) -> Workload:
    if name == "cli-mix":
        return CliMix(ref, in_process)
    classes = {"lp-ladder": LpLadder, "certify": Certify, "search": Search}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}")
    return classes[name](ref)
