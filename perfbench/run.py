"""whirlknight benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload lp-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; it works from the repository root and imports the
package from ``src``.  A run repeats passes over the workload's query
list, one query after another, until ``--seconds`` is used up (always at
least one pass).  Pass k's inputs come from (workload, seed, k) only.
Every answer is checked outside the timed region.

--trace 0 prints the end-to-end metrics: wall_norm (median pass time in
units of a fixed reference job's time, sampled between and inside the
pass's queries, so the machine's own speed drift cancels), peak_rss_mb
and setup_s (median of fresh interpreters that import whirlknight and
load the reference, spread over the run).  The report also gives the raw wall_s, the query
percentiles and the failed and found ratios.  --trace 1 runs every query
of pass 0 untraced and traced back to back and prints per-layer metrics
for one pass; spans go to perfbench/out/.  Both modes first run the
workload's warm-up queries untimed.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 15
SETUP_CODE = (
    "import json, sys; sys.path.insert(0, 'src'); import whirlknight; "
    "json.loads(open('perfbench/reference.json').read())"
)
# The reference loop: pure-Python arithmetic and small-array NumPy steps, the
# two kinds of work the package does; together about 1 ms on a 2-vCPU x86 VM.
REF_LOOP_N = 10_000
REF_ARRAY_N = 1_000
REF_ARRAY_STEPS = 40
REF_PERIOD_S = 0.2  # how often the loop runs inside a long query
# For workloads that run child processes the reference is a bare interpreter
# start that imports the standard modules the CLI uses, and none of the package.
REF_PROCESS_CODE = "import argparse, json"
WORKLOADS = ("lp-ladder", "certify", "search", "cli-mix")


@dataclass
class Passes:
    """Timings and verdicts of the queries and passes one run made."""

    walls: list[float] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)  # pass times in reference units
    ref_s: list[float] = field(default_factory=list)  # each pass's mean reference time
    query_s: list[float] = field(default_factory=list)
    check_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    searches: int = 0
    found: int = 0
    peak_rss_mb: float = 0.0  # after the first pass, so it does not depend on the pass count


def ref_loop() -> float:
    """Seconds a fixed mix of pure-Python and NumPy work takes now: the machine's speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i % 7
    a = np.arange(REF_ARRAY_N, dtype=np.int64)
    b = a[::-1].copy()
    for _ in range(REF_ARRAY_STEPS):
        cur = a - b
        better = cur < b
        b[better] = cur[better]
        b += int(np.argmin(b)) & 1
    return time.perf_counter() - t0


def ref_process() -> float:
    """Seconds a fresh interpreter takes to start and import REF_PROCESS_CODE now."""
    t0 = time.perf_counter()
    # No timeout: with one, run() polls the child's exit in steps of up to 50 ms.
    subprocess.run([sys.executable, "-I", "-c", REF_PROCESS_CODE], check=True, capture_output=True)
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples of the machine's speed, taken between queries and inside long ones.

    The reference is ref_loop() for in-process workloads and ref_process()
    for workloads that run child processes, whose time goes mostly to
    starting interpreters.  Inside an in-process query, ref_loop() runs
    every REF_PERIOD_S from a SIGALRM handler, on the query's own thread
    between two of its bytecodes; its time goes to ``stolen`` and run_query
    takes it back out of the query's time.  Queries that run child processes
    are not sampled inside: the child runs on while the handler does.
    """

    def __init__(self, wl) -> None:
        self.reference = ref_process if wl.runs_children else ref_loop
        self.samples: list[float] = []
        self.stolen = 0.0
        self.armed = False

    def sample(self) -> float:
        k = self.reference()
        self.samples.append(k)
        return k

    def _tick(self, signum, frame) -> None:
        if self.armed:
            self.stolen += self.sample()

    @contextlib.contextmanager
    def ticking(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextlib.contextmanager
    def inside(self):
        self.armed = self.reference is ref_loop
        try:
            yield
        finally:
            self.armed = False


def run_query(wl, q, passes: Passes, tracer=None, tag: str = "", meter=None) -> float:
    """Run one query from a collected heap and return its time; check it untimed.

    Collecting first means the garbage one query leaves is never collected
    on the next one's clock.
    """
    wl.prepare(q)
    gc.collect()
    traced = contextlib.nullcontext() if tracer is None else tracer.installed()
    with traced:
        if tracer is not None:
            tracer.query = tag + q.qid
        stolen = meter.stolen if meter else 0.0
        t0 = time.perf_counter()
        # Armed after t0 and disarmed before t1, so every sample taken inside
        # the query is also inside [t0, t1].
        with meter.inside() if meter else contextlib.nullcontext():
            try:
                if tracer is None:
                    out = wl.run(q)
                else:
                    with tracer.span("bench.query"):
                        out = wl.run(q)
                error = None
            except Exception as exc:  # a raising query is a failed query; keep going
                out, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        elapsed = t1 - t0 - ((meter.stolen - stolen) if meter else 0.0)
    try:
        problem = error or wl.check(q, out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    passes.check_s += time.perf_counter() - t1
    passes.attempted += 1
    if problem:
        passes.failures.append(f"{q.qid} {q.kind}{q.args[:2]}: {problem}")
    found = None if error else wl.found(q, out)
    if found is not None:
        passes.searches += 1
        passes.found += found
    return elapsed


def run_pass(wl, queries, passes: Passes, meter=None, between=None) -> None:
    """Run queries one after another; ``between`` runs after each, untimed.

    With a meter, the pass time is also given in reference units: each
    query's time is divided by the mean of the reference times sampled just
    before, inside and just after it, so a pass reads the same whether the
    machine was fast or slow while it ran.  The mean, not the median: the
    samples inside a query are evenly spaced in time, so their mean follows
    a slow stretch for exactly as long as the query felt it.
    """
    wall = norm = 0.0
    if meter is not None:
        first = len(meter.samples)
        meter.sample()
    for q in queries:
        before = len(meter.samples) - 1 if meter is not None else 0
        t = run_query(wl, q, passes, meter=meter)
        if meter is not None:
            meter.sample()
            norm += t / statistics.fmean(meter.samples[before:])
        wall += t
        passes.query_s.append(t)
        if between is not None:
            between()
    passes.walls.append(wall)
    if meter is not None:
        passes.ref_s.append(statistics.fmean(meter.samples[first:]))
        passes.norms.append(norm)


def warm_up(wl, seed: int, passes: Passes) -> None:
    """Untimed queries first, so imports, caches and the allocator are warm; still checked."""
    for q in wl.warmup(seed):
        run_query(wl, q, passes)


def measure(wl, seed: int, seconds: float, meter: SpeedMeter, between=None) -> Passes:
    """Warm up, then passes k = 0, 1, ... until the next one would overrun ``seconds``."""
    passes = Passes()
    warm_up(wl, seed, passes)
    start = time.perf_counter()
    k = 0
    while True:
        t = time.perf_counter()
        run_pass(wl, wl.queries(seed, k), passes, meter, between)
        if k == 0:
            who = resource.RUSAGE_CHILDREN if wl.runs_children else resource.RUSAGE_SELF
            passes.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
        k += 1
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return passes


class SetupProbes:
    """Fresh interpreters that import whirlknight, spread evenly over a run."""

    def __init__(self, seconds: float) -> None:
        self.times: list[float] = []
        self.every = seconds / SETUP_PROBES
        self.start = time.perf_counter()

    def probe(self) -> None:
        t0 = time.perf_counter()
        # No timeout, as in ref_process.
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, capture_output=True)
        self.times.append(time.perf_counter() - t0)

    def due(self) -> None:
        """Probe as often as the schedule says is overdue (between queries)."""
        while (len(self.times) < SETUP_PROBES
               and time.perf_counter() - self.start >= len(self.times) * self.every):
            self.probe()

    def median(self) -> float:
        """Top up to the full count (a run with few, long queries) and take the median."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def context(args) -> dict:
    import workloads

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "client": "closed loop, one client, single-threaded",
    }


def plain_run(args, wl) -> tuple[dict, dict, Passes]:
    probes = SetupProbes(args.seconds)
    with SpeedMeter(wl).ticking() as meter:
        passes = measure(wl, args.seed, args.seconds, meter, probes.due)
    metrics = {
        "wall_norm": statistics.median(passes.norms),
        "peak_rss_mb": passes.peak_rss_mb,
        "setup_s": probes.median(),
    }
    # Raw times and per-query percentiles are reported but not gated: on this
    # kind of shared VM the machine's speed drifts by 15% and more between runs
    # (see README.md), and on lp-ladder the median query falls between board sizes.
    detail = {
        "wall_s": statistics.median(passes.walls),
        "ref_s": statistics.median(passes.ref_s),
        "ref_samples": len(meter.samples),
        "query_s_p50": statistics.median(passes.query_s),
        "queries": len(passes.query_s),
        "passes": len(passes.walls),
        "pass_walls_s": passes.walls,
        "pass_norms": passes.norms,
        "setup_probes_s": probes.times,
    }
    if len(passes.query_s) >= 100:
        detail["query_s_p90"] = statistics.quantiles(passes.query_s, n=10)[-1]
    return metrics, detail, passes


def traced_run(args, wl, ref, units: dict) -> tuple[dict, dict, Passes]:
    """Run each query of pass 0 untraced and traced back to back; per-layer numbers per pass.

    Pairing each query with itself, in alternating order, makes the
    tracing overhead a sum of differences of neighbouring timings, so a
    slow stretch of the machine longer than a query falls on both sides.
    It cannot remove the noise of single timings: with one repetition the
    overhead can read below zero.
    """
    import workloads  # imports the package, so only after main() found it

    queries = wl.queries(args.seed, 0)
    plain, traced = Passes(), Passes()
    process = Passes()  # cli-mix only: the same commands as child processes
    inner = workloads.make(args.workload, ref, in_process=True) if args.workload == "cli-mix" else wl
    tracer = spans.Tracer()
    warm_up(inner, args.seed, plain)
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if inner is not wl:
            run_pass(wl, queries, process)
        rep = len(traced.walls)
        tag = f"r{rep}."
        pw = tw = 0.0
        for i, q in enumerate(queries):
            if (i + rep) % 2:
                tw += run_query(inner, q, traced, tracer, tag)
                pw += run_query(inner, q, plain)
            else:
                pw += run_query(inner, q, plain)
                tw += run_query(inner, q, traced, tracer, tag)
        plain.walls.append(pw)
        traced.walls.append(tw)
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > args.seconds:
            break
    reps = len(traced.walls)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", start)
    metrics = layer_metrics(tracer.spans, reps)
    metrics["bench.check_s"] = traced.check_s / reps
    metrics["bench.trace_overhead_s"] = statistics.median(
        tw - pw for tw, pw in zip(traced.walls, plain.walls))
    metrics["cli.startup_s"] = (
        statistics.median(process.walls) - metrics["cli.main_s"] if process.walls else 0.0
    )
    wall = statistics.median(process.walls or traced.walls)
    timed = [v for k, v in metrics.items() if units.get(k) == "s" and k != "bench.trace_overhead_s"]
    detail = {
        "repetitions": reps,
        "traced_wall_s": statistics.median(traced.walls),
        "untraced_wall_s": statistics.median(plain.walls),
        "layer_times_within_wall": all(v <= wall for v in timed),
        "spans": len(tracer.spans),
    }
    merged = Passes()
    for p in (process, plain, traced):
        merged.attempted += p.attempted
        merged.failures += p.failures
        merged.searches += p.searches
        merged.found += p.found
    return metrics, detail, merged


def layer_metrics(recorded: list[dict], reps: int) -> dict:
    """Per-layer totals for one pass: inclusive times, counts and self times."""

    def total(*names):
        return sum((spans.duration(s) for s in recorded if s["name"] in names), 0.0)

    def count(key, *names):
        return sum(s.get("counts", {}).get(key, 0) for s in recorded if s["name"] in names)

    build_s = total("digraph.build_digraph")
    search_s = total("tours.search_tour")
    nodes = count("nodes", "tours.search_tour")
    render_names = [f"render.{f}" for f in spans.TRACED["render"]]
    m = {
        "digraph.build_s": build_s,
        "digraph.arcs_per_s": count("arcs", "digraph.build_digraph") / build_s if build_s else 0.0,
        "certificates.build_s": total("certificates.build_t1", "certificates.build_t2"),
        "certificates.json_s": total("certificates.certificate_to_json", "certificates.certificate_from_json"),
        "certificates.verify_s": total("certificates.verify_certificate"),
        "certificates.violations": count("violations", "certificates.verify_certificate"),
        "render.render_s": total(*render_names),
        "render.bytes": count("bytes", "render.render"),
        "polytope.lp_s": total("polytope.lp_feasible"),
        "polytope.lp_calls": sum(1 for s in recorded if s["name"] == "polytope.lp_feasible"),
        "polytope.witness_arcs": count("witness_arcs", "polytope.lp_feasible"),
        "tours.search_s": search_s,
        "tours.nodes": nodes,
        "tours.nodes_per_s": nodes / search_s if search_s else 0.0,
        "tours.exhausted": count("exhausted", "tours.search_tour"),
        "tours.verify_s": total("tours.verify_tour"),
        "cli.main_s": total("cli.main"),
    }
    selfs = spans.self_times(recorded)
    for layer in ("bench",) + spans.LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    # Rates stay rates; everything else is a per-pass total.  Each repetition
    # runs the same queries, so integer counts divide exactly.
    return {k: v if k.endswith("_per_s") else v // reps if isinstance(v, int) else v / reps
            for k, v in m.items()}


def declared_units() -> dict[int, dict[str, str]]:
    """Metric name -> unit for --trace 0 and --trace 1, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def detail_unit(name: str) -> str:
    """Units of the ungated report fields, which BENCHMARK.json does not list."""
    for suffix, u in (("_ratio", "ratio"), ("_s", "s"), ("_s_p50", "s"), ("_s_p90", "s"),
                      ("_norms", "ref")):
        if name.endswith(suffix):
            return u
    return "count"


def run_all(args) -> int:
    """Each workload in its own child process; prints every metric with its unit."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "whirlknight" / "__init__.py").is_file():
        print(f"error: the whirlknight package is missing under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads

    units = declared_units()[args.trace]
    ref = workloads.load_reference()
    wl = workloads.make(args.workload, ref)
    try:
        measured = traced_run(args, wl, ref, units) if args.trace else plain_run(args, wl)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    metrics, detail, passes = measured
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 2
    detail["failed_ratio"] = len(passes.failures) / passes.attempted
    if passes.searches:
        detail["found_ratio"] = passes.found / passes.searches
    correct = not passes.failures
    for line in passes.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    report = {"context": context(args), "metrics": metrics, "detail": detail, "failures": passes.failures}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for k, v in metrics.items():
        print(f"{args.workload:10} {k:28} {v!s:>24} {units[k]}")
    for k, v in detail.items():
        print(f"{args.workload:10} {k:28} {v!s:>24} {'' if isinstance(v, bool) else detail_unit(k)}")
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
