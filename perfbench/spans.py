"""Spans around the package's public calls, recorded from outside the package.

``Tracer.installed()`` swaps every module-level binding of the traced
functions (in the package and each of its modules, so calls between
modules and from ``cli`` are seen too) for a wrapper that records a span:
name, start, end, parent span, query id and counts read from the
returned public objects.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

LAYERS = ("digraph", "certificates", "polytope", "tours", "render", "cli")


def _verify_counts(rep, args, kwargs):
    return {"violations": len(rep.violations), "max_lhs": rep.max_lhs, "rhs": rep.rhs}


def _lp_counts(d, args, kwargs):
    return {"feasible": int(d.feasible), "min_coil": d.min_coil, "max_coil": d.max_coil,
            "witness_arcs": len(d.witness.x) if d.witness else 0}


def _search_counts(tour, args, kwargs):
    stats = kwargs.get("stats")
    counts = {"found": int(tour is not None)}
    if stats is not None:
        counts.update(nodes=stats.nodes, exhausted=int(stats.exhausted))
    return counts


# layer -> public function -> counts read from its result (or None)
TRACED = {
    "digraph": {
        "build_digraph": lambda g, a, kw: {"arcs": len(g.arcs)},
        "digraph_to_json": None,
        "digraph_from_json": None,
    },
    "certificates": {
        "build_t1": None,
        "build_t2": None,
        "certificate_to_json": None,
        "certificate_from_json": None,
        "verify_certificate": _verify_counts,
    },
    "polytope": {"lp_feasible": _lp_counts},
    "tours": {
        "search_tour": _search_counts,
        "verify_tour": None,
        "tour_to_json": None,
        "tour_from_json": None,
    },
    "render": {
        "board_spec": None,
        "digraph_spec": None,
        "certificate_spec": None,
        "tour_spec": None,
        "render": lambda text, a, kw: {"bytes": len(text)},
    },
    "cli": {"main": None},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.query: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its dict so the caller can attach counts."""
        rec = {"name": name, "query": self.query,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec["counts"] = counts(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module("whirlknight")]
        modules += [importlib.import_module(f"whirlknight.{layer}") for layer in LAYERS]
        swapped = []
        try:
            for layer, fns in TRACED.items():
                home = importlib.import_module(f"whirlknight.{layer}")
                for fname, counts in fns.items():
                    orig = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", orig, counts)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                swapped.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(swapped):
                setattr(mod, attr, orig)

    def write(self, path: Path, t0: float) -> None:
        """All spans as JSON, with times in seconds since t0."""
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


def duration(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer (the span name's first part): span time not covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for k, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(s) - child[k]
    return out
