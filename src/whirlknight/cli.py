"""Command-line entry points.

Subcommands: ``digraph``, ``cert``, ``lp``, ``tour``, ``render``.  All
output is line-oriented key=value pairs or JSON; search progress goes to
stderr as key=value lines.  Exit codes follow one contract everywhere:
0 = positive result (valid / feasible / found), 1 = definite negative,
2 = usage, data or internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .certificates import (
    build_n3_certificate,
    build_t1,
    build_t2,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from .digraph import build_digraph, digraph_from_json, digraph_to_json
from .polytope import lp_decision_to_json, lp_feasible
from .render import board_spec, certificate_spec, digraph_spec, render, tour_spec
from .tours import SearchStats, search_tour, tour_from_json, tour_to_json, verify_tour

__all__ = ["main"]


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_digraph(args: argparse.Namespace) -> int:
    g = build_digraph(args.n)
    print(f"n={g.n} vertices={len(g.vertices)} arcs={len(g.w)} "
          f"crossing_arcs={sum(g.w)}")
    if args.out:
        _write_or_print(digraph_to_json(g), args.out)
    return 0


def _family_certificate(args: argparse.Namespace):
    if args.family == "t1":
        if args.n is None:
            raise ValueError("--n is required for family t1")
        cert = build_t1(args.n)
    elif args.family == "t2":
        if args.n is None:
            raise ValueError("--n is required for family t2")
        cert = build_t2(args.n)
    elif args.family == "n3":
        cert = build_n3_certificate()
    else:
        if not args.infile:
            raise ValueError("--in is required for family file")
        cert = certificate_from_json(Path(args.infile).read_text())
    if args.n is not None and args.n != cert.n:
        raise ValueError(f"--n {args.n} contradicts the certificate's n={cert.n}")
    if args.c is not None:
        cert = dataclasses.replace(cert, c=args.c)
    return cert


def cmd_cert(args: argparse.Namespace) -> int:
    if args.action == "build":
        if args.family == "file":
            raise ValueError("cannot build family 'file'; use t1, t2 or n3")
        cert = _family_certificate(args)
        _write_or_print(certificate_to_json(cert), args.out)
        return 0
    cert = _family_certificate(args)
    report = verify_certificate(build_digraph(cert.n), cert)
    print(f"valid={str(report.valid).lower()} rhs={report.rhs} "
          f"max_lhs={report.max_lhs} violations={len(report.violations)}")
    for arc, lhs in report.violations[:10]:
        print(f"violation arc={tuple(arc.tail)}->{tuple(arc.head)} w={arc.w} lhs={lhs}")
    return 0 if report.valid else 1


def cmd_lp(args: argparse.Namespace) -> int:
    g = build_digraph(args.n)
    decision = lp_feasible(g, args.c)
    sys.stdout.write(lp_decision_to_json(decision))
    return 0 if decision.feasible else 1


def cmd_tour(args: argparse.Namespace) -> int:
    if args.action == "verify":
        if not args.infile:
            raise ValueError("tour verify requires --in")
        n, cells = tour_from_json(Path(args.infile).read_text())
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} contradicts the tour's n={n}")
        g = build_digraph(n)
        try:
            tour = verify_tour(g, cells)
        except ValueError as exc:
            print(f"valid=false error={json.dumps(str(exc))}")
            return 1
        print(f"valid=true n={n} coil={tour.coil}")
        return 0

    g = build_digraph(args.n)
    stats = SearchStats()

    def progress(nodes: int, depth: int) -> None:
        print(f"nodes={nodes} depth={depth}", file=sys.stderr)

    tour = search_tour(
        g,
        coil_target=args.coil,
        budget=args.budget,
        seed=args.seed,
        progress=progress,
        stats=stats,
    )
    print(f"nodes={stats.nodes} exhausted={str(stats.exhausted).lower()}",
          file=sys.stderr)
    if tour is None:
        print(f"found=false nodes={stats.nodes} exhausted={str(stats.exhausted).lower()}")
        return 1
    print(f"found=true nodes={stats.nodes} coil={tour.coil}")
    if args.out:
        _write_or_print(tour_to_json(g.n, tour), args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    if args.infile:
        text = Path(args.infile).read_text()
        doc = json.loads(text)
        source = args.source
        if source == "auto":
            keys = doc if isinstance(doc, dict) else {}
            if "arcs" in keys:
                source = "digraph"
            elif "gamma" in keys:
                source = "cert"
            elif "cells" in keys:
                source = "tour"
            else:
                raise ValueError("cannot identify input file; pass --source")
        if source == "digraph":
            spec = digraph_spec(digraph_from_json(text), args.format)
        elif source == "cert":
            spec = certificate_spec(certificate_from_json(text), args.format)
        else:
            n, cells = tour_from_json(text)
            g = build_digraph(n)
            spec = tour_spec(g, verify_tour(g, cells), args.format)
    else:
        if args.n is None:
            raise ValueError("render needs --in or --n")
        spec = board_spec(args.n, args.format)
    _write_or_print(render(spec), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="whirlknight",
        description="Whirling knight's tour toolkit: digraphs, Farkas "
        "certificates, LP feasibility, tour search and diagrams.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digraph", help="build the CCW knight digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser("cert", help="build or verify Farkas certificates")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--family", choices=["t1", "t2", "n3", "file"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int, help="override the certificate's coil count")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cert)

    p = sub.add_parser("lp", help="decide cycle-cover LP feasibility exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("tour", help="search for or verify whirling tours")
    p.add_argument("action", choices=["search", "verify"])
    p.add_argument("--n", type=int)
    p.add_argument("--coil", type=int)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("render", help="draw boards, digraphs, certificates, tours")
    p.add_argument("--in", dest="infile")
    p.add_argument("--source", choices=["auto", "digraph", "cert", "tour"], default="auto")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.func is cmd_tour and args.action == "search" and args.n is None:
        print("error: tour search requires --n", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A failed self-check, RecursionError or MemoryError decides nothing;
        # exit 1 is reserved for definite negatives.
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
