"""Command-line entry points.

Subcommands: ``digraph``, ``cert``, ``lp``, ``tour``, ``render``.  All
output is line-oriented key=value pairs or JSON; search progress goes to
stderr as key=value lines.  Exit codes follow one contract everywhere:
0 = positive result (valid / feasible / found), 1 = definite negative,
2 = usage, data or internal error.  Commands reach the library through
``whirlknight``'s lazy names (``wk.build_digraph``, ``wk.tours``), which load
a layer on first use, so a command loads only its own layers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import whirlknight as wk

__all__ = ["main"]


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _summary(line: str, out: str | None) -> None:
    """Print a result line; with ``--out -`` it goes to stderr, so stdout holds only the JSON."""
    print(line, file=sys.stderr if out == "-" else sys.stdout)


def cmd_digraph(args: argparse.Namespace) -> int:
    g = wk.build_digraph(args.n)
    _summary(f"n={g.n} vertices={g.geometry.vertex_count} arcs={len(g.w)} "
             f"crossing_arcs={len(g.crossing)}", args.out)
    if args.out:
        _write_or_print(wk.digraph_to_json(g), args.out)
    return 0


def _require_n(given: int | None, n: int, what: str) -> None:
    if given is not None and given != n:
        raise ValueError(f"--n {given} contradicts the {what}'s n={n}")


def _family_certificate(args: argparse.Namespace):
    if args.family == "n3":
        cert = wk.build_n3_certificate()
    elif args.family == "file":
        if not args.infile:
            raise ValueError("--in is required for family file")
        cert = wk.certificate_from_json(Path(args.infile).read_text())
    else:
        if args.n is None:
            raise ValueError(f"--n is required for family {args.family}")
        cert = getattr(wk, f"build_{args.family}")(args.n)  # looked up per call, as a tracer may swap it
    _require_n(args.n, cert.n, "certificate")
    if args.c is not None:
        cert = dataclasses.replace(cert, c=args.c)
    return cert


def cmd_cert_build(args: argparse.Namespace) -> int:
    _write_or_print(wk.certificate_to_json(_family_certificate(args)), args.out)
    return 0


def cmd_cert_verify(args: argparse.Namespace) -> int:
    if args.infile and args.family != "file":
        raise ValueError("--in is read only with --family file")
    if args.family in wk.FAMILIES and args.n is not None:  # an n the digraph refuses, before the O(n) build
        wk.certificates._require_residue(args.n, args.family)
        wk.geometry._bounded_board(args.n)
    cert = _family_certificate(args)
    report = wk.verify_certificate(wk.build_digraph(cert.n), cert)
    print(f"valid={str(report.valid).lower()} rhs={report.rhs} "
          f"max_lhs={report.max_lhs} violations={len(report.violations)}")
    for arc, lhs in report.violations[:10]:
        print(f"violation arc={tuple(arc.tail)}->{tuple(arc.head)} w={arc.w} lhs={lhs}")
    return 0 if report.valid else 1


def cmd_lp(args: argparse.Namespace) -> int:
    decision = wk.lp_feasible(wk.build_digraph(args.n), args.c)
    sys.stdout.write(wk.lp_decision_to_json(decision))
    return 0 if decision.feasible else 1


class _InvalidTour(ValueError):
    """A tour file that parses but holds no tour of its board."""


def _file_tour(n: int, cells, coil: int | None, given_n: int | None):
    """A parsed tour file's digraph and verified tour; a coil the file claims must be the tour's.

    The digraph is built first, so an n that is no board, or one above the size limit,
    is an error (exit 2) whatever the cells hold.
    """
    _require_n(given_n, n, "tour")
    g = wk.build_digraph(n)  # outside the try: a bad n is an error, not an invalid tour
    try:
        tour = wk.verify_tour(g, cells)
    except ValueError as exc:
        raise _InvalidTour(exc) from exc
    if coil is not None and coil != tour.coil:
        raise _InvalidTour(f"the file claims coil={coil}, the tour has coil={tour.coil}")
    return g, tour


def cmd_tour_verify(args: argparse.Namespace) -> int:
    n, cells, coil = wk.tour_from_json(Path(args.infile).read_text())
    try:
        _, tour = _file_tour(n, cells, coil, args.n)
    except _InvalidTour as exc:
        print(f"valid=false error={json.dumps(str(exc))}")
        return 1
    print(f"valid=true n={n} coil={tour.coil}")
    return 0


def cmd_tour_search(args: argparse.Namespace) -> int:
    g = wk.build_digraph(args.n)
    stats = wk.SearchStats()

    def progress(nodes: int, depth: int) -> None:
        print(f"nodes={nodes} depth={depth}", file=sys.stderr)

    tour = wk.search_tour(
        g,
        coil_target=args.coil,
        budget=args.budget,
        seed=args.seed,
        progress=progress,
        stats=stats,
    )
    if tour is None:
        _summary(f"found=false nodes={stats.nodes} exhausted={str(stats.exhausted).lower()}",
                 args.out)
        return 1
    _summary(f"found=true nodes={stats.nodes} coil={tour.coil}", args.out)
    if args.out:
        _write_or_print(wk.tour_to_json(g.n, tour), args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import render  # not a lazy name of the package, whose render() would clash with the module

    if args.infile:
        doc = wk.geometry._load_doc(Path(args.infile).read_text())  # parsed once: its keys pick the reader
        keys = doc if isinstance(doc, dict) else {}
        if "arcs" in keys:
            g = wk.digraph._digraph_from_doc(doc)
            _require_n(args.n, g.n, "digraph")
            spec = render.digraph_spec(g, args.format)
        elif "gamma" in keys:
            cert = wk.certificates._certificate_from_doc(doc)
            _require_n(args.n, cert.n, "certificate")
            spec = render.certificate_spec(cert, args.format)
        elif "cells" in keys:
            n, cells, coil = wk.tours._tour_from_doc(doc)
            spec = render.tour_spec(*_file_tour(n, cells, coil, args.n), args.format)
        else:
            raise ValueError("cannot identify input file")
    elif args.n is None:
        raise ValueError("render needs --in or --n")
    else:
        spec = render.board_spec(args.n, args.format)
    _write_or_print(render.render(spec), args.out)
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
    actions = p.add_subparsers(dest="action", required=True)
    build = actions.add_parser("build", help="write a family's certificate as JSON")
    verify = actions.add_parser("verify", help="check a certificate on its board")
    build.add_argument("--family", choices=[*wk.FAMILIES, "n3"], required=True)
    verify.add_argument("--family", choices=[*wk.FAMILIES, "n3", "file"], required=True)
    for a in (build, verify):
        a.add_argument("--n", type=int)
        a.add_argument("--c", type=int, help="override the certificate's coil count")
    build.add_argument("--out")
    build.set_defaults(func=cmd_cert_build)
    verify.add_argument("--in", dest="infile")
    verify.set_defaults(func=cmd_cert_verify)

    p = sub.add_parser("lp", help="decide cycle-cover LP feasibility exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("tour", help="search for or verify whirling tours")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("search", help="search for a tour")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--coil", type=int)
    a.add_argument("--budget", type=int, default=1_000_000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out")
    a.set_defaults(func=cmd_tour_search)
    a = actions.add_parser("verify", help="verify a tour file")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--n", type=int)
    a.set_defaults(func=cmd_tour_verify)

    p = sub.add_parser("render", help="draw boards, digraphs, certificates, tours")
    p.add_argument("--in", dest="infile")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
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
