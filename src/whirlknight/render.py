"""Deterministic ASCII and SVG board diagrams.

A RenderSpec is a board size, an output format and the data drawn on the
board: a certificate's alpha/beta entries, arcs as (tail, head, w) and a
path of cells.  Each view marks only the cells it names; every other cell
is drawn blank.  The board frame (the excluded centre on odd n, the grid,
the north plumb-line and the pivot) is not data: render always draws it.
Rendering is a pure function of the spec: byte-identical output for
identical input.  SVG places the centre of cell (i, j) at
(j + 0.5, i + 0.5) board units from the top-left corner, rows growing
downward, so diagrams read like the board itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .geometry import Cell, _bounded_board

if TYPE_CHECKING:  # annotations only, so drawing a board loads no other layer
    from .certificates import FarkasCertificate
    from .digraph import WhirlDigraph
    from .tours import Tour

__all__ = [
    "RenderSpec",
    "board_spec",
    "digraph_spec",
    "certificate_spec",
    "tour_spec",
    "render",
]


@dataclass(frozen=True)
class RenderSpec:
    """What to draw on an n×n board; render adds the board frame.

    ``cert`` is a certificate's (alpha, beta) entries, or None when no
    certificate is drawn; cells a view does not mark are drawn blank.
    ``arcs`` are (tail, head, w) with w = 1 on a plumb-line crossing;
    ``path`` holds cells in visiting order.
    """

    n: int
    format: str = "ascii"  # ascii | svg
    cert: tuple[dict[Cell, int], dict[Cell, int]] | None = None
    arcs: tuple[tuple[Cell, Cell, int], ...] = ()
    path: tuple[Cell, ...] = ()


def board_spec(n: int, fmt: str = "ascii") -> RenderSpec:
    return RenderSpec(n, fmt)


def digraph_spec(g: WhirlDigraph, fmt: str = "ascii") -> RenderSpec:
    """Every arc of g; an arc end outside ``range(vertex_count)`` raises ``ValueError``."""
    tail, head = g.ends
    vs = g.vertices
    arcs = tuple((vs[t], vs[h], x) for t, h, x in zip(tail, head, g.w))
    return RenderSpec(g.n, fmt, arcs=arcs)


def certificate_spec(cert: FarkasCertificate, fmt: str = "ascii") -> RenderSpec:
    return RenderSpec(cert.n, fmt, cert=(cert.alpha, cert.beta))


def tour_spec(g: WhirlDigraph, tour: Tour, fmt: str = "ascii") -> RenderSpec:
    """The tour's path and arcs; a tour of another digraph raises ``ValueError``."""
    from .tours import _tour_arcs  # the only use of tours here

    cells, ids = _tour_arcs(g, tour.cells)
    return RenderSpec(g.n, fmt, arcs=tuple(g.arc(a)[:3] for a in ids), path=cells)


def render(spec: RenderSpec) -> str:
    geom = _bounded_board(spec.n)  # n above _MAX_SIDE raises before any drawing
    alpha, beta = spec.cert or ({}, {})
    for c in chain(alpha, beta, (c for t, h, _ in spec.arcs for c in (t, h)), spec.path):
        geom.index(c)  # raises on a cell that is not a vertex
    if spec.format == "ascii":
        return _render_ascii(spec, geom.centre_cell())
    if spec.format == "svg":
        return _render_svg(spec, geom.centre_cell())
    raise ValueError(f"unknown render format {spec.format!r}")


# ---------------------------------------------------------------- ascii

def _sign(x: int, neg: str, pos: str) -> str:
    return pos if x > 0 else neg if x < 0 else "."


def _render_ascii(spec: RenderSpec, centre: Cell | None) -> str:
    n = spec.n
    if spec.path:
        width = max(2, len(str(len(spec.path) - 1)))
        tokens = {c: str(k).rjust(width) for k, c in enumerate(spec.path)}
    elif spec.cert is not None:
        # alpha's sign in the first slot, beta's in the second
        width = 2
        alpha, beta = spec.cert
        tokens = {c: _sign(alpha.get(c, 0), "a", "A") + _sign(beta.get(c, 0), "b", "B")
                  for c in chain(alpha, beta)}
    else:
        # Each tail shows its out-degree, one digit.
        width = 1
        tokens = {c: str(d) for c, d in Counter(t for t, _, _ in spec.arcs).items()}

    if centre is not None:
        tokens[centre] = "#" * width

    # The plumb-line runs north from the pivot between the middle columns;
    # on odd boards it splits around the excluded centre column.
    blank = "." * width
    half = n // 2
    lines = []
    for i in range(n):
        row = tokens.get(Cell(i, 0), blank)
        for j in range(1, n):
            sep = "|" if i < half <= j <= half + n % 2 else " "
            row += sep + tokens.get(Cell(i, j), blank)
        lines.append(row)
        if n % 2 == 0 and i == half - 1:
            lines.append(" " * (half * width + half - 1) + "+")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ svg

_SCALE = 40
_MARGIN = 20

_FILL = ("#aecbe8", "#1f5fa8")  # alpha < 0, alpha > 0
_EXCLUDED = "#bbbbbb"
_INSET = ("#f2c894", "#d97706")  # beta < 0, beta > 0


def _xy(c: Cell) -> tuple[int, int]:
    return (_MARGIN + c[1] * _SCALE, _MARGIN + c[0] * _SCALE)  # by position: plain tuples too


def _centre(c: Cell) -> tuple[int, int]:
    x, y = _xy(c)
    return (x + _SCALE // 2, y + _SCALE // 2)


def _fill_rect(c: Cell, fill: str) -> str:
    x, y = _xy(c)
    return f'<rect x="{x}" y="{y}" width="{_SCALE}" height="{_SCALE}" fill="{fill}"/>'


def _render_svg(spec: RenderSpec, centre: Cell | None) -> str:
    n = spec.n
    size = n * _SCALE + 2 * _MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        '<defs>'
        '<marker id="arrow-plain" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#222222"/></marker>'
        '<marker id="arrow-cross" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#cc2222"/></marker>'
        "</defs>",
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if centre is not None:
        out.append(_fill_rect(centre, _EXCLUDED))

    alpha, beta = spec.cert or ({}, {})
    for positive, c in sorted((x > 0, c) for c, x in alpha.items() if x):
        out.append(_fill_rect(c, _FILL[positive]))
    for positive, c in sorted((x > 0, c) for c, x in beta.items() if x):
        x, y = _xy(c)
        out.append(
            f'<rect x="{x + 4}" y="{y + 4}" width="{_SCALE - 8}" '
            f'height="{_SCALE - 8}" fill="none" '
            f'stroke="{_INSET[positive]}" stroke-width="4"/>'
        )

    # grid above fills, below arcs
    for k in range(n + 1):
        a = _MARGIN + k * _SCALE
        b = _MARGIN + n * _SCALE
        out.append(
            f'<line x1="{_MARGIN}" y1="{a}" x2="{b}" y2="{a}" stroke="#999999" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{a}" y1="{_MARGIN}" x2="{a}" y2="{b}" stroke="#999999" stroke-width="1"/>'
        )

    # plain arcs first, crossing arcs drawn over them
    for crossing, stroke, marker in ((False, "#222222", "arrow-plain"),
                                     (True, "#cc2222", "arrow-cross")):
        for tail, head, w in spec.arcs:
            if bool(w) == crossing:
                x1, y1 = _centre(tail)
                x2, y2 = _centre(head)
                out.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="{stroke}" stroke-width="2" marker-end="url(#{marker})"/>'
                )
    mid = _MARGIN + n * _SCALE // 2
    out += [
        f'<line x1="{mid}" y1="{_MARGIN}" x2="{mid}" y2="{mid}" '
        'stroke="#555555" stroke-width="2" stroke-dasharray="6,4"/>',
        f'<circle cx="{mid}" cy="{mid}" r="5" fill="#000000"/>',
        "</svg>",
    ]
    return "\n".join(out) + "\n"
