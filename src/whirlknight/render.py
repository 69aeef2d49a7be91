"""Deterministic ASCII and SVG board diagrams.

A RenderSpec is a board size plus an ordered list of layers: cell signs,
arcs and a path.  The board frame (the excluded centre on odd n, the
grid, the north plumb-line and the pivot) is not a layer: render always
draws it.  Rendering is a pure function of the spec: byte-identical
output for identical input.  SVG places the centre of cell (i, j) at
(j + 0.5, i + 0.5) board units from the top-left corner, rows growing
downward, so diagrams read like the board itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .certificates import FarkasCertificate
from .digraph import WhirlDigraph
from .geometry import BoardGeometry, Cell
from .tours import Tour

__all__ = [
    "CellLayer",
    "ArcLayer",
    "PathLayer",
    "RenderSpec",
    "board_spec",
    "digraph_spec",
    "certificate_spec",
    "tour_spec",
    "render",
]


@dataclass(frozen=True)
class CellLayer:
    cells: tuple[Cell, ...]
    tag: str  # alpha_pos | alpha_neg | beta_pos | beta_neg


@dataclass(frozen=True)
class ArcLayer:
    arcs: tuple[tuple[Cell, Cell], ...]
    tag: str  # arc | crossing


@dataclass(frozen=True)
class PathLayer:
    """Cells in visiting order; ASCII shows the visit index per cell."""

    cells: tuple[Cell, ...]


Layer = Union[CellLayer, ArcLayer, PathLayer]


@dataclass(frozen=True)
class RenderSpec:
    """Cell signs, arcs and a path on an n×n board; render adds the board frame."""

    n: int
    layers: tuple[Layer, ...]
    format: str = "ascii"  # ascii | svg


def board_spec(n: int, fmt: str = "ascii") -> RenderSpec:
    return RenderSpec(n, (), fmt)


def _arc_layers(steps, weights) -> tuple[ArcLayer, ArcLayer]:
    """Split (tail, head) steps into the plain and the crossing arc layer by weight."""
    return (
        ArcLayer(arcs=tuple(s for s, w in zip(steps, weights) if not w), tag="arc"),
        ArcLayer(arcs=tuple(s for s, w in zip(steps, weights) if w), tag="crossing"),
    )


def digraph_spec(g: WhirlDigraph, fmt: str = "ascii") -> RenderSpec:
    vs = g.vertices
    steps = [(vs[t], vs[h]) for t, h in zip(g.tail, g.head)]
    return RenderSpec(g.n, _arc_layers(steps, g.w), fmt)


def _signed_cells(support: dict[Cell, int], positive: bool) -> tuple[Cell, ...]:
    return tuple(sorted(c for c, x in support.items() if x and (x > 0) == positive))


def certificate_spec(cert: FarkasCertificate, fmt: str = "ascii") -> RenderSpec:
    layers = (
        CellLayer(cells=_signed_cells(cert.alpha, False), tag="alpha_neg"),
        CellLayer(cells=_signed_cells(cert.alpha, True), tag="alpha_pos"),
        CellLayer(cells=_signed_cells(cert.beta, False), tag="beta_neg"),
        CellLayer(cells=_signed_cells(cert.beta, True), tag="beta_pos"),
    )
    return RenderSpec(cert.n, layers, fmt)


def tour_spec(g: WhirlDigraph, tour: Tour, fmt: str = "ascii") -> RenderSpec:
    nc = len(tour.cells)
    steps = [(tour.cells[k], tour.cells[(k + 1) % nc]) for k in range(nc)]
    weights = [g.w[a] for a in g.step_arcs(steps)]
    layers = _arc_layers(steps, weights) + (PathLayer(cells=tour.cells),)
    return RenderSpec(g.n, layers, fmt)


def render(spec: RenderSpec) -> str:
    geom = BoardGeometry(spec.n)
    for layer in spec.layers:
        if isinstance(layer, ArcLayer):
            refs = (c for arc in layer.arcs for c in arc)
        else:
            refs = layer.cells
        for c in refs:
            if not geom.on_board(c):
                raise ValueError(f"layer references off-board cell {tuple(c)}")
    if spec.format == "ascii":
        return _render_ascii(spec, geom.centre_cell())
    if spec.format == "svg":
        return _render_svg(spec, geom.centre_cell())
    raise ValueError(f"unknown render format {spec.format!r}")


# ---------------------------------------------------------------- ascii

# Certificate cell token: alpha's sign in the first slot, beta's in the second.
_CERT_TOKEN = {
    "alpha_pos": (0, "A"),
    "alpha_neg": (0, "a"),
    "beta_pos": (1, "B"),
    "beta_neg": (1, "b"),
}


def _render_ascii(spec: RenderSpec, centre: Cell | None) -> str:
    n = spec.n
    path = next((ly for ly in spec.layers if isinstance(ly, PathLayer)), None)
    arc_layers = [ly for ly in spec.layers if isinstance(ly, ArcLayer)]
    cert_layers = [ly for ly in spec.layers if isinstance(ly, CellLayer)]

    if path is not None:
        width = max(2, len(str(len(path.cells) - 1)))
        tokens = {c: "." * width for c in _board_cells(n)}
        for k, c in enumerate(path.cells):
            tokens[c] = str(k).rjust(width)
    elif cert_layers:
        width = 2
        marks = {c: [".", "."] for c in _board_cells(n)}
        for layer in cert_layers:
            if layer.tag in _CERT_TOKEN:
                slot, letter = _CERT_TOKEN[layer.tag]
                for c in layer.cells:
                    marks[c][slot] = letter
        tokens = {c: "".join(m) for c, m in marks.items()}
    elif arc_layers:
        # Out-degree per cell, crossing arcs counted separately is overkill:
        # a single digit per cell keeps the diagram legible.
        width = 1
        outdeg = {c: 0 for c in _board_cells(n)}
        for layer in arc_layers:
            for tail, _ in layer.arcs:
                outdeg[tail] += 1
        tokens = {c: str(d) if d else "." for c, d in outdeg.items()}
    else:
        width = 1
        tokens = {c: "." for c in _board_cells(n)}

    if centre is not None:
        tokens[centre] = "#" * width

    # The plumb-line runs north from the pivot between the middle columns;
    # on odd boards it splits around the excluded centre column.
    half = n // 2
    lines = []
    for i in range(n):
        seps = [" "] * (n - 1)
        if i < half:
            seps[half - 1] = "|"
            if n % 2:
                seps[half] = "|"
        row = tokens[Cell(i, 0)]
        for j in range(1, n):
            row += seps[j - 1] + tokens[Cell(i, j)]
        lines.append(row)
        if n % 2 == 0 and i == half - 1:
            lines.append(" " * (half * width + half - 1) + "+")
    return "\n".join(lines) + "\n"


def _board_cells(n: int) -> list[Cell]:
    return [Cell(i, j) for i in range(n) for j in range(n)]


# ------------------------------------------------------------------ svg

_SCALE = 40
_MARGIN = 20

_FILL = {
    "alpha_pos": "#1f5fa8",
    "alpha_neg": "#aecbe8",
}
_EXCLUDED = "#bbbbbb"
_INSET = {
    "beta_pos": "#d97706",
    "beta_neg": "#f2c894",
}
_STROKE = {
    "arc": "#222222",
    "crossing": "#cc2222",
}


def _xy(c: Cell) -> tuple[int, int]:
    return (_MARGIN + c.j * _SCALE, _MARGIN + c.i * _SCALE)


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

    for layer in spec.layers:
        if isinstance(layer, CellLayer) and layer.tag in _FILL:
            out += [_fill_rect(c, _FILL[layer.tag]) for c in layer.cells]
        elif isinstance(layer, CellLayer) and layer.tag in _INSET:
            for c in layer.cells:
                x, y = _xy(c)
                out.append(
                    f'<rect x="{x + 4}" y="{y + 4}" width="{_SCALE - 8}" '
                    f'height="{_SCALE - 8}" fill="none" '
                    f'stroke="{_INSET[layer.tag]}" stroke-width="4"/>'
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

    for layer in spec.layers:
        if isinstance(layer, ArcLayer):
            stroke = _STROKE.get(layer.tag, "#222222")
            marker = "arrow-cross" if layer.tag == "crossing" else "arrow-plain"
            for tail, head in layer.arcs:
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
