"""Deterministic ASCII and SVG board diagrams.

A RenderSpec is a board size plus an ordered list of layers (cell fills,
arcs, the plumb-line marker, the pivot marker).  Rendering is a pure
function of the spec: byte-identical output for identical input.  SVG
places the centre of cell (i, j) at (j + 0.5, i + 0.5) board units from
the top-left corner, rows growing downward, so diagrams read like the
board itself.
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
    "PlumbLineLayer",
    "PivotLayer",
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
    tag: str  # alpha_pos | alpha_neg | beta_pos | beta_neg | excluded


@dataclass(frozen=True)
class ArcLayer:
    arcs: tuple[tuple[Cell, Cell], ...]
    tag: str  # arc | crossing


@dataclass(frozen=True)
class PathLayer:
    """Cells in visiting order; ASCII shows the visit index per cell."""

    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class PlumbLineLayer:
    pass


@dataclass(frozen=True)
class PivotLayer:
    pass


Layer = Union[CellLayer, ArcLayer, PathLayer, PlumbLineLayer, PivotLayer]


@dataclass(frozen=True)
class RenderSpec:
    n: int
    layers: tuple[Layer, ...]
    format: str = "ascii"  # ascii | svg


def board_spec(n: int, fmt: str = "ascii") -> RenderSpec:
    geom = BoardGeometry(n)
    layers: list[Layer] = []
    centre = geom.centre_cell()
    if centre is not None:
        layers.append(CellLayer(cells=(centre,), tag="excluded"))
    layers += [PlumbLineLayer(), PivotLayer()]
    return RenderSpec(n=n, layers=tuple(layers), format=fmt)


def digraph_spec(g: WhirlDigraph, fmt: str = "ascii") -> RenderSpec:
    vs = g.vertices
    plain = tuple((vs[t], vs[h]) for t, h, x in zip(g.tail, g.head, g.w) if x == 0)
    crossing = tuple((vs[t], vs[h]) for t, h, x in zip(g.tail, g.head, g.w) if x == 1)
    base = board_spec(g.n, fmt)
    layers = base.layers[:-2] + (
        ArcLayer(arcs=plain, tag="arc"),
        ArcLayer(arcs=crossing, tag="crossing"),
        PlumbLineLayer(),
        PivotLayer(),
    )
    return RenderSpec(n=g.n, layers=layers, format=fmt)


def _signed_cells(support: dict[Cell, int], positive: bool) -> tuple[Cell, ...]:
    return tuple(sorted(c for c, x in support.items() if x and (x > 0) == positive))


def certificate_spec(cert: FarkasCertificate, fmt: str = "ascii") -> RenderSpec:
    base = board_spec(cert.n, fmt)
    layers = base.layers[:-2] + (
        CellLayer(cells=_signed_cells(cert.alpha, False), tag="alpha_neg"),
        CellLayer(cells=_signed_cells(cert.alpha, True), tag="alpha_pos"),
        CellLayer(cells=_signed_cells(cert.beta, False), tag="beta_neg"),
        CellLayer(cells=_signed_cells(cert.beta, True), tag="beta_pos"),
        PlumbLineLayer(),
        PivotLayer(),
    )
    return RenderSpec(n=cert.n, layers=layers, format=fmt)


def tour_spec(g: WhirlDigraph, tour: Tour, fmt: str = "ascii") -> RenderSpec:
    nc = len(tour.cells)
    steps = [(tour.cells[k], tour.cells[(k + 1) % nc]) for k in range(nc)]
    crossing = [g.w[a] for a in g.step_arcs(steps)]
    base = board_spec(g.n, fmt)
    layers = base.layers[:-2] + (
        ArcLayer(arcs=tuple(s for s, w in zip(steps, crossing) if not w), tag="arc"),
        ArcLayer(arcs=tuple(s for s, w in zip(steps, crossing) if w), tag="crossing"),
        PathLayer(cells=tour.cells),
        PlumbLineLayer(),
        PivotLayer(),
    )
    return RenderSpec(n=g.n, layers=layers, format=fmt)


def render(spec: RenderSpec) -> str:
    geom = BoardGeometry(spec.n)
    for layer in spec.layers:
        refs: tuple = ()
        if isinstance(layer, CellLayer):
            refs = layer.cells
        elif isinstance(layer, PathLayer):
            refs = layer.cells
        elif isinstance(layer, ArcLayer):
            refs = tuple(c for arc in layer.arcs for c in arc)
        for c in refs:
            if not geom.on_board(c):
                raise ValueError(f"layer references off-board cell {tuple(c)}")
    if spec.format == "ascii":
        return _render_ascii(spec)
    if spec.format == "svg":
        return _render_svg(spec)
    raise ValueError(f"unknown render format {spec.format!r}")


# ---------------------------------------------------------------- ascii

def _render_ascii(spec: RenderSpec) -> str:
    n = spec.n
    path = next((ly for ly in spec.layers if isinstance(ly, PathLayer)), None)
    arc_layers = [ly for ly in spec.layers if isinstance(ly, ArcLayer)]
    cert_layers = [
        ly for ly in spec.layers if isinstance(ly, CellLayer) and ly.tag != "excluded"
    ]
    excluded = {
        c
        for ly in spec.layers
        if isinstance(ly, CellLayer) and ly.tag == "excluded"
        for c in ly.cells
    }
    has_plumb = any(isinstance(ly, PlumbLineLayer) for ly in spec.layers)
    has_pivot = any(isinstance(ly, PivotLayer) for ly in spec.layers)

    if path is not None:
        width = max(2, len(str(len(path.cells) - 1)))
        tokens = {c: "." * width for c in _board_cells(n)}
        for k, c in enumerate(path.cells):
            tokens[c] = str(k).rjust(width)
    elif cert_layers:
        width = 2
        alpha: dict[Cell, str] = {}
        beta: dict[Cell, str] = {}
        for layer in cert_layers:
            for c in layer.cells:
                if layer.tag == "alpha_pos":
                    alpha[c] = "A"
                elif layer.tag == "alpha_neg":
                    alpha[c] = "a"
                elif layer.tag == "beta_pos":
                    beta[c] = "B"
                elif layer.tag == "beta_neg":
                    beta[c] = "b"
        tokens = {
            c: alpha.get(c, ".") + beta.get(c, ".") for c in _board_cells(n)
        }
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

    for c in excluded:
        tokens[c] = "#" * width

    lines = []
    for i in range(n):
        seps = [" "] * (n - 1)
        if has_plumb:
            if n % 2 == 0 and i < n // 2:
                seps[n // 2 - 1] = "|"
            elif n % 2 == 1 and 2 * i < n - 1:
                q = (n - 1) // 2
                if q - 1 >= 0:
                    seps[q - 1] = "|"
                if q < n - 1:
                    seps[q] = "|"
        row = tokens[Cell(i, 0)]
        for j in range(1, n):
            row += seps[j - 1] + tokens[Cell(i, j)]
        lines.append(row)
        if has_pivot and n % 2 == 0 and i == n // 2 - 1:
            offset = (n // 2) * width + (n // 2 - 1)
            lines.append(" " * offset + "+")
    return "\n".join(lines) + "\n"


def _board_cells(n: int) -> list[Cell]:
    return [Cell(i, j) for i in range(n) for j in range(n)]


# ------------------------------------------------------------------ svg

_SCALE = 40
_MARGIN = 20

_FILL = {
    "alpha_pos": "#1f5fa8",
    "alpha_neg": "#aecbe8",
    "excluded": "#bbbbbb",
}
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


def _render_svg(spec: RenderSpec) -> str:
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

    for layer in spec.layers:
        if isinstance(layer, CellLayer) and layer.tag in _FILL:
            for c in layer.cells:
                x, y = _xy(c)
                out.append(
                    f'<rect x="{x}" y="{y}" width="{_SCALE}" height="{_SCALE}" '
                    f'fill="{_FILL[layer.tag]}"/>'
                )
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

    mid = _MARGIN + n * _SCALE // 2
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
        elif isinstance(layer, PlumbLineLayer):
            out.append(
                f'<line x1="{mid}" y1="{_MARGIN}" x2="{mid}" y2="{mid}" '
                'stroke="#555555" stroke-width="2" stroke-dasharray="6,4"/>'
            )
        elif isinstance(layer, PivotLayer):
            out.append(f'<circle cx="{mid}" cy="{mid}" r="5" fill="#000000"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
