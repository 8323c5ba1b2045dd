"""SVG and ASCII views of delimitation results.

Constituency boundaries are traced along cell edges: every unit edge between
a constituency cell and a cell outside the constituency (or the grid
exterior) is kept, edges interior to the constituency cancel out, and the
survivors are chained into closed loops. Merged, non-rectangular
constituencies therefore render as a single outline with no interior lines.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .popgrid import DotGrid, encode_labels
from .quadtree import Constituency, DelimitationResult, paint_cells

SVG_NS = "http://www.w3.org/2000/svg"
# render_svg writes one <circle> per dot; above this many it refuses to draw them.
MAX_SVG_DOTS = 2**24


@dataclass(frozen=True)
class RenderStyle:
    cell_size_px: int = 24
    constituency_color: str = "black"
    constituency_width: int = 2
    state_color: str = "blue"
    state_width: int = 3
    dot_radius_px: int = 3
    draw_dots: bool = True
    background: str = "white"

    def __post_init__(self):
        if self.cell_size_px < 1:
            raise ValueError("cell_size_px must be >= 1")
        if self.constituency_width < 1 or self.state_width < 1:
            raise ValueError("stroke widths must be >= 1")


def boundary_loops(cells: set[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Chain the outer edges of a cell set into closed loops of corner vertices.

    Edges are oriented so the interior stays on the right of the walking
    direction; loops come out clockwise in image coordinates, ordered by and
    starting at their topmost-leftmost vertex. A loop lists only the vertices
    where it turns, so a straight run of edges gives its two end corners.
    """
    # vertex -> outgoing (to-vertex, direction); directions in screen
    # coordinates, y down: 0 right, 1 down, 2 left, 3 up.
    outgoing: defaultdict[tuple[int, int], list] = defaultdict(list)
    for (x, y) in cells:
        if (x, y - 1) not in cells:
            outgoing[(x, y)].append(((x + 1, y), 0))
        if (x + 1, y) not in cells:
            outgoing[(x + 1, y)].append(((x + 1, y + 1), 1))
        if (x, y + 1) not in cells:
            outgoing[(x + 1, y + 1)].append(((x, y + 1), 2))
        if (x - 1, y) not in cells:
            outgoing[(x, y + 1)].append(((x, y), 3))

    loops = []
    # Vertices are only ever removed, so the first in this order still left
    # is the topmost-leftmost one.
    order = iter(sorted(outgoing, key=lambda v: (v[1], v[0])))
    while outgoing:
        # The topmost-leftmost vertex is entered going up and left going
        # right, its only outgoing edge, so it is a corner.
        start = vertex = next(v for v in order if v in outgoing)
        incoming = 3
        loop = []
        while True:
            options = outgoing[vertex]
            # Take the sharpest turn toward the interior (right turn first);
            # at a pinch vertex this keeps each loop simple.
            nxt, d = min(options, key=lambda o: (o[1] - incoming) % 4 or 4)
            options.remove((nxt, d))
            if not options:
                del outgoing[vertex]
            if d != incoming:
                loop.append(vertex)
            if nxt == start:
                break
            vertex, incoming = nxt, d
        loops.append(loop)
    return loops


def constituency_cells(c: Constituency) -> set[tuple[int, int]]:
    return {cell for r in c.shape for cell in r.cells()}


def _loops_to_path(loops: list[list[tuple[int, int]]], scale: int) -> str:
    parts = []
    for loop in loops:
        coords = [f"{x * scale} {y * scale}" for x, y in loop]
        parts.append("M " + " L ".join(coords) + " Z")
    return " ".join(parts)


def render_svg(result: DelimitationResult, grid: DotGrid,
               style: RenderStyle = RenderStyle()) -> str:
    """Standalone SVG map: dots, one outline path per constituency, state
    boundaries on top. Byte-identical output for identical inputs. Drawing
    more than ``MAX_SVG_DOTS`` dots is a ValueError."""
    if (grid.width, grid.height) != (result.width, result.height):
        raise ValueError(
            f"result {result.width}x{result.height} does not match "
            f"grid {grid.width}x{grid.height}"
        )
    if style.draw_dots and grid.total_dots > MAX_SVG_DOTS:
        raise ValueError(f"cannot draw {grid.total_dots} dots in an SVG; "
                         f"the limit is {MAX_SVG_DOTS}")
    cell = style.cell_size_px
    w_px, h_px = grid.width * cell, grid.height * cell
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="{SVG_NS}" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'  <rect width="{w_px}" height="{h_px}" fill="{style.background}"/>',
    ]

    if style.draw_dots:
        lines.append('  <g id="dots" fill="black">')
        ys, xs = grid.counts.nonzero()
        for y, x, k in zip(ys.tolist(), xs.tolist(), grid.counts[ys, xs].tolist()):
            side = math.isqrt(k - 1) + 1  # ceil(sqrt(k))
            for p in range(k):
                cx = (x + (p % side + 0.5) / side) * cell
                cy = (y + (p // side + 0.5) / side) * cell
                lines.append(f'    <circle cx="{cx:.2f}" cy="{cy:.2f}" '
                             f'r="{style.dot_radius_px}"/>')
        lines.append("  </g>")

    lines.append(f'  <g id="constituencies" fill="none" '
                 f'stroke="{style.constituency_color}" '
                 f'stroke-width="{style.constituency_width}">')
    for c in result.constituencies:
        path = _loops_to_path(boundary_loops(constituency_cells(c)), cell)
        lines.append(f'    <path id="c{c.id}" d="{path}"/>')
    lines.append("  </g>")

    if result.state_labels is not None:
        lines.append(f'  <g id="states" fill="none" stroke="{style.state_color}" '
                     f'stroke-width="{style.state_width}">')
        # One state's cell set at a time keeps the peak to the largest state.
        codes, names = encode_labels(result.state_labels)
        for i, state in enumerate(names):
            ys, xs = (codes == i).nonzero()
            path = _loops_to_path(boundary_loops(set(zip(xs.tolist(), ys.tolist()))), cell)
            lines.append(f'    <path id="state-{state}" d="{path}"/>')
        lines.append("  </g>")

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_ascii_grid(result: DelimitationResult) -> str:
    """One constituency-id token per cell, row per line; '.' marks cells the
    result does not own (possible only for malformed inputs)."""
    owner = paint_cells(result)
    width = max(len(str(result.count)), 1)
    rows = []
    for y in range(result.height):
        rows.append(" ".join(
            (str(int(v)) if v else ".").rjust(width) for v in owner[y]
        ))
    return "\n".join(rows) + "\n"
