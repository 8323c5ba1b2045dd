"""SVG and ASCII views of delimitation results.

The SVG draws 24 px cells, black dots of radius 3 px on white, constituencies
in black 2 px and states in blue 3 px outlines. All come from ``outline_loops``
on rasters of constituency ids and of state codes, along cell edges: edges
inside a constituency make no corner, so a merged one renders as one outline.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .popgrid import DotGrid, encode_labels, outline_loops
from .quadtree import Constituency, DelimitationResult, paint_cells

SVG_NS = "http://www.w3.org/2000/svg"
# render_svg writes one <circle> per dot; above this many it refuses to draw them.
MAX_SVG_DOTS = 2**24
# What a state label needs escaped in a double-quoted XML attribute.
_ATTRIBUTE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
# A character outside XML 1.0's Char, which no escape can carry.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


@dataclass(frozen=True)
class RenderStyle:
    """The SVG's one setting, whether dots are drawn; a cell's side is fixed."""

    cell_size_px: ClassVar[int] = 24
    draw_dots: bool = True


def boundary_loops(cells: set[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Outlines of a cell set, traced by ``outline_loops`` in its bounding box:
    closed loops of the corners where they turn, clockwise around the cells
    (anticlockwise around holes) in image coordinates, ordered by and
    starting at their topmost-leftmost corner."""
    if not cells:
        return []
    xs, ys = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                         count=2 * len(cells)).reshape(-1, 2).T
    x0, y0 = int(xs.min()), int(ys.min())
    padded = np.zeros((int(ys.max()) - y0 + 3, int(xs.max()) - x0 + 3), dtype=np.uint8)
    padded[ys - y0 + 1, xs - x0 + 1] = 1
    return outline_loops(padded, x0, y0)[1]


def constituency_cells(c: Constituency) -> set[tuple[int, int]]:
    return {cell for r in c.shape for cell in r.cells()}


# Constituencies per raster: consecutive ids lie close together, and their
# numbers in the chunk fit uint8.
_CHUNK = 255


def _constituency_loops(result: DelimitationResult) -> Iterator[list[list[tuple[int, int]]]]:
    """Each constituency's outline loops, in id order. Chunks of one state's
    constituencies are painted whole into their bounding box and traced
    together; states' rects overlap, so states never share a raster."""
    for _, group in groupby(result.constituencies, key=attrgetter("state")):
        group = list(group)
        for i in range(0, len(group), _CHUNK):
            yield from _trace_run(group[i:i + _CHUNK])


def _trace_run(run: list[Constituency]) -> list[list[list[tuple[int, int]]]]:
    rects = [r for c in run for r in c.shape]
    x0, y0 = min((r.x0 for r in rects), default=0), min((r.y0 for r in rects), default=0)
    x1 = max((r.x0 + r.w for r in rects), default=0)
    y1 = max((r.y0 + r.h for r in rects), default=0)
    padded = np.zeros((y1 - y0 + 2, x1 - x0 + 2), dtype=np.min_scalar_type(len(run)))
    for n, c in enumerate(run, 1):
        for x, y, w, h in c.shape:
            padded[y - y0 + 1:y - y0 + 1 + h, x - x0 + 1:x - x0 + 1 + w] = n
    # Rects that overlap, only in a malformed document, are traced one by one.
    if len(run) > 1 and np.count_nonzero(padded) < sum(r.area for r in rects):
        return [loops for c in run for loops in _trace_run([c])]
    loops = outline_loops(padded, x0, y0)
    return [loops.get(n, []) for n in range(1, len(run) + 1)]


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
    more than ``MAX_SVG_DOTS`` dots, or a state label that XML 1.0 cannot
    hold, is a ValueError."""
    if (grid.width, grid.height) != (result.width, result.height):
        raise ValueError(
            f"result {result.width}x{result.height} does not match "
            f"grid {grid.width}x{grid.height}"
        )
    if style.draw_dots and grid.total_dots > MAX_SVG_DOTS:
        raise ValueError(f"cannot draw {grid.total_dots} dots in an SVG; "
                         f"the limit is {MAX_SVG_DOTS}")
    if result.state_labels is not None:
        codes, names = encode_labels(result.state_labels)
        for name in filter(_NOT_XML.search, names):
            raise ValueError(f"state label {name!r} cannot be written in XML")
        padded = np.zeros((result.height + 2, result.width + 2),
                          dtype=np.min_scalar_type(len(names)))
        np.add(codes, 1, out=padded[1:-1, 1:-1], casting="unsafe")
        del codes
    cell = RenderStyle.cell_size_px
    w_px, h_px = grid.width * cell, grid.height * cell
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="{SVG_NS}" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'  <rect width="{w_px}" height="{h_px}" fill="white"/>',
    ]

    if style.draw_dots:
        lines.append('  <g id="dots" fill="black">')
        ys, xs = grid.counts.nonzero()
        for y, x, k in zip(ys.tolist(), xs.tolist(), grid.counts[ys, xs].tolist()):
            side = math.isqrt(k - 1) + 1  # ceil(sqrt(k))
            for p in range(k):
                cx = (x + (p % side + 0.5) / side) * cell
                cy = (y + (p // side + 0.5) / side) * cell
                lines.append(f'    <circle cx="{cx:.2f}" cy="{cy:.2f}" r="3"/>')
        lines.append("  </g>")

    lines.append('  <g id="constituencies" fill="none" stroke="black" stroke-width="2">')
    for c, loops in zip(result.constituencies, _constituency_loops(result)):
        lines.append(f'    <path id="c{c.id}" d="{_loops_to_path(loops, cell)}"/>')
    lines.append("  </g>")

    if result.state_labels is not None:
        lines.append('  <g id="states" fill="none" stroke="blue" stroke-width="3">')
        loops = outline_loops(padded)
        for i, state in enumerate(names, 1):
            lines.append(f'    <path id="state-{state.translate(_ATTRIBUTE)}" '
                         f'd="{_loops_to_path(loops[i], cell)}"/>')
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
