"""Population rasters with constant-time rectangular count queries.

A map is modelled as a grid of cells, each holding a non-negative number of
population dots (one dot stands for ``people_per_dot`` people). A summed-area
table built once at load time makes the dot count of any axis-aligned cell
rectangle an O(1) four-corner lookup, which the delimitation engine leans on
heavily. The table is int64, so a grid whose dot total exceeds 2**63-1 is
rejected rather than left to wrap.

Coordinates follow the image convention: origin at the top-left corner,
x grows rightward (columns), y grows downward (rows). All quantities are
integers; population arithmetic never touches floating point. ``Rect``, the
cell rectangle, is defined in ``quadtree`` and importable from here.

Scenario text is read in numpy. A count block made only of ASCII digits,
spaces and tabs goes through ``np.loadtxt``; any other block, and any block
``np.loadtxt`` rejects or reads to the wrong shape, is read token by token
with Python's ``int``, which gives the same values and names the line and
column of the first bad cell. State labels become an int32 code raster. The
one outline tracer, crack following on an id raster (the 2-D marching-cubes
cell table, Lorensen and Cline 1987), lives here too: a state is connected iff
exactly one of its outlines is an outer one (Suzuki and Abe, 1985).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .quadtree import Rect

INT64_MAX = 2**63 - 1
# Everything but these bytes sends a count block to the token-by-token reader.
_PLAIN_COUNT_BYTES = b"0123456789 \t\n"


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input.

    ``line`` and ``column`` are 1-based positions in the original file when
    they apply, ``None`` otherwise.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def build_sat(counts) -> np.ndarray:
    """Build the summed-area table for a raster of non-negative counts.

    The table has shape (height+1, width+1) with a zero first row and column;
    ``sat[r][c]`` is the total over the top-left r-row by c-column block.
    """
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("counts must be a non-empty 2-D raster")
    h, w = arr.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(arr, axis=1, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=0, out=sat[1:, 1:])
    return sat


def _check_total(arr: np.ndarray) -> None:
    """Raise ScenarioError if the non-negative raster's total exceeds 2**63-1.

    Every SAT entry is the total of a sub-rectangle, so a total within int64
    keeps the cumulative sums from wrapping. Unless the largest cell times
    the cell count already fits, the total is summed exactly from the high
    and low 32-bit halves of the cells (neither half-sum can wrap below 2**31
    cells).
    """
    if int(arr.max()) * arr.size <= INT64_MAX:
        return
    total = (int((arr >> 32).sum()) << 32) + int((arr & 0xFFFFFFFF).sum())
    if total > INT64_MAX:
        raise ScenarioError(f"total dot count {total} exceeds 2**63-1")


class DotGrid:
    """Immutable raster of per-cell dot counts plus its summed-area table.

    The raster's top-left cell sits at ``(x0, y0)`` of the map, (0, 0) unless
    the grid came from ``masked``. ``bounds`` and ``count_dots`` speak map
    coordinates; ``counts``, ``sat``, ``width``, ``height`` and
    ``total_dots`` describe the raster itself.
    """

    def __init__(self, counts, *, origin: tuple[int, int] = (0, 0)):
        arr = np.array(counts, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("counts must be a non-empty 2-D raster")
        if (arr < 0).any():
            raise ValueError("dot counts must be non-negative")
        _check_total(arr)
        self.height, self.width = arr.shape
        self.x0, self.y0 = origin
        arr.setflags(write=False)
        self.counts = arr
        sat = build_sat(arr)
        sat.setflags(write=False)
        self.sat = sat

    @property
    def total_dots(self) -> int:
        return int(self.sat[self.height, self.width])

    def bounds(self) -> Rect:
        return Rect(self.x0, self.y0, self.width, self.height)

    def count_dots(self, r: Rect) -> int:
        """Dot count over map rect ``r`` via four-corner inclusion-exclusion."""
        x0, y0 = r.x0 - self.x0, r.y0 - self.y0
        x1, y1 = x0 + r.w, y0 + r.h
        if x0 < 0 or y0 < 0 or x1 > self.width or y1 > self.height:
            raise ValueError(f"rect {tuple(r)} exceeds grid bounds {tuple(self.bounds())}")
        s = self.sat
        return int(s[y1, x1] - s[y0, x1] - s[y1, x0] + s[y0, x0])

    def masked(self, keep: np.ndarray) -> "DotGrid":
        """Grid over the bounding box of ``keep``'s True cells, with counts
        zeroed where ``keep`` is False; ``keep`` has this grid's shape."""
        if keep.shape != (self.height, self.width):
            raise ValueError("mask shape does not match grid")
        rows = np.flatnonzero(keep.any(axis=1))
        if rows.size == 0:
            raise ValueError("mask keeps no cell")
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(keep[y0:y1].any(axis=0))
        x0, x1 = int(cols[0]), int(cols[-1]) + 1
        box = (slice(y0, y1), slice(x0, x1))
        return DotGrid(np.where(keep[box], self.counts[box], 0),
                       origin=(self.x0 + x0, self.y0 + y0))


@dataclass(frozen=True)
class Scenario:
    """Validated delimitation input: grid, dot value, population threshold.

    ``state_labels`` is an optional per-cell label grid of the same shape;
    every label's cells must form one orthogonally connected region. It is
    also held as ``states``, the stored tuple of its sorted distinct labels,
    and ``label_codes``, an int32 raster of each cell's index into ``states``.
    """

    grid: DotGrid
    people_per_dot: int
    threshold: int
    state_labels: tuple[tuple[str, ...], ...] | None = None
    label_codes: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)
    states: tuple[str, ...] | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if self.people_per_dot < 1:
            raise ScenarioError(f"people-per-dot must be >= 1, got {self.people_per_dot}")
        if self.threshold < 1:
            raise ScenarioError(f"threshold must be >= 1, got {self.threshold}")
        if self.state_labels is not None:
            codes, names = _validate_labels(self.grid, self.state_labels)
            object.__setattr__(self, "label_codes", codes)
            object.__setattr__(self, "states", names)

    def label_array(self) -> np.ndarray | None:
        if self.state_labels is None:
            return None
        return np.array(self.states)[self.label_codes]

    def total_population(self) -> int:
        return self.people_per_dot * self.grid.total_dots

    def state_population(self, label: str) -> int:
        """People in state ``label``; 0 for a label the scenario lacks."""
        if self.state_labels is None:
            raise ValueError("scenario has no state labels")
        return self.people_per_dot * self._state_dots.get(label, 0)

    @cached_property
    def _state_dots(self) -> dict[str, int]:
        """Dot total per state, built on first use by one scatter-add of the
        counts onto their state codes. The int64 sums are exact: none can
        exceed the grid total, which fits."""
        sums = np.zeros(len(self.states), dtype=np.int64)
        np.add.at(sums, self.label_codes.ravel(), self.grid.counts.ravel())
        return dict(zip(self.states, sums.tolist()))


def encode_labels(labels: tuple[tuple[str, ...], ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Int32 raster of each cell's index into the sorted labels, and those labels."""
    # A dict keeps labels exact; numpy's fixed-width strings drop trailing NULs.
    names = tuple(sorted(set().union(*labels)))
    index = {name: i for i, name in enumerate(names)}
    codes = np.fromiter(map(index.__getitem__, chain.from_iterable(labels)),
                        dtype=np.int32, count=len(labels) * len(labels[0]))
    return codes.reshape(len(labels), -1), names


def _validate_labels(grid: DotGrid, labels: tuple[tuple[str, ...], ...]
                     ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Check the label grid's shape, and that each state is one edge-connected
    region: exactly one of its outline cycles is outer, its least (y, x, out)
    corner going right, as a hole's goes down. Pointer doubling finds each
    cycle's least corner. An outer one is its region's first cell, so the
    error names what a row-major flood fill finds first. Return the read-only
    int32 code raster and the sorted state names."""
    if len(labels) != grid.height or any(len(row) != grid.width for row in labels):
        raise ScenarioError(
            f"state label grid must be {grid.width}x{grid.height} like the dot grid"
        )
    codes, names = encode_labels(labels)
    codes.setflags(write=False)
    padded = np.zeros((grid.height + 2, grid.width + 2), dtype=np.min_scalar_type(len(names)))
    np.add(codes, 1, out=padded[1:-1, 1:-1], casting="unsafe")
    vertex, ident, out, successor = link_corners(padded)
    key = least = vertex * 4 + out
    # Windows of 2**k corners; one whose minimum doubling leaves unchanged
    # already holds its cycle's.
    while not np.array_equal(least, lower := np.minimum(least, least[successor])):
        least, successor = lower, successor[successor]
    starts = np.flatnonzero((least == key) & (out == 0))
    first: dict[int, tuple[int, int]] = {}
    for v, k in zip(vertex[starts].tolist(), ident[starts].tolist()):
        y, x = divmod(v, grid.width + 1)
        if k in first:
            raise ScenarioError(f"state '{names[k - 1]}' is not orthogonally connected: "
                                f"cell ({x}, {y}) is separate from cell {first[k]}")
        first[k] = (x, y)
    return codes, names


# An id's (in, out) turns at a lattice vertex by its membership pattern in the
# 2x2 window (bits 1 top-left, 2 top-right, 4 bottom-left, 8 bottom-right), the
# id on the right; directions 0 right, 1 down, 2 left, 3 up. The pinches 6 and 9
# pair each way in with its right turn. Other patterns and unused slots are -1.
_TURNS = np.full((16, 2, 2), -1, dtype=np.int8)
for _p, _pairs in {1: [(1, 2)], 2: [(2, 3)], 4: [(0, 1)], 8: [(3, 0)], 7: [(2, 1)],
                   11: [(3, 2)], 13: [(1, 0)], 14: [(0, 3)], 6: [(0, 1), (2, 3)],
                   9: [(1, 2), (3, 0)]}.items():
    _TURNS[_p, :len(_pairs)] = _pairs
_BITS = np.array([1, 2, 4, 8], dtype=np.uint8)


def link_corners(padded: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vertex, id, out, successor) of every outline corner of a zero-bordered
    id raster (0 is no id), in vertex order. Vertex ``v`` is the top-left of
    interior cell (row, column) ``divmod(v, padded.shape[1] - 1)``; a corner's
    successor is the next corner of its id on its way out. Each cycle is one
    outline, its id on the right: clockwise around a region, anticlockwise
    around a hole."""
    rows, span = padded.shape[0] - 1, padded.shape[1] - 1
    top_left = padded[:-1, :-1]
    turn = top_left != padded[:-1, 1:]
    turn |= top_left != padded[1:, :-1]
    turn |= top_left != padded[1:, 1:]
    vertex = np.flatnonzero(turn)
    del turn
    # window[q]: window cell q (bit 1 << q) of each vertex where ids differ;
    # pattern[q]: the membership pattern of its id.
    cell = vertex + vertex // span
    window = np.stack([padded.ravel()[cell + d] for d in (0, 1, span + 1, span + 2)])
    pattern = ((window[:, None] == window) * _BITS[:, None]).sum(axis=1, dtype=np.uint8)
    # Each id once, at its first window cell, where it turns.
    first = (pattern & (_BITS[:, None] - 1)) == 0
    at, q = np.nonzero((first & (window != 0) & (_TURNS[pattern, 0, 0] >= 0)).T)
    turns = _TURNS[pattern[q, at]].reshape(-1, 2)
    pick = np.flatnonzero(turns[:, 0] >= 0)  # a pinch's second corner follows its first
    vertex, ident = vertex[at][pick // 2], window[q, at][pick // 2].astype(np.int64)
    into, out = turns[pick].T
    # An id's runs along a line meet only at pinches, so sorted by (id, line,
    # position, low end) they pair up as (low end, high end). The keys stay
    # below 2 * (ids + 1) * rows * span, and ids < rows * span, so they fit
    # int64 for any raster of fewer than 2**31 cells.
    successor = np.empty(vertex.size, dtype=np.intp)
    y, x = np.divmod(vertex, span)
    for axis, line, pos, lines, size in ((0, y, x, rows, span), (1, x, y, span, rows)):
        low_end = np.where(out % 2 == axis, out == axis, into == axis + 2)
        low, high = np.argsort(((ident * lines + line) * size + pos) * 2 + low_end).reshape(-1, 2).T
        forward = out[low] == axis
        successor[np.where(forward, low, high)] = np.where(forward, high, low)
    return vertex, ident, out, successor


def outline_loops(padded: np.ndarray, x0: int = 0, y0: int = 0
                  ) -> dict[int, list[list[tuple[int, int]]]]:
    """Each id's outlines in a zero-bordered id raster whose first interior
    cell is map cell ``(x0, y0)``: loops of corners in map coordinates,
    ordered by and starting at their least (y, x, out) corner."""
    vertex, ident, out, successor = link_corners(padded)
    span = padded.shape[1] - 1
    xs, ys = memoryview(vertex % span + x0), memoryview(vertex // span + y0)
    nxt, ids, seen = memoryview(successor), memoryview(ident), bytearray(vertex.size)
    loops: dict[int, list[list[tuple[int, int]]]] = {}
    for start in np.lexsort((out, vertex, ident)).tolist():
        i, loop = start, []
        while not seen[i]:
            seen[i] = 1
            loop.append((xs[i], ys[i]))
            i = nxt[i]
        if loop:
            loops.setdefault(ids[start], []).append(loop)
    return loops


def _parse_counts(rows: list[tuple[int, str]], width: int, height: int) -> np.ndarray:
    """The count block as an int64 raster; ``rows`` are (line number, line)."""
    lines = [line for _, line in rows]
    block = "\n".join(lines)
    if block.isascii() and not block.encode("ascii").translate(None, _PLAIN_COUNT_BYTES):
        try:
            counts = np.loadtxt(lines, dtype=np.int64, ndmin=2)
        except ValueError:  # ragged rows, or a value above int64
            pass
        else:
            if counts.shape == (height, width):
                return counts
    return np.array(_parse_counts_by_token(rows, width), dtype=np.int64)


def _parse_counts_by_token(rows: list[tuple[int, str]], width: int) -> list[list[int]]:
    """Read each count token with ``int``, naming the first bad cell."""
    counts: list[list[int]] = []
    for lineno, line in rows:
        tokens = line.split()
        if len(tokens) != width:
            raise ScenarioError(
                f"dimension mismatch: expected {width} cells, found {len(tokens)}",
                line=lineno,
            )
        row: list[int] = []
        for col, tok in enumerate(tokens, start=1):
            try:
                val = int(tok)
            except ValueError:
                raise ScenarioError(f"non-numeric cell value {tok!r}",
                                    line=lineno, column=col) from None
            if val < 0:
                raise ScenarioError(f"negative cell value {val}", line=lineno, column=col)
            if val > INT64_MAX:
                raise ScenarioError("cell value exceeds 2**63-1", line=lineno, column=col)
            row.append(val)
        counts.append(row)
    return counts


def load_scenario(text: str) -> Scenario:
    """Parse scenario file contents.

    Format (whitespace separated, ``#`` lines are comments)::

        W H X TH
        <H rows of W non-negative dot counts>
        STATES            # optional
        <H rows of W state label tokens>

    A cell above 2**63-1, or a dot total above it, is a ScenarioError.
    """
    rows: list[tuple[int, str]] = []  # (1-based line number, stripped line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            rows.append((lineno, stripped))

    if not rows:
        raise ScenarioError("empty scenario: no header line found")

    header_line, header = rows[0][0], rows[0][1].split()
    if len(header) != 4:
        raise ScenarioError(
            f"header must be 'W H X TH' (4 integers), got {len(header)} tokens",
            line=header_line,
        )
    try:
        width, height, x, th = (int(tok) for tok in header)
    except ValueError:
        raise ScenarioError("header must contain integers only", line=header_line) from None
    if width < 1 or height < 1:
        raise ScenarioError(f"grid dimensions must be positive, got {width}x{height}",
                            line=header_line)
    if x < 1:
        raise ScenarioError(f"people-per-dot must be >= 1, got {x}", line=header_line)
    if th < 1:
        raise ScenarioError(f"threshold must be >= 1, got {th}", line=header_line)

    body = rows[1:]
    if len(body) < height:
        raise ScenarioError(
            f"dimension mismatch: expected {height} count rows, found {len(body)}"
        )
    counts = _parse_counts(body[:height], width, height)

    labels: tuple[tuple[str, ...], ...] | None = None
    rest = body[height:]
    if rest:
        marker_line, marker = rest[0]
        if marker.split() != ["STATES"]:
            raise ScenarioError("unexpected content after count rows "
                                "(expected 'STATES' marker or end of file)",
                                line=marker_line)
        label_rows = rest[1:]
        if len(label_rows) < height:
            raise ScenarioError(
                f"dimension mismatch: expected {height} state label rows, "
                f"found {len(label_rows)}"
            )
        if len(label_rows) > height:
            raise ScenarioError("unexpected content after state label rows",
                                line=label_rows[height][0])
        out: list[tuple[str, ...]] = []
        for lineno, line in label_rows:
            # One string object per distinct label, not one per cell.
            tokens = tuple(map(sys.intern, line.split()))
            if len(tokens) != width:
                raise ScenarioError(
                    f"dimension mismatch: expected {width} state labels, "
                    f"found {len(tokens)}",
                    line=lineno,
                )
            out.append(tokens)
        labels = tuple(out)

    return Scenario(grid=DotGrid(counts), people_per_dot=x, threshold=th,
                    state_labels=labels)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
