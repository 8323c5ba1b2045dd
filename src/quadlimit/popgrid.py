"""Population rasters with constant-time rectangular count queries.

A map is modelled as a grid of cells, each holding a non-negative number of
population dots (one dot stands for ``people_per_dot`` people). A summed-area
table built once at load time makes the dot count of any axis-aligned cell
rectangle an O(1) four-corner lookup, which the delimitation engine leans on
heavily.

Coordinates follow the image convention: origin at the top-left corner,
x grows rightward (columns), y grows downward (rows). All quantities are
integers; population arithmetic never touches floating point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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


@dataclass(frozen=True, order=True)
class Rect:
    """Axis-aligned cell rectangle: columns [x0, x0+w), rows [y0, y0+h)."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"empty rectangle {self.as_tuple()}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"negative origin in {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.w, self.h)

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, cx: int, cy: int) -> bool:
        return self.x0 <= cx < self.x0 + self.w and self.y0 <= cy < self.y0 + self.h

    def cells(self):
        """Yield (x, y) for every cell in the rectangle, row-major."""
        for y in range(self.y0, self.y0 + self.h):
            for x in range(self.x0, self.x0 + self.w):
                yield x, y

    def touches(self, other: "Rect") -> bool:
        """True if the two rectangles share an edge segment of length >= 1 cell."""
        if self.x0 + self.w == other.x0 or other.x0 + other.w == self.x0:
            return max(self.y0, other.y0) < min(self.y0 + self.h, other.y0 + other.h)
        if self.y0 + self.h == other.y0 or other.y0 + other.h == self.y0:
            return max(self.x0, other.x0) < min(self.x0 + self.w, other.x0 + other.w)
        return False


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
    np.cumsum(np.cumsum(arr, axis=0), axis=1, out=sat[1:, 1:])
    return sat


class DotGrid:
    """Immutable raster of per-cell dot counts plus its summed-area table."""

    def __init__(self, counts):
        arr = np.array(counts, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("counts must be a non-empty 2-D raster")
        if (arr < 0).any():
            raise ValueError("dot counts must be non-negative")
        self.height, self.width = arr.shape
        arr.setflags(write=False)
        self.counts = arr
        sat = build_sat(arr)
        sat.setflags(write=False)
        self.sat = sat

    @property
    def total_dots(self) -> int:
        return int(self.sat[self.height, self.width])

    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def count_dots(self, r: Rect) -> int:
        """Dot count over ``r`` via four-corner inclusion-exclusion."""
        if r.x0 + r.w > self.width or r.y0 + r.h > self.height:
            raise ValueError(
                f"rect {r.as_tuple()} exceeds grid bounds {self.width}x{self.height}"
            )
        s = self.sat
        return int(
            s[r.y0 + r.h, r.x0 + r.w]
            - s[r.y0, r.x0 + r.w]
            - s[r.y0 + r.h, r.x0]
            + s[r.y0, r.x0]
        )

    def masked(self, keep: np.ndarray) -> "DotGrid":
        """Grid of identical shape with counts zeroed where ``keep`` is False."""
        if keep.shape != (self.height, self.width):
            raise ValueError("mask shape does not match grid")
        return DotGrid(np.where(keep, self.counts, 0))


@dataclass(frozen=True)
class Scenario:
    """Validated delimitation input: grid, dot value, population threshold.

    ``state_labels`` is an optional per-cell label grid of the same shape;
    every label's cells must form one orthogonally connected region.
    """

    grid: DotGrid
    people_per_dot: int
    threshold: int
    state_labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.people_per_dot < 1:
            raise ScenarioError(f"people-per-dot must be >= 1, got {self.people_per_dot}")
        if self.threshold < 1:
            raise ScenarioError(f"threshold must be >= 1, got {self.threshold}")
        if self.state_labels is not None:
            _validate_labels(self.grid, self.state_labels)

    @property
    def states(self) -> list[str] | None:
        """Sorted distinct state labels, or None for unlabelled scenarios."""
        if self.state_labels is None:
            return None
        return sorted({lab for row in self.state_labels for lab in row})

    def label_array(self) -> np.ndarray | None:
        if self.state_labels is None:
            return None
        return np.array(self.state_labels)

    def total_population(self) -> int:
        return self.people_per_dot * self.grid.total_dots

    def state_population(self, label: str) -> int:
        """People in state ``label``; 0 for a label the scenario lacks."""
        if self.state_labels is None:
            raise ValueError("scenario has no state labels")
        return self.people_per_dot * self._state_dots.get(label, 0)

    @cached_property
    def _state_dots(self) -> dict[str, int]:
        """Dot total per state, summed in Python integers in one raster pass
        on first use. States without dots have no entry."""
        totals: dict[str, int] = {}
        for labels, counts in zip(self.state_labels, self.grid.counts):
            for label, count in zip(labels, counts.tolist()):
                if count:
                    totals[label] = totals.get(label, 0) + count
        return totals


def _validate_labels(grid: DotGrid, labels: tuple[tuple[str, ...], ...]) -> None:
    if len(labels) != grid.height or any(len(row) != grid.width for row in labels):
        raise ScenarioError(
            f"state label grid must be {grid.width}x{grid.height} like the dot grid"
        )
    seen_roots: dict[str, tuple[int, int]] = {}
    visited = [[False] * grid.width for _ in range(grid.height)]
    for y in range(grid.height):
        for x in range(grid.width):
            lab = labels[y][x]
            if visited[y][x]:
                continue
            if lab in seen_roots:
                raise ScenarioError(
                    f"state '{lab}' is not orthogonally connected: "
                    f"cell ({x}, {y}) is separate from cell {seen_roots[lab]}"
                )
            seen_roots[lab] = (x, y)
            queue = deque([(x, y)])
            visited[y][x] = True
            while queue:
                cx, cy = queue.popleft()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if 0 <= nx < grid.width and 0 <= ny < grid.height \
                            and not visited[ny][nx] and labels[ny][nx] == lab:
                        visited[ny][nx] = True
                        queue.append((nx, ny))


def load_scenario(text: str) -> Scenario:
    """Parse scenario file contents.

    Format (whitespace separated, ``#`` lines are comments)::

        W H X TH
        <H rows of W non-negative dot counts>
        STATES            # optional
        <H rows of W state label tokens>
    """
    rows: list[tuple[int, list[str]]] = []  # (1-based line number, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))

    if not rows:
        raise ScenarioError("empty scenario: no header line found")

    header_line, header = rows[0]
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

    counts: list[list[int]] = []
    for row_index in range(height):
        lineno, tokens = body[row_index]
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
            row.append(val)
        counts.append(row)

    labels: tuple[tuple[str, ...], ...] | None = None
    rest = body[height:]
    if rest:
        marker_line, marker = rest[0]
        if marker != ["STATES"]:
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
        for lineno, tokens in label_rows:
            if len(tokens) != width:
                raise ScenarioError(
                    f"dimension mismatch: expected {width} state labels, "
                    f"found {len(tokens)}",
                    line=lineno,
                )
            out.append(tuple(tokens))
        labels = tuple(out)

    return Scenario(grid=DotGrid(counts), people_per_dot=x, threshold=th,
                    state_labels=labels)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
