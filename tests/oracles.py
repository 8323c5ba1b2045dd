"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own data paths: sums are
naive double loops (or, for the summed-area table, the previous
whole-array cumulative sums), connectivity is cell flood fill, scenario text is read
token by token, divisor methods are solved globally instead of
seat-by-seat, boundary loops are traced through every unit-edge vertex and
collapsed afterwards, SVG outlines are re-rasterized by point-in-polygon
testing, the subdivision tree is grown as explicit nodes over naive sums,
point location walks those nodes or scans every constituency, and result
documents are ``json.dumps`` of a dict, read back by running every check in
turn.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from decimal import Decimal, getcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from quadlimit import Constituency, DelimitationResult, Rect, ResultFormatError, \
    ScenarioError, TreeStats, build_tree
from quadlimit.quadtree import OVER_CAPACITY, ZERO_POPULATION


# --- naive raster sums -------------------------------------------------------

def naive_rect_sum(counts, x0, y0, w, h) -> int:
    total = 0
    for y in range(y0, y0 + h):
        for x in range(x0, x0 + w):
            total += counts[y][x]
    return total


def naive_sat(counts) -> list[list[int]]:
    height, width = len(counts), len(counts[0])
    sat = [[0] * (width + 1) for _ in range(height + 1)]
    for r in range(1, height + 1):
        for c in range(1, width + 1):
            sat[r][c] = naive_rect_sum(counts, 0, 0, c, r)
    return sat


def sat_by_double_cumsum(counts) -> np.ndarray:
    """The summed-area table as two whole-array cumulative sums, column-wise
    then row-wise."""
    arr = np.asarray(counts, dtype=np.int64)
    sat = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(arr, axis=0), axis=1, out=sat[1:, 1:])
    return sat


# --- cell-set geometry -------------------------------------------------------

def flood_connected(cells: set[tuple[int, int]]) -> bool:
    if not cells:
        return True
    seen = set()
    queue = deque([next(iter(cells))])
    seen.add(next(iter(cells)))
    while queue:
        x, y = queue.popleft()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(cells)


def rect_cells(x0, y0, w, h) -> set[tuple[int, int]]:
    return {(x, y) for y in range(y0, y0 + h) for x in range(x0, x0 + w)}


# --- independent delimitation pipeline ---------------------------------------

def _split(x0, y0, w, h):
    if w == 1 and h == 1:
        raise ValueError("1x1")
    if h == 1:
        left = -(-w // 2)
        return [(x0, y0, left, 1), (x0 + left, y0, w - left, 1)]
    if w == 1:
        top = -(-h // 2)
        return [(x0, y0, 1, top), (x0, y0 + top, 1, h - top)]
    left, top = -(-w // 2), -(-h // 2)
    return [
        (x0, y0, left, top),
        (x0 + left, y0, w - left, top),
        (x0, y0 + top, left, h - top),
        (x0 + left, y0 + top, w - left, h - top),
    ]


def _merge_fixpoint(leaf_children: list[tuple[int, set, int]], threshold: int):
    """First-fit merge over (quadrant, cells, population) units, scanning
    pairs in lexicographic order of smallest contained quadrant."""
    units = [{"key": q, "cells": set(cells), "pop": pop}
             for q, cells, pop in leaf_children]
    while True:
        units.sort(key=lambda u: u["key"])
        hit = None
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                a, b = units[i], units[j]
                if a["pop"] + b["pop"] <= threshold \
                        and flood_connected(a["cells"] | b["cells"]):
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            return units
        i, j = hit
        units[i]["cells"] |= units[j]["cells"]
        units[i]["pop"] += units[j]["pop"]
        del units[j]


def oracle_delimit(counts, people_per_dot, threshold, rect=None):
    """Full reference pipeline over one region.

    Returns a list of (frozenset of cells, population) in no particular
    order; identity of the partition, not its numbering, is the oracle.
    """
    height, width = len(counts), len(counts[0])
    if rect is None:
        rect = (0, 0, width, height)

    def rec(region):
        x0, y0, w, h = region
        pop = people_per_dot * naive_rect_sum(counts, x0, y0, w, h)
        if pop <= threshold or (w == 1 and h == 1):
            return [(rect_cells(*region), pop)], True
        interior = []
        leaves = []
        for q, child in enumerate(_split(*region)):
            units, is_leaf = rec(child)
            if is_leaf:
                leaves.append((q, units[0][0], units[0][1]))
            else:
                interior.extend(units)
        merged = [(u["cells"], u["pop"])
                  for u in _merge_fixpoint(leaves, threshold)]
        return interior + merged, False

    units, _ = rec(rect)
    return [(frozenset(cells), pop) for cells, pop in units]


def enumerate_merge_outcomes(leaf_children, threshold):
    """All partitions reachable by merging eligible pairs in *any* order.

    ``leaf_children`` is a list of (quadrant, cells, population). Outcomes
    are frozensets of (frozenset of quadrants, population) at fixpoints.
    """
    start = tuple((frozenset([q]), frozenset(cells), pop)
                  for q, cells, pop in leaf_children)
    outcomes = set()
    stack = [start]
    seen = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        progressed = False
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                a, b = state[i], state[j]
                if a[2] + b[2] <= threshold and flood_connected(set(a[1] | b[1])):
                    merged = (a[0] | b[0], a[1] | b[1], a[2] + b[2])
                    rest = tuple(u for k, u in enumerate(state) if k not in (i, j))
                    stack.append(tuple(sorted(rest + (merged,),
                                              key=lambda u: sorted(u[0]))))
                    progressed = True
        if not progressed:
            outcomes.add(frozenset((u[0], u[2]) for u in state))
    return outcomes


class RefNode(NamedTuple):
    id: int
    rect: tuple[int, int, int, int]
    population: int
    parent: int | None
    position: int  # index in ``_split`` of the parent; 0 for the root
    children: list  # empty for a leaf


def reference_tree(counts, people_per_dot, threshold, rect) -> RefNode:
    """The subdivision tree over ``rect`` (map coordinates into ``counts``)
    as explicit nodes, grown by recursion over naive sums and ``_split``,
    ids in depth-first NW-first preorder."""
    next_id = 0

    def grow(region, parent, position):
        nonlocal next_id
        x0, y0, w, h = region
        node = RefNode(next_id, region, people_per_dot * naive_rect_sum(counts, x0, y0, w, h),
                       parent, position, [])
        next_id += 1
        if node.population > threshold and (w, h) != (1, 1):
            node.children.extend(grow(child, node.id, q)
                                 for q, child in enumerate(_split(*region)))
        return node

    return grow(tuple(rect), None, 0)


def preorder_nodes(root):
    """Every node of a reference tree, depth-first with children in NW, NE,
    SW, SE order."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(node.children))
    return order


def reference_leaves(root):
    """Parent id -> [(id, rect, population)] of its leaf children in id
    order, the parents in the order their first leaves come."""
    out = {}
    for n in preorder_nodes(root):
        if not n.children:
            out.setdefault(n.parent, []).append((n.id, n.rect, n.population))
    return out


def tree_stats_by_traversal(root):
    """(nodes, leaves, max depth) counted by a full walk of a reference tree."""
    nodes = leaves = max_depth = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        leaves += not node.children
        stack.extend((child, depth + 1) for child in node.children)
    return nodes, leaves, max_depth


def _covers(rect, cx, cy) -> bool:
    x0, y0, w, h = rect
    return x0 <= cx < x0 + w and y0 <= cy < y0 + h


def containment_scan(result, cx, cy):
    """Lowest-id constituency owning the cell, honouring state masks; on a
    result without ``state_labels`` (one loaded from JSON), the first
    constituency in id order whose rects cover the cell."""
    labels = result.state_labels
    for c in result.constituencies:
        if not any(_covers(r, cx, cy) for r in c.shape):
            continue
        if c.state is not None and labels is not None \
                and labels[cy][cx] != c.state:
            continue
        return c
    raise AssertionError(f"no constituency contains ({cx}, {cy})")


def state_trees(scenario):
    """Each state's quadtree, keyed by label (None when unlabelled), grown
    through the public ``masked`` and ``build_tree`` calls."""
    x, th = scenario.people_per_dot, scenario.threshold
    if scenario.states is None:
        return {None: build_tree(scenario.grid, x, th)}
    return {state: build_tree(scenario.grid.masked(scenario.label_codes == i), x, th)
            for i, state in enumerate(scenario.states)}


def reference_state_trees(scenario):
    """Each state's reference tree, keyed by label (None when unlabelled),
    over the bounding box of its cells with other states' dots counted as 0."""
    x, th = scenario.people_per_dot, scenario.threshold
    counts, labels = scenario.grid.counts.tolist(), scenario.state_labels
    if labels is None:
        return {None: reference_tree(counts, x, th, (0, 0, len(counts[0]), len(counts)))}
    trees = {}
    for state in sorted({lab for row in labels for lab in row}):
        cells = [(cx, cy) for cy, row in enumerate(labels) for cx, lab in enumerate(row)
                 if lab == state]
        xs, ys = zip(*cells)
        kept = [[v if labels[cy][cx] == state else 0 for cx, v in enumerate(row)]
                for cy, row in enumerate(counts)]
        box = (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
        trees[state] = reference_tree(kept, x, th, box)
    return trees


def leaf_owners(result):
    """(state, leaf rect) -> constituency id, read off the shapes."""
    return {(c.state, r): c.id for c in result.constituencies for r in c.shape}


def tree_walk_locate(trees, owners, state, cx, cy):
    """(constituency id, nodes visited) by walking a reference tree's
    children from the state's root to the leaf holding the cell."""
    node, visits = trees[state], 1
    while node.children:
        node = next(c for c in node.children if _covers(c.rect, cx, cy))
        visits += 1
    return owners[(state, node.rect)], visits


# --- scenario parsing oracles ------------------------------------------------

class ReferenceScenario(NamedTuple):
    counts: list[list[int]]
    people_per_dot: int
    threshold: int
    state_labels: tuple[tuple[str, ...], ...] | None


def validate_labels_bfs(labels, width: int, height: int) -> None:
    """Connectivity by cell-by-cell flood fill in row-major scan order."""
    if len(labels) != height or any(len(row) != width for row in labels):
        raise ScenarioError(
            f"state label grid must be {width}x{height} like the dot grid"
        )
    seen_roots: dict[str, tuple[int, int]] = {}
    visited = [[False] * width for _ in range(height)]
    for y in range(height):
        for x in range(width):
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
                    if 0 <= nx < width and 0 <= ny < height \
                            and not visited[ny][nx] and labels[ny][nx] == lab:
                        visited[ny][nx] = True
                        queue.append((nx, ny))


def load_scenario_reference(text: str) -> ReferenceScenario:
    """Scenario parsing token by token with ``int``, then the flood fill."""
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
        validate_labels_bfs(labels, width, height)

    return ReferenceScenario(counts, x, th, labels)


# --- apportionment oracles ---------------------------------------------------

def _strict_floor(q: Fraction) -> int:
    # Largest integer strictly below q.
    return (q.numerator - 1) // q.denominator


def _divisor_allocation(states, house, boundary, seats_of, strict_seats_of):
    pops = dict(states)
    cands = sorted({boundary(p, s) for p in pops.values()
                    for s in range(1, house + 1)}, reverse=True)

    def total_at(d):
        return sum(seats_of(Fraction(p, 1) / d) for p in pops.values())

    # total_at is nondecreasing along the descending candidate list; find the
    # first candidate reaching the house size.
    lo, hi = 0, len(cands) - 1
    assert total_at(cands[hi]) >= house
    while lo < hi:
        mid = (lo + hi) // 2
        if total_at(cands[mid]) >= house:
            hi = mid
        else:
            lo = mid + 1
    d = cands[lo]
    alloc = {lab: seats_of(Fraction(p, 1) / d) for lab, p in pops.items()}
    if sum(alloc.values()) == house:
        return alloc
    # Several states reach this boundary at once; award the remaining seats
    # among the tied ones: larger population first, then label order.
    base = {lab: strict_seats_of(Fraction(p, 1) / d) for lab, p in pops.items()}
    tied = sorted((lab for lab in pops if alloc[lab] > base[lab]),
                  key=lambda lab: (-pops[lab], lab))
    for lab in tied[:house - sum(base.values())]:
        base[lab] += 1
    return base


def jefferson_divisor_oracle(states, house):
    """Jefferson as a global divisor search: sum of floored quotients."""
    return _divisor_allocation(
        states, house,
        boundary=lambda p, s: Fraction(p, s),
        seats_of=lambda q: int(q),  # floor of a non-negative Fraction
        strict_seats_of=_strict_floor,
    )


def webster_divisor_oracle(states, house):
    """Webster as a global divisor search: sum of half-up rounded quotients."""
    half = Fraction(1, 2)
    return _divisor_allocation(
        states, house,
        boundary=lambda p, s: Fraction(2 * p, 2 * s - 1),
        seats_of=lambda q: int(q + half),
        strict_seats_of=lambda q: _strict_floor(q + half),
    )


def huntington_hill_decimal_oracle(states, house):
    """Equal proportions with 60-digit decimal square roots."""
    getcontext().prec = 60
    pops = dict(states)
    seats = {lab: 1 for lab in pops}
    if house < len(pops):
        raise ValueError("infeasible")
    for _ in range(house - len(pops)):
        def priority(lab):
            s = seats[lab]
            return Decimal(pops[lab]) / Decimal(s * (s + 1)).sqrt()
        best = min(pops, key=lambda lab: (-priority(lab), -pops[lab], lab))
        seats[best] += 1
    return seats


def highest_averages_scan(method, states, house):
    """Divisor methods awarded seat by seat, each seat by a full scan over
    every state's Fraction priority: the O(house * n) reference the heap in
    ``apportion`` must reproduce. Returns (seats, priority_trace)."""
    seed, key = {
        "jefferson": (0, lambda p, s: Fraction(p, s + 1)),
        "webster": (0, lambda p, s: Fraction(p, 2 * s + 1)),
        "huntington-hill": (1, lambda p, s: Fraction(p * p, s * (s + 1))),
    }[method]
    pops = dict(states)
    seats = {lab: seed for lab in pops}
    trace = []
    for rnd in range(1, house - seed * len(pops) + 1):
        best = min(pops, key=lambda lab: (-key(pops[lab], seats[lab]),
                                          -pops[lab], lab))
        seats[best] += 1
        trace.append((rnd, best))
    return seats, tuple(trace)


def hamilton_rational_oracle(states, house):
    """Largest remainders recomputed from scratch with Fractions."""
    pops = dict(states)
    total = sum(pops.values())
    quota = {lab: Fraction(p * house, total) for lab, p in pops.items()}
    seats = {lab: quota[lab].numerator // quota[lab].denominator
             for lab in pops}
    order = sorted(pops, key=lambda lab: (-(quota[lab] - seats[lab]),
                                          -pops[lab], lab))
    for lab in order[:house - sum(seats.values())]:
        seats[lab] += 1
    return seats


# --- boundary tracing --------------------------------------------------------

# The tracer as it was before the walk kept only its corners: every unit-edge
# vertex is chained, then collinear runs are collapsed in a second pass.
def boundary_loops_reference(cells: set[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Chain the outer edges of a cell set into closed vertex loops.

    Edges are oriented so the interior stays on the right of the walking
    direction; loops come out clockwise in image coordinates, collinear runs
    collapsed, ordered by their topmost-leftmost vertex.
    """
    # vertex -> outgoing (to-vertex, direction index)
    outgoing: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}

    def add(frm, to, d):
        outgoing.setdefault(frm, []).append((to, d))

    for (x, y) in cells:
        if (x, y - 1) not in cells:
            add((x, y), (x + 1, y), 0)
        if (x + 1, y) not in cells:
            add((x + 1, y), (x + 1, y + 1), 1)
        if (x, y + 1) not in cells:
            add((x + 1, y + 1), (x, y + 1), 2)
        if (x - 1, y) not in cells:
            add((x, y + 1), (x, y), 3)

    loops = []
    while outgoing:
        start = min(outgoing, key=lambda v: (v[1], v[0]))
        loop = [start]
        vertex = start
        incoming = None
        while True:
            options = outgoing[vertex]
            if incoming is None or len(options) == 1:
                nxt, d = options[0]
            else:
                # Pinch vertex: take the sharpest turn toward the interior
                # (right turn first) to keep each loop simple.
                nxt, d = min(options, key=lambda o: (o[1] - incoming) % 4 or 4)
            options.remove((nxt, d))
            if not options:
                del outgoing[vertex]
            if nxt == start:
                break
            loop.append(nxt)
            vertex, incoming = nxt, d
        loops.append(_collapse_collinear(loop))
    return loops


def _collapse_collinear(loop: list[tuple[int, int]]) -> list[tuple[int, int]]:
    def direction(a, b):
        return ((b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1]))

    out = []
    n = len(loop)
    for i, v in enumerate(loop):
        if direction(loop[i - 1], v) != direction(v, loop[(i + 1) % n]):
            out.append(v)
    # Rotate so the topmost-leftmost corner leads.
    lead = out.index(min(out, key=lambda v: (v[1], v[0])))
    return out[lead:] + out[:lead]


# --- SVG re-rasterization ----------------------------------------------------

_PATH_RE = re.compile(r'<path id="c(\d+)" d="([^"]*)"/>')


def svg_constituency_paths(svg_text: str) -> dict[int, str]:
    return {int(m.group(1)): m.group(2) for m in _PATH_RE.finditer(svg_text)}


def parse_path_loops(d: str) -> list[list[tuple[float, float]]]:
    tokens = d.replace(",", " ").split()
    loops = []
    current: list[tuple[float, float]] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("M", "L"):
            current.append((float(tokens[i + 1]), float(tokens[i + 2])))
            i += 3
        elif tok == "Z":
            loops.append(current)
            current = []
            i += 1
        else:
            raise ValueError(f"unsupported path token {tok!r}")
    if current:
        raise ValueError("unterminated subpath")
    return loops


def _crossings(px, py, loop) -> int:
    count = 0
    n = len(loop)
    for k in range(n):
        x1, y1 = loop[k]
        x2, y2 = loop[(k + 1) % n]
        if (y1 > py) != (y2 > py):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_at:
                count += 1
    return count


def rasterize_path(d: str, width: int, height: int, cell_px: int) -> set[tuple[int, int]]:
    """Cells whose centers fall inside the path, even-odd rule."""
    loops = parse_path_loops(d)
    cells = set()
    for y in range(height):
        for x in range(width):
            px, py = (x + 0.5) * cell_px, (y + 0.5) * cell_px
            if sum(_crossings(px, py, loop) for loop in loops) % 2 == 1:
                cells.add((x, y))
    return cells


def boundary_edge_set(cells: set[tuple[int, int]]) -> set[frozenset]:
    """Undirected unit edges between a cell inside and a cell outside."""
    edges = set()
    for (x, y) in cells:
        if (x, y - 1) not in cells:
            edges.add(frozenset({(x, y), (x + 1, y)}))
        if (x, y + 1) not in cells:
            edges.add(frozenset({(x, y + 1), (x + 1, y + 1)}))
        if (x - 1, y) not in cells:
            edges.add(frozenset({(x, y), (x, y + 1)}))
        if (x + 1, y) not in cells:
            edges.add(frozenset({(x + 1, y), (x + 1, y + 1)}))
    return edges


def path_edge_set(d: str, cell_px: int = 1) -> set[frozenset]:
    """Unit edges covered by the path's segments, with pixel coordinates
    divided by ``cell_px`` down to cell units."""
    edges = set()
    for loop in parse_path_loops(d):
        n = len(loop)
        for k in range(n):
            coords = [v / cell_px for v in (*loop[k], *loop[(k + 1) % n])]
            if any(v != int(v) for v in coords):
                raise ValueError("vertex off the cell grid")
            x1, y1, x2, y2 = map(int, coords)
            if x1 == x2:
                lo, hi = sorted((y1, y2))
                for y in range(lo, hi):
                    edges.add(frozenset({(x1, y), (x1, y + 1)}))
            elif y1 == y2:
                lo, hi = sorted((x1, x2))
                for x in range(lo, hi):
                    edges.add(frozenset({(x, y1), (x + 1, y1)}))
            else:
                raise ValueError("non-rectilinear segment")
    return edges


def ceil_sqrt(k: int) -> int:
    return math.isqrt(k - 1) + 1 if k > 0 else 0


# --- result documents --------------------------------------------------------

def result_to_dict(result) -> dict:
    """The result document as a dict; ``json.dumps(..., indent=2)`` of it is
    what ``result_to_json`` writes."""
    cons = []
    for c in result.constituencies:
        entry: dict = {"id": c.id}
        if c.state is not None:
            entry["state"] = c.state
        entry["population"] = c.population
        entry["flags"] = sorted(c.flags)
        entry["rects"] = [list(r) for r in c.shape]
        cons.append(entry)
    return {
        "count": result.count,
        "threshold": result.threshold,
        "peoplePerDot": result.people_per_dot,
        "constituencies": cons,
        "stats": {
            "nodes": result.stats.nodes,
            "leaves": result.stats.leaves,
            "maxDepth": result.stats.max_depth,
        },
    }


def _require(cond: bool, message: str, *args) -> None:
    if not cond:
        raise ResultFormatError(message % args)


def result_from_json_reference(text: str) -> DelimitationResult:
    """``result_from_json`` as a chain of checks run on every entry and rect,
    in the order that decides which message a malformed document gets."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ResultFormatError(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("count", "threshold", "peoplePerDot", "constituencies", "stats"):
        _require(key in doc, "missing key '%s'", key)
    _require(isinstance(doc["constituencies"], list), "'constituencies' must be a list")
    _require(len(doc["constituencies"]) >= 1, "'constituencies' must not be empty")

    constituencies: list[Constituency] = []
    for i, entry in enumerate(doc["constituencies"], start=1):
        _require(isinstance(entry, dict), "constituency #%d must be an object", i)
        for key in ("id", "population", "flags", "rects"):
            _require(key in entry, "constituency #%d missing key '%s'", i, key)
        _require(type(entry["id"]) is int and entry["id"] == i,
                 "constituency ids must be sequential integers, got %s", entry["id"])
        _require(isinstance(entry["rects"], list), "constituency #%d: 'rects' must be a list", i)
        rects = []
        for quad in entry["rects"]:
            _require(isinstance(quad, list) and len(quad) == 4
                     and all(type(v) is int for v in quad),
                     "constituency #%d: rects must be [x0, y0, w, h] integers", i)
            try:
                rects.append(Rect(*quad))
            except ValueError as exc:
                raise ResultFormatError(f"constituency #{i}: {exc}") from None
        _require(len(rects) >= 1, "constituency #%d has no rects", i)
        population, flags = entry["population"], entry["flags"]
        _require(type(population) is int and population >= 0,
                 "constituency #%d: population must be a non-negative integer", i)
        _require(isinstance(flags, list)
                 and all(f in (OVER_CAPACITY, ZERO_POPULATION) for f in flags),
                 "constituency #%d: flags must be a list of '%s' and '%s'",
                 i, OVER_CAPACITY, ZERO_POPULATION)
        _require(isinstance(entry.get("state", ""), str),
                 "constituency #%d: state must be a string", i)
        constituencies.append(Constituency(
            id=i,
            shape=tuple(rects),
            population=population,
            flags=frozenset(f for f in (OVER_CAPACITY, ZERO_POPULATION) if f in flags),
            state=entry.get("state"),
        ))
    _require(type(doc["count"]) is int, "'count' must be an integer")
    _require(doc["count"] == len(constituencies),
             "count %s does not match %d constituencies", doc["count"], len(constituencies))
    _require(len({c.state is None for c in constituencies}) == 1,
             "'state' must be given on every constituency or on none")

    for key in ("threshold", "peoplePerDot"):
        _require(type(doc[key]) is int and doc[key] >= 1, "'%s' must be a positive integer", key)
    stats = doc["stats"]
    _require(isinstance(stats, dict) and all(k in stats for k in ("nodes", "leaves", "maxDepth")),
             "'stats' must carry nodes, leaves, maxDepth")
    for key in ("nodes", "leaves", "maxDepth"):
        _require(type(stats[key]) is int and stats[key] >= 0,
                 "'stats.%s' must be a non-negative integer", key)

    width = max(r.x0 + r.w for c in constituencies for r in c.shape)
    height = max(r.y0 + r.h for c in constituencies for r in c.shape)
    return DelimitationResult(
        constituencies=constituencies,
        threshold=doc["threshold"],
        people_per_dot=doc["peoplePerDot"],
        width=width,
        height=height,
        stats=TreeStats(stats["nodes"], stats["leaves"], stats["maxDepth"]),
    )
