"""Threshold-driven quadtree partitioning of a population raster.

The engine recursively splits any region whose population exceeds the
threshold into four quadrants (two halves for one-cell-wide strips), then
runs a sibling-merge pass that re-joins same-parent leaves whose combined
population still fits under the threshold, provided their union stays
orthogonally connected. Leaves of the final tree, after merging, are the
constituencies.

The tree is held as its leaves, a linear quadtree (Gargantini, CACM 1982):
each ``Leaf`` is its id in depth-first, NW-first preorder, its rect and its
population, filed under its parent's id, since merging never crosses parents.
Inner nodes are only counted, with the depth, while the tree grows. A merged
unit is the tuple of its leaves in id order; its constituency keeps the leaves
as rects, which ``locate`` descends by ``_halves`` from each state's root, the
rects' bounding box, in memory and after loading alike.

``Rect`` is defined here, and the module loads without numpy or ``popgrid``:
results are read, written and queried in plain Python, and only
``paint_cells`` imports numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .popgrid import DotGrid, Scenario


class ResultFormatError(ValueError):
    """Raised when a serialized result document is malformed."""


class _RectFields(NamedTuple):
    x0: int
    y0: int
    w: int
    h: int


class Rect(_RectFields):
    """Axis-aligned cell rectangle: columns [x0, x0+w), rows [y0, y0+h).

    A validated ``(x0, y0, w, h)`` tuple, so it unpacks, orders and serves as
    a dict key as that tuple. ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, x0: int, y0: int, w: int, h: int):
        if w < 1 or h < 1:
            raise ValueError(f"empty rectangle {(x0, y0, w, h)}")
        if x0 < 0 or y0 < 0:
            raise ValueError(f"negative origin in {(x0, y0, w, h)}")
        return tuple.__new__(cls, (x0, y0, w, h))

    @property
    def area(self) -> int:
        return self.w * self.h

    def cells(self):
        """Yield (x, y) for every cell in the rectangle, row-major."""
        for y in range(self.y0, self.y0 + self.h):
            for x in range(self.x0, self.x0 + self.w):
                yield x, y


class Leaf(NamedTuple):
    """A leaf of the partition: its preorder id, rect and population."""

    id: int
    rect: Rect
    population: int


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    leaves: int
    max_depth: int


@dataclass
class QuadTree:
    leaves: dict[int | None, list[Leaf]]  # parent id (None for a root leaf) -> leaves in id order
    stats: TreeStats  # counted while the tree grows


@dataclass(frozen=True, slots=True)
class Constituency:
    """Final districting unit: an edge-connected union of disjoint rectangles."""

    id: int
    shape: tuple[Rect, ...]
    population: int
    flags: frozenset[str]
    state: str | None = None


@dataclass(frozen=True)
class DelimitationResult:
    constituencies: list[Constituency]
    threshold: int
    people_per_dot: int
    width: int
    height: int
    stats: TreeStats
    state_labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        rows = self.state_labels
        if rows is not None and (len(rows) != self.height
                                 or any(len(row) != self.width for row in rows)):
            raise ValueError(f"state labels must be {self.width}x{self.height} like the result")

    @property
    def count(self) -> int:
        return len(self.constituencies)

    def by_id(self, cid: int) -> Constituency:
        return self.constituencies[cid - 1]

    @property
    def per_state(self) -> dict[str, list[int]] | None:
        """Constituency ids per state label in id order; None when no
        constituency has a state."""
        if all(c.state is None for c in self.constituencies):
            return None
        out: dict[str, list[int]] = {}
        for c in self.constituencies:
            out.setdefault(c.state, []).append(c.id)
        return out

    @cached_property
    def _rect_index(self) -> dict[str | None, tuple[tuple[int, int, int, int], dict]]:
        """Per state in id order: the root, the bounding box of its rects, and
        each rect's constituency (the first, should a document repeat a rect)."""
        tables: dict[str | None, dict[Rect, Constituency]] = {}
        for c in self.constituencies:
            table = tables.get(c.state)
            if table is None:
                table = tables[c.state] = {}
            for r in c.shape:
                table.setdefault(r, c)
        index = {}
        for state, table in tables.items():
            x0 = min(k[0] for k in table)
            y0 = min(k[1] for k in table)
            x1 = max(k[0] + k[2] for k in table)
            y1 = max(k[1] + k[3] for k in table)
            index[state] = ((x0, y0, x1 - x0, y1 - y0), table)
        return index


OVER_CAPACITY = "overCapacity"
ZERO_POPULATION = "zeroPopulation"
# Every constituency shares one of these, keyed by (over capacity, zero population).
_FLAG_SETS = {
    (False, False): frozenset(),
    (True, False): frozenset({OVER_CAPACITY}),
    (False, True): frozenset({ZERO_POPULATION}),
    (True, True): frozenset({OVER_CAPACITY, ZERO_POPULATION}),
}


def _halves(start: int, size: int) -> tuple[tuple[int, int], ...]:
    """(start, size) of a span's halves, the first the larger; one cell stays whole."""
    if size == 1:
        return ((start, 1),)
    first = (size + 1) // 2
    return ((start, first), (start + first, size - first))


def subdivide(r: Rect) -> list[Rect]:
    """Split a rect into [NW, NE, SW, SE] quadrants, top/left taking the
    ceiling halves; one-cell-wide strips split 2-way along their long axis."""
    if r.w == 1 and r.h == 1:
        raise ValueError(f"cannot subdivide 1x1 rect at ({r.x0}, {r.y0})")
    xs = _halves(r.x0, r.w)
    return [Rect(x0, y0, w, h) for y0, h in _halves(r.y0, r.h) for x0, w in xs]


def build_tree(grid: DotGrid, people_per_dot: int, threshold: int,
               root_rect: Rect | None = None) -> QuadTree:
    """Grow the subdivision tree over ``root_rect`` (default: the whole grid).

    A node whose population fits the threshold becomes a leaf; anything
    larger is subdivided and its children grown in NW, NE, SW, SE order,
    each child's subtree before the next child, so node ids run in
    depth-first preorder. A 1x1 cell over the threshold cannot split and
    stays as an over-capacity leaf. Only the leaves are kept, each filed
    under its parent's id in the order the parents' first leaves grow.
    """
    next_id = max_depth = 0
    leaves: dict[int | None, list[Leaf]] = {}

    def grow(r: Rect, parent: int | None, depth: int) -> None:
        nonlocal next_id, max_depth
        nid = next_id
        next_id += 1
        max_depth = max(max_depth, depth)
        population = people_per_dot * grid.count_dots(r)
        if population <= threshold or r.area == 1:
            leaves.setdefault(parent, []).append(Leaf(nid, r, population))
        else:
            for q in subdivide(r):
                grow(q, nid, depth + 1)

    grow(root_rect if root_rect is not None else grid.bounds(), None, 0)
    del grow  # it holds itself; the cycle would keep the grid and leaves until a gc collection
    stats = TreeStats(nodes=next_id, leaves=sum(map(len, leaves.values())), max_depth=max_depth)
    return QuadTree(leaves=leaves, stats=stats)


def tree_stats(tree: QuadTree) -> TreeStats:
    """Node/leaf/depth counts, as recorded by ``build_tree``."""
    return tree.stats


def _units_connected(a: tuple[Leaf, ...], b: tuple[Leaf, ...]) -> bool:
    # Siblings tile their parent, so a unit of two or more quadrants borders
    # every other sibling, and two single leaves meet unless they are the
    # diagonal quadrants, the only siblings whose rects share no x0 or y0.
    return len(a) > 1 or len(b) > 1 or a[0].rect.x0 == b[0].rect.x0 or a[0].rect.y0 == b[0].rect.y0


def _merge_leaves(leaves: list[Leaf], threshold: int) -> list[tuple[Leaf, ...]]:
    units = [(leaf,) for leaf in leaves]
    pops = [leaf.population for leaf in leaves]
    while True:
        pair = next(((i, j) for i in range(len(units)) for j in range(i + 1, len(units))
                     if pops[i] + pops[j] <= threshold
                     and _units_connected(units[i], units[j])), None)
        if pair is None:
            return units
        i, j = pair
        # Folding j into the earlier i keeps the units in first-leaf order.
        units[i] = tuple(sorted(units[i] + units.pop(j)))
        pops[i] += pops.pop(j)


def merge_siblings(tree: QuadTree, threshold: int) -> dict[int | None, list[tuple[Leaf, ...]]]:
    """Merge same-parent leaves to a fixpoint, into tuples of leaves in id order.

    Per parent, candidate pairs are scanned in lexicographic order of the
    units' first leaves; the first pair whose combined population fits the
    threshold and whose union is edge-connected is merged, and the scan
    restarts. Merging never crosses parents. Keys are parent ids, ``None``
    for a root leaf, in the order each parent's first leaf grew, which is
    not parent preorder; each parent's units are in first-leaf order.
    """
    return {parent: _merge_leaves(leaves, threshold) for parent, leaves in tree.leaves.items()}


def delimit(scenario: Scenario) -> DelimitationResult:
    """Partition the scenario grid into constituencies.

    With state labels present, each state is delimited independently over its
    bounding region with all other states' dots masked out; constituency ids
    run sequentially across states in sorted label order, and within a state
    in depth-first order of each constituency's first leaf. A constituency
    is its merge unit's leaves: their rects in id order, their population.
    """
    grid = scenario.grid
    x, th = scenario.people_per_dot, scenario.threshold
    codes = scenario.label_codes

    constituencies: list[Constituency] = []
    all_stats: list[TreeStats] = []

    for code, state in enumerate(scenario.states or [None]):
        # A state's masked grid covers its bounding box, which roots its
        # tree; the grid is dropped once the tree is built.
        tree = build_tree(grid if state is None else grid.masked(codes == code), x, th)
        all_stats.append(tree.stats)
        # Units compare by their first leaf, whose id no other unit holds.
        units = sorted(u for us in merge_siblings(tree, th).values() for u in us)
        for cid, unit in enumerate(units, start=len(constituencies) + 1):
            # Siblings in id order are in (y0, x0) order.
            _, shape, pops = zip(*unit)
            pop = sum(pops)
            flags = _FLAG_SETS[pop > th, pop == 0]
            constituencies.append(Constituency(cid, shape, pop, flags, state))

    stats = TreeStats(
        nodes=sum(s.nodes for s in all_stats),
        leaves=sum(s.leaves for s in all_stats),
        max_depth=max(s.max_depth for s in all_stats),
    )
    return DelimitationResult(
        constituencies=constituencies,
        threshold=th,
        people_per_dot=x,
        width=grid.width,
        height=grid.height,
        stats=stats,
        state_labels=scenario.state_labels,
    )


def locate_with_visits(result: DelimitationResult, cx: int, cy: int) -> tuple[Constituency, int]:
    """Find the constituency containing cell (cx, cy); also return the number
    of tree nodes visited on the way (root and leaf included). The first root
    holding the cell, the cell's state's or else each state's in id order, is
    descended half by half to the indexed rect holding it."""
    if not (0 <= cx < result.width and 0 <= cy < result.height):
        raise ValueError(f"point ({cx}, {cy}) outside grid {result.width}x{result.height}")
    index = result._rect_index
    if result.state_labels is None:
        candidates = index.values()
    else:
        state = result.state_labels[cy][cx]
        candidates = [index[state]] if state in index else []
    for (x0, y0, w, h), table in candidates:
        if not (x0 <= cx < x0 + w and y0 <= cy < y0 + h):
            continue
        visits = 1
        while (found := table.get((x0, y0, w, h))) is None:
            if w == 1 and h == 1:
                raise ValueError(f"no constituency contains ({cx}, {cy})")
            # Indexing, not a generator per level, keeps the descent cheap.
            hx, hy = _halves(x0, w), _halves(y0, h)
            x0, w = hx[-1] if cx >= hx[-1][0] else hx[0]
            y0, h = hy[-1] if cy >= hy[-1][0] else hy[0]
            visits += 1
        return found, visits
    raise ValueError(f"no constituency contains ({cx}, {cy})")


def locate(result: DelimitationResult, cx: int, cy: int) -> Constituency:
    return locate_with_visits(result, cx, cy)[0]


def paint_cells(result: DelimitationResult) -> np.ndarray:
    """Cell-to-constituency-id map honouring state masks.

    Cells a shape covers outside its own state belong to that state's
    bounding box, not to the constituency, and are skipped. Unowned cells
    (impossible for a valid result) stay 0.
    """
    import numpy as np

    from .popgrid import encode_labels

    owner = np.zeros((result.height, result.width), dtype=np.int64)
    if result.state_labels is not None:
        # Int codes keep labels exact; numpy's fixed-width strings drop trailing NULs.
        codes, names = encode_labels(result.state_labels)
        code_of = {name: i for i, name in enumerate(names)}
    for c in result.constituencies:
        for x0, y0, w, h in c.shape:
            block = owner[y0:y0 + h, x0:x0 + w]
            if result.state_labels is None or c.state is None:
                block[:] = c.id
            else:
                block[codes[y0:y0 + h, x0:x0 + w] == code_of.get(c.state, -1)] = c.id
    return owner


# --- serialization -----------------------------------------------------------

# The document's fixed layout, as ``json.dumps(..., indent=2)`` lays it out; each flag
# set's list is rendered once.
_DOC = ('{\n  "count": %d,\n  "threshold": %d,\n  "peoplePerDot": %d,\n  "constituencies": [\n%s'
        '\n  ],\n  "stats": {\n    "nodes": %d,\n    "leaves": %d,\n    "maxDepth": %d\n  }\n}\n')
_ENTRY = ('    {\n      "id": %d,\n%s      "population": %d,\n      "flags": %s,\n'
          '      "rects": [\n%s\n      ]\n    }')
_RECT = "        [\n          %d,\n          %d,\n          %d,\n          %d\n        ]"
_FLAGS_TEXT = {fs: json.dumps(sorted(fs), indent=2).replace("\n", "\n      ")
               for fs in _FLAG_SETS.values()}


def result_to_json(result: DelimitationResult) -> str:
    """The result document, byte for byte ``json.dumps(..., indent=2)`` of its
    dict form (ASCII escapes in state labels) and a newline."""
    entries = []
    for c in result.constituencies:
        state = "" if c.state is None else '      "state": %s,\n' % json.dumps(c.state)
        entries.append(_ENTRY % (c.id, state, c.population, _FLAGS_TEXT[c.flags],
                                 ",\n".join([_RECT % r for r in c.shape])))
    s = result.stats
    return _DOC % (result.count, result.threshold, result.people_per_dot,
                   ",\n".join(entries), s.nodes, s.leaves, s.max_depth)


def _require(cond: bool, message: str, *args) -> None:
    if not cond:
        raise ResultFormatError(message % args)


def result_from_json(text: str) -> DelimitationResult:
    """Rebuild a result from its JSON form (no state labels: ``locate`` takes
    the first state root, in id order, that holds the cell). One pass tests each
    rule in turn and raises the message of the first that a document breaks."""
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
    width = height = 0
    for i, entry in enumerate(doc["constituencies"], start=1):
        if type(entry) is not dict:
            raise ResultFormatError(f"constituency #{i} must be an object")
        try:  # the first of the four keys that is missing raises
            cid, population = entry["id"], entry["population"]
            flags, quads = entry["flags"], entry["rects"]
        except KeyError as exc:
            raise ResultFormatError(f"constituency #{i} missing key '{exc.args[0]}'") from None
        if type(cid) is not int or cid != i:
            raise ResultFormatError(f"constituency ids must be sequential integers, got {cid}")
        if type(quads) is not list:
            raise ResultFormatError(f"constituency #{i}: 'rects' must be a list")
        shape = []
        for quad in quads:
            try:
                x0, y0, w, h = quad  # a 4-character str or 4-key object unpacks to strs
                if not type(x0) is type(y0) is type(w) is type(h) is int:
                    raise TypeError
            except (TypeError, ValueError):
                raise ResultFormatError(
                    f"constituency #{i}: rects must be [x0, y0, w, h] integers") from None
            if x0 < 0 or y0 < 0 or w < 1 or h < 1:
                try:  # Rect raises its own message
                    Rect(x0, y0, w, h)
                except ValueError as exc:
                    raise ResultFormatError(f"constituency #{i}: {exc}") from None
            shape.append(tuple.__new__(Rect, quad))
            if x0 + w > width:  # cheaper than max() for each rect
                width = x0 + w
            if y0 + h > height:
                height = y0 + h
        if not shape:
            raise ResultFormatError(f"constituency #{i} has no rects")
        if type(population) is not int or population < 0:
            raise ResultFormatError(f"constituency #{i}: population must be a non-negative integer")
        if not (type(flags) is list
                and flags.count(OVER_CAPACITY) + flags.count(ZERO_POPULATION) == len(flags)):
            raise ResultFormatError(f"constituency #{i}: flags must be a list of "
                                    f"'{OVER_CAPACITY}' and '{ZERO_POPULATION}'")
        if type(entry.get("state", "")) is not str:
            raise ResultFormatError(f"constituency #{i}: state must be a string")
        constituencies.append(Constituency(i, tuple(shape), population, _FLAG_SETS[
            OVER_CAPACITY in flags, ZERO_POPULATION in flags], entry.get("state")))
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

    return DelimitationResult(constituencies, doc["threshold"], doc["peoplePerDot"], width, height,
                              TreeStats(stats["nodes"], stats["leaves"], stats["maxDepth"]))


def check_result(result: DelimitationResult) -> None:
    """Raise ``ResultFormatError`` naming the first rule, of those every
    ``delimit`` result keeps, that a loaded result breaks: each constituency's
    flags, in id order, are those its population and the threshold give; then
    nodes >= leaves >= count."""
    for c in result.constituencies:
        flags = _FLAG_SETS[c.population > result.threshold, c.population == 0]
        if c.flags != flags:
            raise ResultFormatError(f"constituency #{c.id}: flags must be {sorted(flags)} for "
                                    f"population {c.population} at threshold {result.threshold}")
    s = result.stats
    _require(s.nodes >= s.leaves >= result.count, "stats must have nodes >= leaves >= count, "
             "got nodes %d, leaves %d, count %d", s.nodes, s.leaves, result.count)
