"""Output checks that do not rely on quadlimit's own code paths.

The ground truth is the generated raster and state layout (workloads.py).
Results are read back through the standard-library JSON parser and plain
attribute access; ownership, populations, connectivity, outlines and the
apportionment criteria are recomputed here with numpy and exact integers.
Every function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

OVER_CAPACITY = "overCapacity"
ZERO_POPULATION = "zeroPopulation"
OUTLINE_SAMPLE = 64  # constituencies whose SVG outline is re-traced


@dataclass
class Truth:
    counts: np.ndarray              # (H, W) dots per cell
    states: np.ndarray | None       # (H, W) state number, None if unlabelled
    names: list[str]                # state number -> label
    people_per_dot: int
    threshold: int


@dataclass
class Outputs:
    """What one pipeline round produced."""
    result: object                  # in-memory DelimitationResult
    text: str                       # result_to_json(result)
    loaded: object                  # result_from_json(text)
    mem_answers: list[int]          # locate(result, ...) ids
    loaded_answers: list[int]       # locate(loaded, ...) ids
    svg: str
    state_pops: list[tuple[str, int]]
    seats: dict[str, dict[str, int]]  # method -> label -> seats
    house: int


def owner_raster(doc: dict, truth: Truth) -> tuple[np.ndarray, list[str]]:
    """Cell -> constituency id, from each entry's rects intersected with its
    state's cells. Problems name cells owned zero or several times."""
    h, w = truth.counts.shape
    owner = np.zeros((h, w), dtype=np.int64)
    cover = np.zeros((h, w), dtype=np.int32)
    index = {name: i for i, name in enumerate(truth.names)}
    for entry in doc["constituencies"]:
        for x0, y0, rw, rh in entry["rects"]:
            window = (slice(y0, y0 + rh), slice(x0, x0 + rw))
            if truth.states is None:
                sel = np.ones((rh, rw), dtype=bool)
            else:  # an unknown state owns nothing, so its cells show as unowned
                sel = truth.states[window] == index.get(entry.get("state"), -1)
            cover[window] += sel
            owner[window][sel] = entry["id"]
    problems = []
    if (cover == 0).any():
        problems.append(f"{int((cover == 0).sum())} cells owned by no constituency")
    if (cover > 1).any():
        problems.append(f"{int((cover > 1).sum())} cells owned more than once")
    return owner, problems


def check_constituencies(doc: dict, owner: np.ndarray, truth: Truth) -> list[str]:
    """Ids, populations, threshold and flag rules against the owned cells."""
    problems = []
    entries = doc["constituencies"]
    n = len(entries)
    if [e["id"] for e in entries] != list(range(1, n + 1)):
        problems.append("constituency ids are not 1..n")
        return problems
    if doc["count"] != n:
        problems.append(f"count {doc['count']} != {n} constituencies")
    if (doc["threshold"], doc["peoplePerDot"]) != (truth.threshold, truth.people_per_dot):
        problems.append("threshold or peoplePerDot differ from the scenario")
    dots = np.bincount(owner.ravel(), weights=truth.counts.ravel().astype(np.float64),
                       minlength=n + 1)
    cells = np.bincount(owner.ravel(), minlength=n + 1)
    for e in entries:
        cid, pop = e["id"], e["population"]
        want = truth.people_per_dot * int(dots[cid])  # exact: sums stay below 2**53
        if pop != want:
            problems.append(f"c{cid}: population {pop}, owned cells hold {want}")
        flags = set()
        if pop > truth.threshold:
            flags.add(OVER_CAPACITY)
            if cells[cid] != 1:
                problems.append(f"c{cid}: over the threshold with {cells[cid]} cells")
        if pop == 0:
            flags.add(ZERO_POPULATION)
        if set(e["flags"]) != flags or len(e["flags"]) != len(flags):
            problems.append(f"c{cid}: flags {e['flags']}, expected {sorted(flags)}")
        if truth.states is not None and e.get("state") not in truth.names:
            problems.append(f"c{cid}: unknown state {e.get('state')!r}")
    return problems[:20]


def components(owner: np.ndarray) -> np.ndarray:
    """Edge-connected component label per cell, cells joined when they have
    the same owner; min-label propagation with pointer jumping."""
    h, w = owner.shape
    comp = np.arange(h * w, dtype=np.int64).reshape(h, w)
    same_right = owner[:, :-1] == owner[:, 1:]
    same_down = owner[:-1, :] == owner[1:, :]
    while True:
        before = comp.copy()
        right = np.minimum(comp[:, :-1], comp[:, 1:])
        comp[:, :-1] = np.where(same_right, right, comp[:, :-1])
        comp[:, 1:] = np.where(same_right, np.minimum(comp[:, 1:], right), comp[:, 1:])
        down = np.minimum(comp[:-1, :], comp[1:, :])
        comp[:-1, :] = np.where(same_down, down, comp[:-1, :])
        comp[1:, :] = np.where(same_down, np.minimum(comp[1:, :], down), comp[1:, :])
        flat = comp.ravel()
        flat[:] = flat[flat]  # jump to the label's own label
        if np.array_equal(comp, before):
            return comp


def check_connected(owner: np.ndarray) -> list[str]:
    comp = components(owner)
    pairs = np.unique(np.stack([owner.ravel(), comp.ravel()]), axis=1)
    per_owner = np.bincount(pairs[0])
    split = np.nonzero(per_owner > 1)[0]
    return [f"c{cid} is not edge-connected ({per_owner[cid]} pieces)" for cid in split[:20]]


def _entry_fields(c) -> tuple:
    return (c.id, c.state, c.population, sorted(c.flags),
            [[r.x0, r.y0, r.w, r.h] for r in c.shape])


def check_round_trip(doc: dict, result, loaded) -> list[str]:
    """In-memory result, its JSON document and the reloaded result agree."""
    problems = []
    want = [(e["id"], e.get("state"), e["population"], e["flags"], e["rects"])
            for e in doc["constituencies"]]
    for name, res in (("in-memory result", result), ("loaded result", loaded)):
        got = [_entry_fields(c) for c in res.constituencies]
        if got != want:
            differ = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
            problems.append(f"{name} differs from its JSON in {differ} constituencies")
    return problems


def check_locate(mem_points, mem_answers, loaded_points, loaded_answers, owner, doc,
                 truth: Truth) -> tuple[list[str], int]:
    """In-memory answers must match the owner raster. A loaded answer that
    names a constituency of another state whose rects cover the cell is the
    known bounding-box fault and counts as failed; any other mismatch is a
    problem."""
    problems, failed = [], 0
    if (len(mem_answers), len(loaded_answers)) != (len(mem_points), len(loaded_points)):
        return ["locate answered a different number of queries than asked"], 0
    for (x, y), got in zip(mem_points, mem_answers):
        if got != owner[y, x]:
            problems.append(f"locate({x}, {y}) in memory gave c{got}, owner c{owner[y, x]}")
    entries = doc["constituencies"]
    for (x, y), got in zip(loaded_points, loaded_answers):
        if got == owner[y, x]:
            continue
        if not 1 <= got <= len(entries):
            problems.append(f"locate({x}, {y}) on loaded result gave unknown c{got}")
            continue
        entry = entries[got - 1]
        covers = any(x0 <= x < x0 + w and y0 <= y < y0 + h
                     for x0, y0, w, h in entry["rects"])
        if truth.states is not None and covers \
                and entry["state"] != truth.names[truth.states[y, x]]:
            failed += 1
        else:
            problems.append(f"locate({x}, {y}) on loaded result gave c{got}, "
                            f"owner c{owner[y, x]}")
    return problems[:20], failed


_PATH = re.compile(r'<path id="c(\d+)" d="([^"]*)"/>')


def _path_edges(d: str, scale: int) -> set:
    """Unit cell edges traced by an SVG path of M/L/Z loops."""
    edges = set()
    for loop in d.split("M")[1:]:
        nums = [int(v) for v in loop.replace("L", " ").replace("Z", " ").split()]
        pts = [(nums[i] // scale, nums[i + 1] // scale) for i in range(0, len(nums), 2)]
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            if ax == bx:
                edges |= {((ax, y), (ax, y + 1)) for y in range(min(ay, by), max(ay, by))}
            else:
                edges |= {((x, ay), (x + 1, ay)) for x in range(min(ax, bx), max(ax, bx))}
    return edges


def _cell_edges(owner: np.ndarray, cid: int) -> set:
    """Unit edges between a constituency's cells and any other cell."""
    padded = np.pad(owner, 1) == cid
    inside = padded[1:-1, 1:-1]
    edges = set()
    for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        other = padded[1 + dy:padded.shape[0] - 1 + dy, 1 + dx:padded.shape[1] - 1 + dx]
        for y, x in zip(*np.nonzero(inside & ~other)):
            x, y = int(x), int(y)
            if dy:
                yy = y if dy < 0 else y + 1
                edges.add(((x, yy), (x + 1, yy)))
            else:
                xx = x if dx < 0 else x + 1
                edges.add(((xx, y), (xx, y + 1)))
    return edges


def check_svg(svg: str, owner: np.ndarray, truth: Truth, n: int, draw_dots: bool,
              cell_px: int, sample_outlines: bool) -> list[str]:
    problems = []
    paths = {int(cid): d for cid, d in _PATH.findall(svg)}
    if sorted(paths) != list(range(1, n + 1)):
        problems.append(f"{len(paths)} constituency paths for {n} constituencies")
    n_states = 0 if truth.states is None else len(np.unique(truth.states))
    state_paths = svg.count('<path id="state-')
    if state_paths != n_states:
        problems.append(f"{state_paths} state paths for {n_states} states")
    circles = svg.count("<circle ")
    want = int(truth.counts.sum()) if draw_dots else 0
    if circles != want:
        problems.append(f"{circles} circles for {want} dots")
    if sample_outlines and not problems:
        rng = np.random.default_rng(n)
        for cid in sorted(rng.choice(np.arange(1, n + 1), min(n, OUTLINE_SAMPLE), replace=False)):
            if _path_edges(paths[int(cid)], cell_px) != _cell_edges(owner, int(cid)):
                problems.append(f"outline of c{cid} differs from its owned cells")
    return problems[:20]


def _divisor_ok(seats: dict[str, int], pops: dict[str, int], method: str) -> bool:
    """The seats admit one divisor: the highest next-seat priority does not
    beat the lowest priority among seats already given."""
    if method == "jefferson":
        up = lambda p, s: Fraction(p, s + 1)
        down = lambda p, s: Fraction(p, s) if s >= 1 else None
    elif method == "webster":
        up = lambda p, s: Fraction(2 * p, 2 * s + 1)
        down = lambda p, s: Fraction(2 * p, 2 * s - 1) if s >= 1 else None
    else:  # huntington-hill, compared as squares; every state keeps one seat
        if min(seats.values()) < 1:
            return False
        up = lambda p, s: Fraction(p * p, s * (s + 1))
        down = lambda p, s: Fraction(p * p, (s - 1) * s) if s >= 2 else None
    highest_next = max(up(pops[k], s) for k, s in seats.items())
    given = [v for v in (down(pops[k], s) for k, s in seats.items()) if v is not None]
    return not given or highest_next <= min(given)


def check_apportionment(state_pops, seats_by_method, house, truth: Truth) -> list[str]:
    problems = []
    if truth.states is None:
        want = [("all", truth.people_per_dot * int(truth.counts.sum()))]
    else:
        sums = np.bincount(truth.states.ravel(), weights=truth.counts.ravel().astype(np.float64))
        want = [(truth.names[i], truth.people_per_dot * int(s)) for i, s in enumerate(sums)]
    if list(state_pops) != want:
        problems.append("state populations differ from the raster sums")
    pops = dict(want)
    total = sum(pops.values())
    for method, seats in seats_by_method.items():
        if sum(seats.values()) != house or set(seats) != set(pops):
            problems.append(f"{method}: seats do not sum to the house {house}")
        elif method == "hamilton":
            for k, s in seats.items():
                quota = Fraction(pops[k] * house, total)
                if not math.floor(quota) <= s <= math.ceil(quota):
                    problems.append(f"hamilton: {k} gets {s}, quota {float(quota):.3f}")
        elif not _divisor_ok(seats, pops, method):
            problems.append(f"{method}: no divisor gives these seats")
    return problems


def check_outputs(out: Outputs, truth: Truth, mem_points, loaded_points, draw_dots: bool,
                  cell_px: int, connected: bool) -> tuple[list[str], int]:
    """All checks on one round's outputs: (problems, named-fault failures)."""
    doc = json.loads(out.text)
    owner, problems = owner_raster(doc, truth)
    problems += check_constituencies(doc, owner, truth)
    if connected:
        problems += check_connected(owner)
    problems += check_round_trip(doc, out.result, out.loaded)
    locate_problems, failed = check_locate(mem_points, out.mem_answers, loaded_points,
                                           out.loaded_answers, owner, doc, truth)
    problems += locate_problems
    problems += check_svg(out.svg, owner, truth, len(doc["constituencies"]), draw_dots,
                          cell_px, sample_outlines=connected)
    problems += check_apportionment(out.state_pops, out.seats, out.house, truth)
    return problems, failed
