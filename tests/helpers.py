"""Shared fixtures: deterministic random scenario/instance generators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from quadlimit import DotGrid, Scenario, StateRecord

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code: str, *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports quadlimit
    from this checkout, so no module of an earlier test is loaded."""
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


def random_counts(rng: random.Random, width: int, height: int,
                  max_count: int = 9, zero_bias: float = 0.35):
    return [
        [0 if rng.random() < zero_bias else rng.randint(0, max_count)
         for _ in range(width)]
        for _ in range(height)
    ]


def random_state_labels(rng: random.Random, width: int, height: int):
    """Band-partition the grid into 2-4 states; bands are always connected."""
    n = rng.randint(2, 4)
    labels = [f"S{i}" for i in range(n)]
    vertical = rng.random() < 0.5
    span = width if vertical else height
    if span < n:
        n, labels = 1, ["S0"]
    cuts = sorted(rng.sample(range(1, span), n - 1)) if n > 1 else []
    bounds = [0, *cuts, span]

    def band(i):
        for b in range(len(bounds) - 1):
            if bounds[b] <= i < bounds[b + 1]:
                return labels[b]
        raise AssertionError

    return tuple(
        tuple(band(x if vertical else y) for x in range(width))
        for y in range(height)
    )


def random_staircase_labels(rng: random.Random, width: int, height: int):
    """2-3 columns by 1-2 rows of blocks whose vertical edges are staircases:
    down each block row, rows shift one cell further left every ``k`` rows
    (at most a block width less one), so each state is edge-connected, not
    a rectangle, and neighbouring bounding boxes overlap. Needs width >= 6
    and height >= 2."""
    nx, ny, k = rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 3)
    bw, bh = width // nx, height // ny

    def state(x, y):
        block_row = min(y // bh, ny - 1)
        shift = min((y - block_row * bh) // k, bw - 1)
        return f"S{block_row * nx + min((x + shift) // bw, nx - 1)}"

    return tuple(tuple(state(x, y) for x in range(width)) for y in range(height))


def random_l_labels(rng: random.Random, width: int, height: int):
    """State B in the top-right corner, optionally C in the bottom-left one,
    and the L- or S-shaped rest A around them; a full row of A between B
    and C keeps A connected. Needs width >= 2 and height >= 3."""
    wb, hb = rng.randint(1, width - 1), rng.randint(1, height - 2)
    hc = rng.randint(0, height - hb - 1)
    wc = rng.randint(1, width - 1)

    def state(x, y):
        if y < hb and x >= width - wb:
            return "B"
        if y >= height - hc and x < wc:
            return "C"
        return "A"

    return tuple(tuple(state(x, y) for x in range(width)) for y in range(height))


def random_scenario(rng: random.Random, max_dim: int = 64,
                    with_states: bool | None = None, min_dim: int = 1,
                    labeller=random_state_labels) -> Scenario:
    width = rng.randint(min_dim, max_dim)
    height = rng.randint(min_dim, max_dim)
    counts = random_counts(rng, width, height)
    grid = DotGrid(counts)
    x = rng.choice([1, 1, 5, 100, 500, rng.randint(1, 1000)])
    total = x * grid.total_dots
    # Thresholds spread from forcing deep subdivision to a single region.
    threshold = rng.choice([
        max(1, x),
        max(1, total // 20 if total else 1),
        max(1, total // 4 if total else 1),
        max(1, total + rng.randint(0, 10)),
        rng.randint(1, max(1, total + 1)),
    ])
    labeled = with_states if with_states is not None else rng.random() < 0.25
    labels = labeller(rng, width, height) if labeled else None
    return Scenario(grid=grid, people_per_dot=x, threshold=threshold,
                    state_labels=labels)


def random_apportionment_instance(rng: random.Random, max_states: int = 10,
                                  max_seats: int = 100):
    n = rng.randint(1, max_states)
    states = [StateRecord(f"S{i:02d}", rng.randint(1, 1_000_000))
              for i in range(n)]
    seats = rng.randint(n, max_seats)
    return states, seats


def scenario_text(counts, x, th, labels=None) -> str:
    height = len(counts)
    width = len(counts[0])
    lines = [f"{width} {height} {x} {th}"]
    lines += [" ".join(str(v) for v in row) for row in counts]
    if labels is not None:
        lines.append("STATES")
        lines += [" ".join(row) for row in labels]
    return "\n".join(lines) + "\n"


# A result document that ``delimit`` cannot write: (1,0,2,1) is no node of
# the 3x1 tree, whose root halves into (0,0,2,1) and (2,0,1,1).
THREE_BY_ONE = {
    "count": 2, "threshold": 5, "peoplePerDot": 1,
    "constituencies": [
        {"id": 1, "population": 1, "flags": [], "rects": [[0, 0, 1, 1]]},
        {"id": 2, "population": 2, "flags": [], "rects": [[1, 0, 2, 1]]},
    ],
    "stats": {"nodes": 3, "leaves": 2, "maxDepth": 1},
}

# A document that loads but that ``delimit`` cannot write, on the 3x1 map
# ``REPRO_MAP``: population 3 under threshold 5 carries both flags, and the
# stats count fewer nodes than leaves. With its flags emptied, only the stats
# rule is broken.
REPRO_MAP = "3 1 1 5\n1 1 1\n"
FLAGS_AND_STATS_BROKEN = {
    "count": 1, "threshold": 5, "peoplePerDot": 1,
    "constituencies": [
        {"id": 1, "population": 3, "flags": ["overCapacity", "zeroPopulation"],
         "rects": [[0, 0, 3, 1], [0, 0, 3, 1]]},
    ],
    "stats": {"nodes": 0, "leaves": 9, "maxDepth": 0},
}

# Nested deeper than ``json.loads`` can recurse: it raises RecursionError.
DEEP_JSON = "[" * 100000 + "]" * 100000

# States "A" and "A\0" (the NUL is part of the token); numpy's fixed-width
# strings would read both as "A". "A" owns cell (1, 1) only.
NUL_LABELS_TEXT = "2 2 1 10\n1 1\n1 1\nSTATES\nA\0 A\0\nA\0 A\n"
