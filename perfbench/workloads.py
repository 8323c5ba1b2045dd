"""Seeded inputs for the two benchmark workloads.

This module uses numpy only, never quadlimit, so the inputs and the ground
truth the checks compare against come from code the program does not share.

Run as a script it writes one workload's scenario file:

    python3 perfbench/workloads.py <workload> <seed> <out-path>
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Query points come from this fixed seed, not from --seed: the count of
# locate answers hit by the known fault on states-512 then depends only on
# the fixed state layout, and is the same in every run.
QUERY_SEED = 240209336


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    people_per_dot: int
    threshold: int
    labelled: bool
    draw_dots: bool
    mem_queries: int
    loaded_queries: int


WORKLOADS = {
    # ~7.4k constituencies from one deep tree; no states, rendered without
    # dots (the default style would write ~7.3M circles).
    "lognormal-1024": Workload("lognormal-1024", 1024, people_per_dot=1,
                               threshold=1470, labelled=False, draw_dots=False,
                               mem_queries=2000, loaded_queries=100),
    # 64 staircase-shaped states on a sparse raster; ~1.5k constituencies in
    # shallow trees, rendered with the default style.
    "states-512": Workload("states-512", 512, people_per_dot=100,
                           threshold=3000, labelled=True, draw_dots=True,
                           mem_queries=2000, loaded_queries=200),
}

STATE_BLOCK = 64  # states are 64x64 blocks before the staircase shift


def state_index(wl: Workload) -> np.ndarray | None:
    """Per-cell state number, or None for an unlabelled workload.

    An 8x8 layout of blocks whose vertical edges are staircases: every
    8 rows the row is shifted 4 cells further left, so each state is
    edge-connected but not a rectangle, and neighbouring bounding boxes
    overlap. The layout does not depend on the seed.
    """
    if not wl.labelled:
        return None
    n, b = wl.size, STATE_BLOCK
    y = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    shift = 4 * ((y % b) // 8)
    column = np.minimum((x + shift) // b, n // b - 1)
    return (y // b) * (n // b) + column


def state_names(count: int) -> list[str]:
    """Zero-padded, so sorted label order is state-number order."""
    return [f"S{i:02d}" for i in range(count)]


def make_counts(wl: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if not wl.labelled:
        # Heavy-tailed like census grids: floor(lognormal(0, 2)) dots.
        return np.floor(rng.lognormal(0.0, 2.0, (wl.size, wl.size))).astype(np.int64)
    index = state_index(wl)
    # Sparse dots. State densities differ by an order of magnitude, which
    # gives apportionment work; the seed only permutes a fixed set of
    # densities over the states, so the total work varies little by seed.
    fixed = np.random.default_rng(QUERY_SEED)
    density = 0.1 * np.exp(fixed.normal(0.0, 0.7, int(index.max()) + 1))
    return rng.poisson(rng.permutation(density)[index]).astype(np.int64)


def query_points(wl: Workload, count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(QUERY_SEED)
    xy = rng.integers(0, wl.size, (count, 2))
    return [(int(x), int(y)) for x, y in xy]


def scenario_text(wl: Workload, seed: int) -> str:
    counts = make_counts(wl, seed)
    lines = [f"# {wl.name}, seed {seed}",
             f"{wl.size} {wl.size} {wl.people_per_dot} {wl.threshold}"]
    lines += [" ".join(map(str, row)) for row in counts.tolist()]
    index = state_index(wl)
    if index is not None:
        names = state_names(int(index.max()) + 1)
        lines.append("STATES")
        lines += [" ".join(names[i] for i in row) for row in index.tolist()]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(WORKLOADS[name], seed))
