"""The public calls that perfbench/run.py makes, replayed on state maps whose
bounding boxes overlap.

A traced benchmark run rebuilds ``delimit`` from its public steps and
compares the counts; a change that lives only inside ``delimit`` would make
the two disagree. These tests make the same calls with the same arguments.
"""

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadlimit import DotGrid, Rect, RenderStyle, Scenario, boundary_loops, build_tree, delimit, \
    locate, merge_siblings, render_svg, result_from_json, result_to_json, tree_stats
from quadlimit.render import constituency_cells

from helpers import random_l_labels, random_scenario, random_staircase_labels
from oracles import boundary_edge_set, path_edge_set, svg_constituency_paths

LABELLERS = [random_staircase_labels, random_l_labels]


def replay_delimit(scenario):
    """Node, leaf, depth and unit counts from the benchmark's replay steps:
    masks from ``label_array``, ``masked``, ``build_tree`` rooted at the
    mask's ``np.nonzero`` bounding box (the whole grid, ``root_rect=None``,
    when unlabelled), ``merge_siblings`` and ``tree_stats``."""
    x, th = scenario.people_per_dot, scenario.threshold
    labels = scenario.label_array()
    nodes = leaves = depth = units = 0
    for state in scenario.states or [None]:
        grid, root = scenario.grid, None
        if state is not None:
            mask = labels == state
            grid = scenario.grid.masked(mask)
            ys, xs = np.nonzero(mask)
            root = Rect(int(xs.min()), int(ys.min()),
                        int(xs.max() - xs.min()) + 1, int(ys.max() - ys.min()) + 1)
        tree = build_tree(grid, x, th, root_rect=root)
        merged = merge_siblings(tree, th)
        stats = tree_stats(tree)
        nodes, leaves = nodes + stats.nodes, leaves + stats.leaves
        depth = max(depth, stats.max_depth)
        units += sum(len(u) for u in merged.values())
    return nodes, leaves, depth, units


def scenarios(labeller, seed, n=12):
    """Labelled by ``labeller``, or unlabelled when it is None."""
    rng = random.Random(seed)
    kwargs = {"with_states": False} if labeller is None \
        else {"with_states": True, "labeller": labeller}
    return [random_scenario(rng, max_dim=24, min_dim=6, **kwargs) for _ in range(n)]


@pytest.mark.parametrize("labeller", [None, *LABELLERS])
def test_replayed_steps_agree_with_delimit(labeller):
    cases = scenarios(labeller, 91)
    if labeller is None:  # a root leaf files its one unit under merge_siblings' key None
        root_leaf = Scenario(grid=DotGrid([[1, 2], [3, 4]]), people_per_dot=1, threshold=10)
        assert list(merge_siblings(build_tree(root_leaf.grid, 1, 10), 10)) == [None]
        cases.append(root_leaf)
    for s in cases:
        result = delimit(s)
        assert replay_delimit(s) == (result.stats.nodes, result.stats.leaves,
                                     result.stats.max_depth, result.count)


@pytest.mark.parametrize("labeller", LABELLERS)
def test_outline_and_render_calls(labeller):
    flat = RenderStyle(draw_dots=False)
    for s in scenarios(labeller, 93, n=6):
        result = delimit(s)
        for c in result.constituencies:
            cells = constituency_cells(c)
            d = " ".join("M " + " L ".join(f"{x} {y}" for x, y in loop) + " Z"
                         for loop in boundary_loops(cells))
            assert path_edge_set(d) == boundary_edge_set(cells)
        bare = render_svg(dataclasses.replace(result, state_labels=None), s.grid, flat)
        full = render_svg(result, s.grid, flat)
        assert 'id="states"' not in bare and 'id="states"' in full
        assert svg_constituency_paths(bare) == svg_constituency_paths(full)


@pytest.mark.parametrize("draw_dots", [False, True])
def test_render_style_calls(draw_dots):
    # A style per workload, the same style without dots, and the default cell size.
    s = scenarios(random_l_labels, 99, n=1)[0]
    result = delimit(s)
    style = RenderStyle(draw_dots=draw_dots)
    assert ('<g id="dots"' in render_svg(result, s.grid, style)) == draw_dots
    no_dots = render_svg(result, s.grid, dataclasses.replace(style, draw_dots=False))
    assert 'id="dots"' not in no_dots and 'id="states"' in no_dots
    assert RenderStyle().cell_size_px == 24


@pytest.mark.parametrize("labeller", LABELLERS)
def test_scenario_from_state_labels(labeller):
    # The scenario's own labels, a plain tuple of tuples and a list of lists.
    for s in scenarios(labeller, 95, n=6):
        svg = render_svg(delimit(s), s.grid)
        for labels in (s.state_labels, tuple(map(tuple, s.state_labels)),
                       [list(row) for row in s.state_labels]):
            again = Scenario(grid=s.grid, people_per_dot=s.people_per_dot,
                             threshold=s.threshold, state_labels=labels)
            assert again.states == s.states
            assert np.array_equal(again.label_codes, s.label_codes)
            result = delimit(again)
            assert result.constituencies == delimit(s).constituencies
            assert render_svg(result, again.grid) == svg


def descending_id_paint(result):
    """Cell -> lowest id whose rects cover it, whatever its state: the rects
    painted from the highest id down."""
    paint = np.zeros((result.height, result.width), dtype=np.int64)
    for c in reversed(result.constituencies):
        for r in c.shape:
            paint[r.y0:r.y0 + r.h, r.x0:r.x0 + r.w] = c.id
    return paint


@pytest.mark.parametrize("labeller", LABELLERS)
def test_loaded_locate_answers(labeller):
    # The benchmark counts a loaded answer from another state whose rects
    # cover the cell as the known bounding-box fault; those answers, and so
    # its failed count, must stay as they are.
    other_state = 0
    for s in scenarios(labeller, 97, n=8):
        result = delimit(s)
        loaded = result_from_json(result_to_json(result))
        paint = descending_id_paint(result)
        for y in range(s.grid.height):
            for x in range(s.grid.width):
                got = locate(loaded, x, y)
                assert got.id == paint[y, x]
                other_state += got.state != s.state_labels[y][x]
    assert other_state > 0


def test_benchmark_self_test_passes():
    # One benchmark round on a small version of each workload, its checks on
    # the true outputs, and their rejection of corrupted ones.
    bench = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
    done = subprocess.run([sys.executable, str(bench)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
