import dataclasses
import json
import random
import re
import time
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import DotGrid, RenderStyle, Scenario, boundary_loops, delimit, \
    load_scenario, render, render_ascii_grid, render_svg, result_from_json
from quadlimit.popgrid import outline_loops

from helpers import NUL_LABELS_TEXT, random_scenario, scenario_text
from oracles import boundary_edge_set, boundary_loops_reference, path_edge_set, \
    rasterize_path, rect_cells, svg_constituency_paths

FLAT = RenderStyle(draw_dots=False)


def l_shaped_scenario():
    # 3x3 split; NW, NE and SW merge into an L, SE stays an over-capacity cell.
    counts = [[1, 0, 1], [0, 0, 0], [1, 0, 9]]
    return load_scenario(scenario_text(counts, 1, 5))


@st.composite
def cell_sets(draw):
    """Non-empty cell sets in a box of up to 8x8 at a drawn density: dense
    ones have holes, sparse ones have cells that meet only at a corner."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    density = draw(st.integers(20, 90))
    rolls = draw(st.lists(st.integers(0, 99), min_size=w * h, max_size=w * h))
    cells = {(i % w, i // w) for i, roll in enumerate(rolls) if roll < density}
    return cells or {(0, 0)}


@st.composite
def id_rasters(draw):
    """Rasters of up to 12x12 over a few of the ids 0-5 (0 is no id)."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    palette = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    values = draw(st.lists(st.sampled_from(palette), min_size=w * h, max_size=w * h))
    return np.array(values).reshape(h, w)


class TestBoundaryLoops:
    def test_no_cells(self):
        assert boundary_loops(set()) == []

    def test_single_cell(self):
        loops = boundary_loops({(0, 0)})
        assert loops == [[(0, 0), (1, 0), (1, 1), (0, 1)]]

    def test_rectangle_collapses_collinear(self):
        loops = boundary_loops(rect_cells(1, 1, 3, 2))
        assert loops == [[(1, 1), (4, 1), (4, 3), (1, 3)]]

    def test_l_shape_has_six_corners(self):
        cells = rect_cells(0, 0, 3, 3) - {(2, 2)}
        loops = boundary_loops(cells)
        assert len(loops) == 1
        assert len(loops[0]) == 6

    def test_two_separate_components_two_loops(self):
        loops = boundary_loops({(0, 0), (2, 0)})
        assert len(loops) == 2

    def test_loops_match_edge_cancellation(self):
        rng = random.Random(12)
        for _ in range(30):
            cells = {(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(1, 20))}
            loops = boundary_loops(cells)
            d = " ".join(
                "M " + " L ".join(f"{x} {y}" for x, y in loop) + " Z"
                for loop in loops)
            assert path_edge_set(d) == boundary_edge_set(cells)

    def test_many_holes_trace_quickly(self):
        # A one-cell hole at every odd (x, y) off the border: 79 * 79 holes
        # and the outline. Starting each loop with a min over every vertex
        # left took 11.6 s here.
        n = 160
        cells = {(x, y) for x in range(n) for y in range(n) if not (x % 2 and y % 2)}
        start = time.perf_counter()
        loops = boundary_loops(cells)
        assert time.perf_counter() - start < 3.0
        assert len(loops) == 79 * 79 + 1

    @given(cell_sets())
    @example(rect_cells(0, 0, 3, 3) - {(1, 1)})  # hole
    @example({(0, 0), (1, 1)})  # pinch
    @example(rect_cells(0, 0, 3, 2) - {(1, 0), (0, 1)})  # pinch on the top row
    @example(rect_cells(0, 0, 5, 5) - rect_cells(1, 1, 3, 3) | {(2, 2)})  # island
    @example(rect_cells(0, 0, 4, 4) - {(1, 1), (2, 2)})  # pinch inside a hole
    @settings(max_examples=400)
    def test_matches_trace_then_collapse_oracle(self, cells):
        assert boundary_loops(cells) == boundary_loops_reference(cells)

    @given(id_rasters())
    @example(np.array([[1, 1, 1, 0], [1, 2, 1, 0], [1, 1, 1, 3]]))  # id 2 in id 1's hole
    @example(np.array([[1, 0, 0], [0, 2, 2], [0, 2, 0]]))  # ids 1 and 2 meet at a corner
    @example(np.array([[4, 4, 4], [4, 0, 5], [4, 4, 4]]))  # id 4 along three borders
    @settings(max_examples=400)
    def test_traced_raster_matches_oracle_per_id(self, ids):
        h, w = ids.shape
        padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
        padded[1:-1, 1:-1] = ids
        loops = outline_loops(padded, 3, 1)
        assert set(loops) == set(np.unique(ids).tolist()) - {0}
        for k, got in loops.items():
            ys, xs = np.nonzero(ids == k)
            assert got == boundary_loops_reference(set(zip((xs + 3).tolist(), (ys + 1).tolist())))


class TestRenderSvg:
    def test_single_constituency_single_path(self):
        s = load_scenario("4 4 10 1000\n" + "1 1 1 1\n" * 4)
        svg = render_svg(delimit(s), s.grid, FLAT)
        paths = svg_constituency_paths(svg)
        assert list(paths) == [1]
        assert paths[1].count("M") == 1
        assert rasterize_path(paths[1], 4, 4, 24) == rect_cells(0, 0, 4, 4)

    def test_16_equal_square_paths(self):
        s = load_scenario(scenario_text([[1] * 16 for _ in range(16)], 100, 1600))
        result = delimit(s)
        svg = render_svg(result, s.grid, FLAT)
        paths = svg_constituency_paths(svg)
        assert sorted(paths) == list(range(1, 17))
        for cid, d in paths.items():
            cells = rasterize_path(d, 16, 16, 24)
            assert len(cells) == 16
            assert cells == {c for r in result.by_id(cid).shape for c in r.cells()}

    def test_merged_l_shape_single_six_segment_outline(self):
        s = l_shaped_scenario()
        result = delimit(s)
        assert len(result.constituencies) == 2
        assert len(result.constituencies[0].shape) > 1
        svg = render_svg(result, s.grid, FLAT)
        d = svg_constituency_paths(svg)[1]
        assert d.count("M") == 1 and d.count("Z") == 1
        assert d.count("L") == 5  # six vertices: one M plus five L
        expected_cells = rect_cells(0, 0, 3, 3) - {(2, 2)}
        assert rasterize_path(d, 3, 3, 24) == expected_cells
        assert path_edge_set(d, 24) == boundary_edge_set(expected_cells)

    def test_drawn_edges_are_exactly_inter_constituency_edges(self):
        rng = random.Random(40)
        for _ in range(15):
            s = random_scenario(rng, max_dim=12, with_states=False)
            result = delimit(s)
            svg = render_svg(result, s.grid, FLAT)
            drawn = set()
            for d in svg_constituency_paths(svg).values():
                drawn |= path_edge_set(d, 24)
            expected = set()
            for c in result.constituencies:
                expected |= boundary_edge_set(
                    {cell for r in c.shape for cell in r.cells()})
            assert drawn == expected

    def test_dots_rendered_on_subgrid(self):
        s = load_scenario("2 1 10 1000\n1 4\n")
        svg = render_svg(delimit(s), s.grid, RenderStyle())
        circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
        assert len(circles) == 5
        # Lone dot sits at its cell center; 4 dots form a 2x2 subgrid.
        assert circles[0] == ("12.00", "12.00")
        assert circles[1:] == [("30.00", "6.00"), ("42.00", "6.00"),
                               ("30.00", "18.00"), ("42.00", "18.00")]

    def test_state_boundaries_drawn_over_constituencies(self):
        counts = [[1] * 4 for _ in range(4)]
        labels = [["A", "A", "B", "B"]] * 4
        s = load_scenario(scenario_text(counts, 100, 400, labels))
        svg = render_svg(delimit(s), s.grid)
        assert svg.index('id="constituencies"') < svg.index('id="states"')
        assert '<path id="state-A"' in svg
        assert '<path id="state-B"' in svg
        assert 'stroke="blue"' in svg

    def test_state_outlines_in_sorted_label_order(self):
        # Row-major, C's cells come first and A's last; paths run A, B, C.
        counts = [[1] * 3 for _ in range(2)]
        labels = [["C", "B", "B"], ["C", "A", "A"]]
        s = load_scenario(scenario_text(counts, 1, 100, labels))
        svg = render_svg(delimit(s), s.grid)
        assert re.findall(r'id="state-(\w+)" d="([^"]*)"', svg) == [
            ("A", "M 24 24 L 72 24 L 72 48 L 24 48 Z"),
            ("B", "M 24 0 L 72 0 L 72 24 L 24 24 Z"),
            ("C", "M 0 0 L 24 0 L 24 48 L 0 48 Z"),
        ]

    def test_overlapping_rects_outline_each_constituency_whole(self):
        # A malformed document may give two constituencies the same cell;
        # each is still outlined around all of its own rects.
        doc = {"count": 2, "threshold": 5, "peoplePerDot": 1,
               "constituencies": [
                   {"id": 1, "population": 1, "flags": [], "rects": [[0, 0, 2, 2]]},
                   {"id": 2, "population": 1, "flags": [], "rects": [[1, 1, 2, 1], [2, 0, 1, 1]]}],
               "stats": {"nodes": 2, "leaves": 2, "maxDepth": 0}}
        result = result_from_json(json.dumps(doc))
        paths = svg_constituency_paths(render_svg(result, DotGrid([[1] * 3] * 2), FLAT))
        for cid, d in paths.items():
            cells = {cell for r in result.by_id(cid).shape for cell in r.cells()}
            assert path_edge_set(d, 24) == boundary_edge_set(cells)

    def test_state_ids_escaped(self):
        # A double-quoted attribute needs &, <, > and " escaped; ' stays as it is.
        counts = [[1] * 4 for _ in range(2)]
        labels = [['A&"x', 'A&"x', "<b>", "<b>"], ["c'd"] * 4]
        s = load_scenario(scenario_text(counts, 1, 100, labels))
        svg = render_svg(delimit(s), s.grid)
        ids = [p.getAttribute("id") for p in minidom.parseString(svg).getElementsByTagName("path")]
        assert [i for i in ids if i.startswith("state-")] == [f"state-{lab}" for lab in s.states]
        assert 'id="state-c\'d"' in svg

    @pytest.mark.parametrize("text", [NUL_LABELS_TEXT, "2 1 1 10\n1 1\nSTATES\nA\x01 B\n"])
    def test_label_xml_cannot_hold_is_refused(self, text):
        # XML 1.0 has no escape for U+0000-U+0008 and U+000E-U+001F; the
        # label is refused before any output is built.
        s = load_scenario(text)
        bad = next(label for label in s.states if re.search("[\0-\x08]", label))
        with pytest.raises(ValueError, match=re.escape(f"state label {bad!r}")):
            render_svg(delimit(s), s.grid)

    def test_dot_limit(self, monkeypatch):
        dense = DotGrid([[2**24 + 1]])
        result = delimit(Scenario(grid=dense, people_per_dot=1, threshold=2**25))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{2**24 + 1} dots .* limit is {2**24}"):
            render_svg(result, dense)
        assert time.perf_counter() - start < 1
        assert 'id="dots"' not in render_svg(result, dense, RenderStyle(draw_dots=False))
        # At the limit the SVG is drawn as before; one dot more is refused.
        s = load_scenario("2 1 10 1000\n1 4\n")
        svg = render_svg(delimit(s), s.grid)
        monkeypatch.setattr(render, "MAX_SVG_DOTS", 5)
        assert render_svg(delimit(s), s.grid) == svg
        monkeypatch.setattr(render, "MAX_SVG_DOTS", 4)
        with pytest.raises(ValueError, match="cannot draw 5 dots"):
            render_svg(delimit(s), s.grid)

    def test_dimension_mismatch_rejected(self):
        s = load_scenario("4 4 10 1000\n" + "1 1 1 1\n" * 4)
        other = load_scenario("2 2 10 1000\n1 1\n1 1\n")
        with pytest.raises(ValueError, match="does not match"):
            render_svg(delimit(s), other.grid)

    def test_byte_deterministic(self):
        rng1, rng2 = random.Random(9), random.Random(9)
        for _ in range(5):
            s1 = random_scenario(rng1, max_dim=12)
            s2 = random_scenario(rng2, max_dim=12)
            assert render_svg(delimit(s1), s1.grid) == render_svg(delimit(s2), s2.grid)

    def test_header_and_size(self):
        s = load_scenario("3 2 10 1000\n1 1 1\n1 1 1\n")
        svg = render_svg(delimit(s), s.grid)
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert 'width="72" height="48"' in svg
        assert svg.rstrip().endswith("</svg>")


class TestRenderStyleValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(TypeError):
            RenderStyle(cell_size_px=2)

    def test_only_dots_are_settable(self):
        assert [f.name for f in dataclasses.fields(RenderStyle)] == ["draw_dots"]
        with pytest.raises(TypeError):
            RenderStyle(background="white")


class TestRenderAscii:
    def test_single_constituency_uniform_tokens(self):
        s = load_scenario("2 2 500 2000\n1 0\n0 0\n")
        assert render_ascii_grid(delimit(s)) == "1 1\n1 1\n"

    def test_16_distinct_blocks(self):
        s = load_scenario(scenario_text([[1] * 16 for _ in range(16)], 100, 1600))
        text = render_ascii_grid(delimit(s))
        rows = [line.split() for line in text.splitlines()]
        blocks = {rows[by * 4][bx * 4] for by in range(4) for bx in range(4)}
        assert len(blocks) == 16
        for by in range(4):
            for bx in range(4):
                token = rows[by * 4][bx * 4]
                for dy in range(4):
                    for dx in range(4):
                        assert rows[by * 4 + dy][bx * 4 + dx] == token

    def test_labels_differing_by_trailing_nul(self):
        # "A" owns cell (1, 1) only; "A\0" owns the rest.
        assert render_ascii_grid(delimit(load_scenario(NUL_LABELS_TEXT))) == "2 2\n2 1\n"

    def test_merged_cells_share_token(self):
        s = l_shaped_scenario()
        text = render_ascii_grid(delimit(s))
        rows = [line.split() for line in text.splitlines()]
        l_cells = rect_cells(0, 0, 3, 3) - {(2, 2)}
        tokens = {rows[y][x] for x, y in l_cells}
        assert tokens == {"1"}
        assert rows[2][2] == "2"
