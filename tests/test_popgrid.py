import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlimit import DotGrid, Rect, Scenario, ScenarioError, build_sat, \
    load_scenario
from quadlimit import popgrid

import helpers
from helpers import scenario_text
from oracles import load_scenario_reference, naive_rect_sum, naive_sat, \
    sat_by_double_cumsum, validate_labels_bfs

INT64_MAX = 2**63 - 1


rasters = st.integers(1, 12).flatmap(
    lambda w: st.integers(1, 12).flatmap(
        lambda h: st.lists(
            st.lists(st.integers(0, 50), min_size=w, max_size=w),
            min_size=h, max_size=h,
        )
    )
)


class TestRect:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 0)

    def test_cells_row_major(self):
        assert list(Rect(1, 2, 2, 2).cells()) == [(1, 2), (2, 2), (1, 3), (2, 3)]


class TestBuildSat:
    def test_all_zero(self):
        sat = build_sat([[0] * 4 for _ in range(4)])
        assert sat.shape == (5, 5)
        assert not sat.any()

    def test_single_cell(self):
        sat = build_sat([[7]])
        assert sat.tolist() == [[0, 0], [0, 7]]

    @pytest.mark.parametrize("counts", [[1, 2], [[]], [[[1]]]], ids=["1-D", "empty", "3-D"])
    def test_not_a_raster(self, counts):
        with pytest.raises(ValueError, match="^counts must be a non-empty 2-D raster$"):
            build_sat(counts)

    def test_random_8x8_matches_naive(self):
        rng = random.Random(8)
        counts = [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)]
        assert build_sat(counts).tolist() == naive_sat(counts)

    @given(rasters)
    @settings(max_examples=50)
    def test_matches_naive_prefix_sums(self, counts):
        assert build_sat(counts).tolist() == naive_sat(counts)

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_double_cumsum(self, width, height, seed):
        # Cells up to 2**40 keep the largest possible total within int64.
        counts = np.random.default_rng(seed).integers(0, 2**40, (height, width))
        assert np.array_equal(build_sat(counts), sat_by_double_cumsum(counts))


class TestCountDots:
    @pytest.mark.parametrize("counts", [[1, 2], [[]]], ids=["1-D", "empty"])
    def test_not_a_raster(self, counts):
        with pytest.raises(ValueError, match="^counts must be a non-empty 2-D raster$"):
            DotGrid(counts)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="^dot counts must be non-negative$"):
            DotGrid([[1, -1]])

    def test_full_uniform_grid(self):
        grid = DotGrid([[1] * 4 for _ in range(4)])
        assert grid.count_dots(Rect(0, 0, 4, 4)) == 16

    def test_single_cell_identity(self):
        rng = random.Random(3)
        counts = [[rng.randint(0, 9) for _ in range(5)] for _ in range(4)]
        grid = DotGrid(counts)
        for y in range(4):
            for x in range(5):
                assert grid.count_dots(Rect(x, y, 1, 1)) == counts[y][x]

    def test_random_rect_matches_naive_loop(self):
        rng = random.Random(11)
        counts = [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)]
        grid = DotGrid(counts)
        assert grid.count_dots(Rect(2, 1, 3, 4)) == naive_rect_sum(counts, 2, 1, 3, 4)

    def test_out_of_bounds(self):
        grid = DotGrid([[1] * 4 for _ in range(4)])
        with pytest.raises(ValueError, match="exceeds grid bounds"):
            grid.count_dots(Rect(2, 2, 3, 1))

    @given(rasters, st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_sat_equals_naive_everywhere(self, counts, rng):
        grid = DotGrid(counts)
        h, w = len(counts), len(counts[0])
        for _ in range(10):
            rw = rng.randint(1, w)
            rh = rng.randint(1, h)
            rx = rng.randint(0, w - rw)
            ry = rng.randint(0, h - rh)
            assert grid.count_dots(Rect(rx, ry, rw, rh)) \
                == naive_rect_sum(counts, rx, ry, rw, rh)

    @given(rasters)
    @settings(max_examples=40)
    def test_additive_over_partition(self, counts):
        grid = DotGrid(counts)
        h, w = len(counts), len(counts[0])
        whole = grid.count_dots(Rect(0, 0, w, h))
        assert whole == grid.total_dots
        if w >= 2:
            left = grid.count_dots(Rect(0, 0, w // 2, h))
            right = grid.count_dots(Rect(w // 2, 0, w - w // 2, h))
            assert left + right == whole
        if h >= 2:
            top = grid.count_dots(Rect(0, 0, w, h // 2))
            bottom = grid.count_dots(Rect(0, h // 2, w, h - h // 2))
            assert top + bottom == whole

    def test_counts_are_read_only(self):
        grid = DotGrid([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            grid.counts[0, 0] = 9
        with pytest.raises(ValueError):
            grid.sat[0, 0] = 9

    @pytest.mark.parametrize("make", [lambda rows: np.array(rows, dtype=np.int64), list],
                             ids=["array", "list"])
    def test_caller_input_is_copied(self, make):
        # The grid is immutable, so changing what the caller passed in,
        # even an int64 array, leaves it as it was.
        rows = [[1, 2], [3, 4]]
        counts = make([list(row) for row in rows])
        grid = DotGrid(counts)
        assert not grid.counts.flags.writeable
        counts[0][0] = 90
        counts[1][:] = [0, 0]
        assert grid.counts.tolist() == rows
        assert grid.total_dots == 10
        assert grid.count_dots(Rect(0, 0, 1, 1)) == 1
        assert grid.count_dots(Rect(0, 1, 2, 1)) == 7


class TestLoadScenario:
    def test_small_grid_readback(self):
        s = load_scenario("2 2 500 1000\n1 0\n0 1\n")
        assert (s.grid.width, s.grid.height) == (2, 2)
        assert s.grid.total_dots == 2
        assert s.people_per_dot == 500
        assert s.threshold == 1000
        assert s.state_labels is None

    def test_dimension_mismatch_eight_cells_for_3x3(self):
        text = "3 3 500 1000\n1 1 1\n1 1 1\n1 1\n"
        with pytest.raises(ScenarioError, match="dimension mismatch"):
            load_scenario(text)

    def test_16x16_all_ones_total(self):
        counts = [[1] * 16 for _ in range(16)]
        s = load_scenario(scenario_text(counts, 100, 1600))
        expected = naive_rect_sum(counts, 0, 0, 16, 16)
        assert expected == 256
        assert int(s.grid.sat[16, 16]) == expected

    def test_comments_and_blank_lines_ignored(self):
        s = load_scenario("# a map\n\n2 1 5 10\n# row\n3 4\n")
        assert s.grid.total_dots == 7

    def test_malformed_header(self):
        with pytest.raises(ScenarioError, match="header"):
            load_scenario("2 2 500\n1 1\n1 1\n")
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario("2 x 500 1000\n1 1\n1 1\n")

    def test_non_numeric_cell_names_line_and_column(self):
        with pytest.raises(ScenarioError, match=r"line 3, column 2"):
            load_scenario("2 2 500 1000\n1 1\n1 q\n")

    def test_nonpositive_x_and_threshold(self):
        with pytest.raises(ScenarioError, match="people-per-dot"):
            load_scenario("2 2 0 1000\n1 1\n1 1\n")
        with pytest.raises(ScenarioError, match="threshold"):
            load_scenario("2 2 500 0\n1 1\n1 1\n")

    def test_negative_cell(self):
        with pytest.raises(ScenarioError, match="negative cell"):
            load_scenario("2 2 500 1000\n1 -1\n1 1\n")

    def test_states_parsed(self):
        text = "2 2 500 1000\n1 0\n0 1\nSTATES\nA A\nB B\n"
        s = load_scenario(text)
        assert s.states == ("A", "B")
        assert s.state_labels == (("A", "A"), ("B", "B"))
        assert s.state_population("A") == 500

    def test_label_strings_shared(self):
        # One string object per distinct label, however many cells carry it.
        text = ("3 3 1 10\n1 1 1\n1 1 1\n1 1 1\nSTATES\n"
                "north north east\nnorth north east\nsouth-1 south-1 south-1\n")
        s = load_scenario(text)
        assert len({id(lab) for row in s.state_labels for lab in row}) == len(s.states) == 3

    def test_disconnected_state_rejected(self):
        text = "3 1 500 1000\n1 1 1\nSTATES\nA B A\n"
        with pytest.raises(ScenarioError, match="not orthogonally connected"):
            load_scenario(text)

    def test_diagonal_only_state_rejected(self):
        text = "2 2 500 1000\n1 1\n1 1\nSTATES\nA B\nB A\n"
        with pytest.raises(ScenarioError, match="not orthogonally connected"):
            load_scenario(text)

    def test_state_rows_must_match_width(self):
        text = "2 2 500 1000\n1 1\n1 1\nSTATES\nA A\nB\n"
        with pytest.raises(ScenarioError, match="dimension mismatch"):
            load_scenario(text)

    def test_state_rows_must_match_height(self):
        text = "2 2 500 1000\n1 1\n1 1\nSTATES\nA A\n"
        with pytest.raises(ScenarioError,
                           match="^dimension mismatch: expected 2 state label rows, found 1$"):
            load_scenario(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScenarioError, match="unexpected content"):
            load_scenario("1 1 1 1\n5\n7\n")

    def test_empty_input(self):
        with pytest.raises(ScenarioError, match="empty scenario"):
            load_scenario("# nothing here\n")

    def test_cell_above_int64_names_line_and_column(self):
        with pytest.raises(ScenarioError,
                           match=r"cell value exceeds 2\*\*63-1 \(line 3, column 2\)"):
            load_scenario("2 2 1 5\n1 1\n1 99999999999999999999\n")

    def test_total_above_int64_rejected(self):
        # The int64 summed-area table would read -2**63 here.
        with pytest.raises(ScenarioError, match="total dot count 9223372036854775808"):
            load_scenario(f"2 1 1 5\n{INT64_MAX} 1\n")
        s = load_scenario(f"2 1 1 5\n{INT64_MAX - 1} 1\n")
        assert s.grid.total_dots == INT64_MAX

    @given(st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_grid_total_check_is_exact(self, cells):
        if sum(cells) > INT64_MAX:
            with pytest.raises(ScenarioError, match="exceeds 2\\*\\*63-1"):
                DotGrid([cells])
        else:
            assert DotGrid([cells]).total_dots == sum(cells)

    def test_plain_digits_skip_the_token_loop(self, monkeypatch):
        def token_loop(*args):
            raise AssertionError("the count block was read token by token")

        monkeypatch.setattr(popgrid, "_parse_counts_by_token", token_loop)
        s = load_scenario(f"# map\n3 2 1 5\n1\t20  300\n\n000 4 {INT64_MAX - 325}\n")
        assert s.grid.counts.tolist() == [[1, 20, 300], [0, 4, INT64_MAX - 325]]
        assert s.grid.total_dots == INT64_MAX
        with pytest.raises(AssertionError, match="token by token"):
            load_scenario("2 1 1 5\n+1 2\n")


# --- differential tests against the token-by-token parser and flood fill ----

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                          "\u0665\u0666\u0667\u0668\u0669")
# Token separators, one set per text. \xa0 and \u3000 split tokens but are
# not ASCII; \x1c, \x85 and \u2028 also end a line.
SEPARATORS = [[" "], [" "], [" ", "  ", "\t", " \t "], [" ", "\xa0", "\u3000"],
              [" ", "\x1c", "\x85", "\u2028"]]
LABELS = ["A", "B", "C", "A\x00", "\u00e9"]


@st.composite
def count_tokens(draw, value):
    text = str(value)
    style = draw(st.sampled_from(["plain"] * 6 + ["zeros", "plus", "underscore",
                                                   "arabic"]))
    if style == "zeros":  # tokens of up to 37 digits, with values far below 2**63
        return "0" * draw(st.integers(1, 24)) + text
    if style == "plus":
        return "+" + text
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    if style == "arabic":
        return text.translate(ARABIC_INDIC)
    return text


@st.composite
def label_maps(draw, width, height):
    """Cell-by-cell random labels (often disconnected), or regions grown
    from seeds (connected, usually not convex)."""
    names = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        return [[draw(st.sampled_from(names)) for _ in range(width)] for _ in range(height)]
    rng = draw(st.randoms(use_true_random=False))
    grid = [[None] * width for _ in range(height)]
    cells = [(x, y) for y in range(height) for x in range(width)]
    for name, (x, y) in zip(names, rng.sample(cells, min(len(names), len(cells)))):
        grid[y][x] = name
    while any(None in row for row in grid):
        x, y = rng.choice(cells)
        if grid[y][x] is None:
            continue
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < width and 0 <= ny < height and grid[ny][nx] is None:
                grid[ny][nx] = grid[y][x]
                break
    return grid


@st.composite
def enclosure_maps(draw, width, height):
    """A background label with up to three boxes drawn over it: a frame of
    one label around a filling of another (often the background, which the
    frame then cuts off), or a diagonal of cells that meet only at corners."""
    names = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=3, unique=True))
    grid = [[names[0]] * width for _ in range(height)]
    for _ in range(draw(st.integers(1, 3))):
        x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        w, h = draw(st.integers(1, width - x0)), draw(st.integers(1, height - y0))
        edge, fill = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if draw(st.booleans()):
            for y in range(y0, y0 + h):
                for x in range(x0, x0 + w):
                    on_frame = x in (x0, x0 + w - 1) or y in (y0, y0 + h - 1)
                    grid[y][x] = edge if on_frame else fill
        else:
            flip = draw(st.booleans())
            for i in range(min(w, h)):
                grid[y0 + i][x0 + w - 1 - i if flip else x0 + i] = edge
    return grid


@st.composite
def scenario_texts(draw):
    """Scenario files spelled in every way ``int`` and ``str.split`` accept,
    with at most one defect mixed in. Values stay far below 2**63."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(0, 10**12), min_size=width * height,
                           max_size=width * height))
    rows = [[draw(count_tokens(values[y * width + x])) for x in range(width)]
            for y in range(height)]
    labelled = draw(st.booleans())
    if labelled:
        rows += [["STATES"]] + draw(label_maps(width, height))
    defect = draw(st.sampled_from(["none"] * 4 + [
        "negative", "word", "inline_comment", "ragged", "extra_token",
        "comment_line", "blank_line", "drop_line", "trailing_line", "bad_marker"]))
    r = draw(st.integers(0, len(rows) - 1))
    if defect == "negative":
        rows[r][-1] = "-1"
    elif defect == "word":
        rows[r][0] = "x1"
    elif defect == "inline_comment":
        rows[r].append("# note")
    elif defect == "ragged" and len(rows[r]) > 1:
        rows[r].pop()
    elif defect == "extra_token":
        rows[r].append("7")
    elif defect == "drop_line":
        del rows[r]
    elif defect == "trailing_line":
        rows.append(["9"])
    elif defect == "bad_marker" and labelled:
        rows[height] = ["STATE"]
    lines = [f"{width} {height} {draw(st.integers(1, 500))} {draw(st.integers(1, 10**6))}"]
    separators = draw(st.sampled_from(SEPARATORS))
    lines += [draw(st.sampled_from(separators)).join(row) for row in rows]
    if defect in ("comment_line", "blank_line"):
        lines.insert(draw(st.integers(0, len(lines))),
                     "  # note" if defect == "comment_line" else " \t ")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the type and message are what is compared
        return "error", type(exc), str(exc)


class TestParserDifferential:
    @given(scenario_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_token_parser_and_flood_fill(self, text):
        new, ref = _outcome(load_scenario, text), _outcome(load_scenario_reference, text)
        assert new[0] == ref[0], (new, ref)
        if new[0] == "error":
            assert new[1:] == ref[1:]
            return
        s, r = new[1], ref[1]
        assert s.grid.counts.tolist() == r.counts
        assert (s.people_per_dot, s.threshold) == (r.people_per_dot, r.threshold)
        assert s.state_labels == r.state_labels
        if r.state_labels is None:
            assert s.states is None
            return
        states = sorted({lab for row in r.state_labels for lab in row})
        assert s.states == tuple(states)
        for lab in states:
            dots = sum(c for crow, lrow in zip(r.counts, r.state_labels)
                       for c, l in zip(crow, lrow) if l == lab)
            assert s.state_population(lab) == r.people_per_dot * dots

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    @settings(max_examples=600, deadline=None)
    def test_label_check_matches_flood_fill(self, width, height, data):
        maps = st.one_of(label_maps(width, height), enclosure_maps(width, height))
        labels = tuple(map(tuple, data.draw(maps)))
        grid = DotGrid([[1] * width for _ in range(height)])
        new = _outcome(lambda ls: Scenario(grid, 1, 1, state_labels=ls), labels)
        ref = _outcome(lambda ls: validate_labels_bfs(ls, width, height), labels)
        assert new[0] == ref[0]
        if new[0] == "error":
            assert new[1:] == ref[1:]
        else:
            assert new[1].states == tuple(sorted({lab for row in labels for lab in row}))
            assert new[1].label_codes.tolist() == [[new[1].states.index(lab) for lab in row]
                                                   for row in labels]


class TestScenarioValidation:
    def test_programmatic_invariants(self):
        grid = DotGrid([[1]])
        with pytest.raises(ScenarioError):
            Scenario(grid=grid, people_per_dot=0, threshold=1)
        with pytest.raises(ScenarioError):
            Scenario(grid=grid, people_per_dot=1, threshold=0)
        with pytest.raises(ScenarioError):
            Scenario(grid=grid, people_per_dot=1, threshold=1,
                     state_labels=(("A", "A"),))

    def test_total_population(self):
        s = Scenario(grid=DotGrid([[2, 3]]), people_per_dot=10, threshold=100)
        assert s.total_population() == 50


class TestStatePopulation:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_matches_mask_sum(self, rng):
        s = helpers.random_scenario(rng, max_dim=24, with_states=True)
        labels = np.array(s.state_labels)
        for lab in s.states:
            dots = int(s.grid.counts[labels == lab].sum())
            assert s.state_population(lab) == s.people_per_dot * dots

    def test_exact_near_int64_limit(self):
        big = 2**62 - 1
        s = Scenario(grid=DotGrid([[big, big], [1, 0]]), people_per_dot=1, threshold=1,
                     state_labels=(("A", "A"), ("B", "B")))
        assert s.state_population("A") == 2**63 - 2
        assert s.state_population("B") == 1

    def test_label_array_built_at_most_once(self, monkeypatch):
        s = helpers.random_scenario(random.Random(5), with_states=True)
        calls = []
        original = Scenario.label_array

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Scenario, "label_array", counting)
        for lab in s.states:
            s.state_population(lab)
        assert len(calls) <= 1

    def test_unknown_label_is_zero(self):
        s = Scenario(grid=DotGrid([[1, 2]]), people_per_dot=7, threshold=1,
                     state_labels=(("A", "B"),))
        assert s.state_population("C") == 0
        assert s.state_population("B") == 14

    def test_unlabelled_scenario_rejected(self):
        s = Scenario(grid=DotGrid([[1, 2]]), people_per_dot=7, threshold=1)
        with pytest.raises(ValueError, match="no state labels"):
            s.state_population("A")

    def test_state_totals_near_int64_max_are_exact(self):
        big = INT64_MAX // 2
        s = Scenario(grid=DotGrid([[big, 1], [big, 0]]), people_per_dot=2,
                     threshold=1, state_labels=(("A", "B"), ("A", "B")))
        assert s.state_population("A") == 2 * (INT64_MAX - 1)
        assert s.state_population("B") == 2

    def test_total_above_2_53_is_exact(self):
        # In float64, 2**53 + 1 + 1 rounds back to 2**53.
        s = Scenario(grid=DotGrid([[2**53, 1], [1, 5]]), people_per_dot=3,
                     threshold=1, state_labels=(("A", "A"), ("A", "B")))
        assert s.state_population("A") == 3 * (2**53 + 2)
        assert s.state_population("B") == 15


def test_masked_grid_keeps_only_selected_cells():
    grid = DotGrid([[1, 2], [3, 4]])
    mask = np.array([[True, False], [False, True]])
    sub = grid.masked(mask)
    assert sub.counts.tolist() == [[1, 0], [0, 4]]
    assert sub.total_dots == 5


def test_masked_grid_rejects_empty_or_misshapen_mask():
    grid = DotGrid([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="mask keeps no cell"):
        grid.masked(np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="mask shape does not match grid"):
        grid.masked(np.ones((2, 3), dtype=bool))


@st.composite
def masks_off_origin(draw):
    """A raster, a keep mask whose bounding box starts at x, y >= 1, and
    that box: one kept cell on each of the box's sides pins it."""
    width, height = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    counts = np.array(draw(st.lists(st.integers(0, 50), min_size=width * height,
                                    max_size=width * height))).reshape(height, width)
    x0, y0 = draw(st.integers(1, width - 1)), draw(st.integers(1, height - 1))
    w, h = draw(st.integers(1, width - x0)), draw(st.integers(1, height - y0))
    keep = np.zeros((height, width), dtype=bool)
    inner = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    keep[y0:y0 + h, x0:x0 + w] = np.array(inner).reshape(h, w)
    xs, ys = st.integers(x0, x0 + w - 1), st.integers(y0, y0 + h - 1)
    for x, y in ((draw(xs), y0), (draw(xs), y0 + h - 1), (x0, draw(ys)), (x0 + w - 1, draw(ys))):
        keep[y, x] = True
    return counts, keep, Rect(x0, y0, w, h)


@given(masks_off_origin())
@settings(max_examples=60, deadline=None)
def test_masked_grid_is_cropped_to_mask_bounding_box(case):
    counts, keep, box = case
    sub = DotGrid(counts).masked(keep)
    kept = np.where(keep, counts, 0)
    assert sub.bounds() == box
    assert sub.counts.shape == (box.h, box.w)
    assert sub.total_dots == kept.sum()
    x0, y0, w, h = box
    for top in range(y0, y0 + h):
        for bottom in range(top + 1, y0 + h + 1):
            for left in range(x0, x0 + w):
                for right in range(left + 1, x0 + w + 1):
                    assert sub.count_dots(Rect(left, top, right - left, bottom - top)) \
                        == kept[top:bottom, left:right].sum()
    # Past each side of the crop, and one cell wholly left and above it.
    for r in (Rect(x0 - 1, y0, w + 1, h), Rect(x0, y0 - 1, w, h + 1),
              Rect(x0, y0, w + 1, h), Rect(x0, y0, w, h + 1),
              Rect(x0 - 1, y0, 1, 1), Rect(x0, y0 - 1, 1, 1)):
        with pytest.raises(ValueError, match="exceeds grid bounds"):
            sub.count_dots(r)
    # Masking a cropped grid again keeps map coordinates.
    again = sub.masked(keep[y0:y0 + h, x0:x0 + w])
    assert again.bounds() == box
    assert np.array_equal(again.counts, sub.counts)
