import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlimit import DotGrid, Rect, Scenario, ScenarioError, build_sat, \
    load_scenario

import helpers
from helpers import scenario_text
from oracles import naive_rect_sum, naive_sat


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

    def test_touches_shares_edge_not_corner(self):
        assert Rect(0, 0, 2, 2).touches(Rect(2, 0, 2, 2))
        assert Rect(0, 0, 2, 2).touches(Rect(0, 2, 2, 2))
        assert not Rect(0, 0, 2, 2).touches(Rect(2, 2, 2, 2))  # corner only
        assert not Rect(0, 0, 2, 2).touches(Rect(3, 0, 2, 2))  # gap

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

    def test_random_8x8_matches_naive(self):
        rng = random.Random(8)
        counts = [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)]
        assert build_sat(counts).tolist() == naive_sat(counts)

    @given(rasters)
    @settings(max_examples=50)
    def test_matches_naive_prefix_sums(self, counts):
        assert build_sat(counts).tolist() == naive_sat(counts)


class TestCountDots:
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
        assert s.states == ["A", "B"]
        assert s.state_labels == (("A", "A"), ("B", "B"))
        assert s.state_population("A") == 500

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

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScenarioError, match="unexpected content"):
            load_scenario("1 1 1 1\n5\n7\n")

    def test_empty_input(self):
        with pytest.raises(ScenarioError, match="empty scenario"):
            load_scenario("# nothing here\n")


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
