import dataclasses
import gc
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import Constituency, DotGrid, Leaf, QuadTree, Rect, ResultFormatError, \
    Scenario, TreeStats, build_tree, check_result, delimit, load_scenario, locate, \
    locate_with_visits, merge_siblings, paint_cells, result_from_json, \
    result_to_json, subdivide, tree_stats
from quadlimit.quadtree import OVER_CAPACITY, ZERO_POPULATION, StateLabels, _units_connected

from helpers import DEEP_JSON, NUL_LABELS_TEXT, THREE_BY_ONE, random_l_labels, \
    random_scenario, random_staircase_labels, random_state_labels, scenario_text
from test_golden import GOLDEN, NON_RECT_GOLDEN, RING_COUNTS, RING_LABELS
from oracles import _merge_fixpoint, containment_scan, enumerate_merge_outcomes, \
    flood_connected, leaf_owners, oracle_delimit, preorder_nodes, rect_cells, reference_leaves, \
    reference_state_trees, reference_tree, result_to_dict, state_trees, \
    tree_stats_by_traversal, tree_walk_locate


def uniform_scenario(n=16, x=100, th=1600):
    return load_scenario(scenario_text([[1] * n for _ in range(n)], x, th))


def cells_of(constituency):
    return frozenset(c for r in constituency.shape for c in r.cells())


class TestSubdivide:
    def test_even_16x16(self):
        assert subdivide(Rect(0, 0, 16, 16)) == [
            (0, 0, 8, 8), (8, 0, 8, 8), (0, 8, 8, 8), (8, 8, 8, 8)]

    def test_odd_5x3_ceiling_to_top_left(self):
        assert subdivide(Rect(0, 0, 5, 3)) == [
            (0, 0, 3, 2), (3, 0, 2, 2), (0, 2, 3, 1), (3, 2, 2, 1)]

    def test_vertical_strip_two_way(self):
        assert subdivide(Rect(4, 0, 1, 6)) == [
            (4, 0, 1, 3), (4, 3, 1, 3)]

    def test_horizontal_strip_two_way(self):
        assert subdivide(Rect(0, 2, 5, 1)) == [
            (0, 2, 3, 1), (3, 2, 2, 1)]

    def test_unit_rect_unsplittable(self):
        with pytest.raises(ValueError, match="1x1"):
            subdivide(Rect(3, 7, 1, 1))

    @given(st.integers(0, 30), st.integers(0, 30),
           st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=120)
    def test_children_partition_parent(self, x0, y0, w, h):
        if w == 1 and h == 1:
            return
        parts = subdivide(Rect(x0, y0, w, h))
        assert len(parts) == (2 if (w == 1 or h == 1) else 4)
        seen = set()
        for p in parts:
            cells = rect_cells(*p)
            assert not (seen & cells)
            seen |= cells
        assert seen == rect_cells(x0, y0, w, h)


def grid_tree(s):
    """A scenario's whole-grid reference tree."""
    return reference_tree(s.grid.counts.tolist(), s.people_per_dot, s.threshold,
                          s.grid.bounds())


class TestBuildTree:
    def test_whole_grid_fits_threshold_single_leaf(self):
        grid = DotGrid([[1, 0], [0, 0]])
        tree = build_tree(grid, 500, 1000)
        assert tree.leaves == {None: [Leaf(0, Rect(0, 0, 2, 2), 500)]}
        assert tree.stats == TreeStats(1, 1, 0)
        assert merge_siblings(tree, 1000)[None] == [tuple(tree.leaves[None])]

    def test_all_zero_grid_single_leaf(self):
        tree = build_tree(DotGrid([[0] * 4 for _ in range(4)]), 500, 1)
        assert tree.leaves == {None: [Leaf(0, Rect(0, 0, 4, 4), 0)]}

    def test_16x16_structure(self):
        grid = DotGrid([[1] * 16 for _ in range(16)])
        ref = reference_tree(grid.counts.tolist(), 100, 1600, grid.bounds())
        assert ref.population == 25600
        assert [c.population for c in ref.children] == [6400] * 4
        tree = build_tree(grid, 100, 1600)
        assert tree.leaves == reference_leaves(ref)
        # The four quadrants (ids 1, 6, 11, 16) each split into four leaves.
        assert list(tree.leaves) == [1, 6, 11, 16]
        for quadrant, (parent, leaves) in zip(subdivide(grid.bounds()), tree.leaves.items()):
            assert [leaf.population for leaf in leaves] == [1600] * 4
            assert [leaf.id for leaf in leaves] == list(range(parent + 1, parent + 5))
            assert [leaf.rect for leaf in leaves] == subdivide(quadrant)
        assert tree.stats.nodes == 21
        assert tree.stats.max_depth == 2

    def test_children_populations_sum_to_parent(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_scenario(rng, max_dim=24, with_states=False)
            ref = grid_tree(s)
            for node in preorder_nodes(ref):
                if node.children:
                    assert sum(c.population for c in node.children) == node.population
            tree = build_tree(s.grid, s.people_per_dot, s.threshold)
            assert tree.leaves == reference_leaves(ref)

    def test_leaf_parents_registers_each_leaf_once(self):
        # Merge units, keyed by parent id, hold every leaf once, under its parent.
        rng = random.Random(6)
        s = random_scenario(rng, max_dim=32, with_states=False)
        tree = build_tree(s.grid, s.people_per_dot, s.threshold)
        merged = merge_siblings(tree, s.threshold)
        registered = [leaf.id for units in merged.values()
                      for u in units for leaf in u]
        assert len(set(registered)) == len(registered)
        assert {parent: sorted(leaf for u in units for leaf in u)
                for parent, units in merged.items()} == reference_leaves(grid_tree(s))

    def test_node_ids_are_depth_first_preorder(self):
        rng = random.Random(8)
        for _ in range(20):
            s = random_scenario(rng, max_dim=32, with_states=False)
            tree = build_tree(s.grid, s.people_per_dot, s.threshold)
            order = preorder_nodes(grid_tree(s))
            assert [n.id for n in order] == list(range(tree.stats.nodes))
            leaf_ids = [leaf.id for leaves in tree.leaves.values() for leaf in leaves]
            assert sorted(leaf_ids) == [n.id for n in order if not n.children]

    def test_dropped_tree_needs_no_cyclic_collection(self):
        # A masked grid and its leaves are freed as soon as the tree is dropped.
        grid = uniform_scenario().grid.masked(np.ones((16, 16), dtype=bool))
        gc.collect()
        gc.disable()
        try:
            build_tree(grid, 100, 1600)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_over_capacity_cell_becomes_leaf(self):
        tree = build_tree(DotGrid([[3, 3], [3, 3]]), 500, 1000)
        stats = tree_stats(tree)
        assert stats.nodes == 5 and stats.leaves == 4
        assert [leaf.population for leaf in tree.leaves[0]] == [1500] * 4

    def test_sub_rect_root(self):
        grid = DotGrid([[1] * 4 for _ in range(4)])
        tree = build_tree(grid, 1, 100, root_rect=Rect(1, 1, 2, 2))
        assert tree.leaves == {None: [Leaf(0, Rect(1, 1, 2, 2), 4)]}

    @pytest.mark.parametrize("root", ["sticks out", "before masked origin"])
    def test_root_outside_grid_is_value_error(self, root):
        # One check on the root stands for a bounds check per node. A root
        # left of or above a masked grid's origin would otherwise read the
        # SAT at negative indices, from its far edge, without any error.
        grid = DotGrid([[1] * 4 for _ in range(4)])
        if root == "sticks out":
            rect = Rect(2, 2, 3, 1)
        else:
            keep = np.zeros((4, 4), dtype=bool)
            keep[1, 1] = keep[3, 3] = True
            grid, rect = grid.masked(keep), Rect(0, 0, 2, 2)
            assert grid.bounds() == Rect(1, 1, 3, 3)
        with pytest.raises(ValueError, match="exceeds grid bounds"):
            build_tree(grid, 1, 100, root_rect=rect)

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(["grid", "sub", "masked"]),
           st.integers(1, 3), st.randoms(use_true_random=False))
    @example(1, 11, "grid", 1, random.Random(0))
    @example(9, 1, "sub", 2, random.Random(1))
    @example(7, 5, "sub", 1, random.Random(2))
    @example(11, 9, "masked", 3, random.Random(3))
    @settings(max_examples=200, deadline=None)
    def test_leaves_and_stats_match_reference_tree(self, w, h, root, x, rng):
        counts = [[rng.choice([0, 0, 1, 3, 9]) for _ in range(w)] for _ in range(h)]
        th = rng.randint(1, x * sum(map(sum, counts)) + 1)
        grid, rect, ref_counts = DotGrid(counts), Rect(0, 0, w, h), counts
        if root == "sub":
            x0, y0 = rng.randrange(w), rng.randrange(h)
            rect = Rect(x0, y0, rng.randint(1, w - x0), rng.randint(1, h - y0))
        elif root == "masked":
            # A keep mask whose box can start off the origin; the tree is rooted there.
            x0, y0 = rng.randrange(w), rng.randrange(h)
            keep = np.zeros((h, w), dtype=bool)
            keep[y0:, x0:] = [[rng.random() < 0.5 for _ in range(w - x0)] for _ in range(h - y0)]
            keep[y0, x0] = True
            ref_counts = np.where(keep, counts, 0).tolist()
            grid = grid.masked(keep)
            rect = grid.bounds()
        tree = build_tree(grid, x, th, root_rect=None if root == "masked" else rect)
        ref = reference_tree(ref_counts, x, th, rect)
        assert tree.leaves == reference_leaves(ref)
        assert tuple(vars(tree.stats).values()) == tree_stats_by_traversal(ref)


def make_parent_with_leaves(pops, rect=Rect(0, 0, 2, 2)):
    leaves = [Leaf(i + 1, q, p) for i, (q, p) in enumerate(zip(subdivide(rect), pops))]
    return QuadTree(leaves={0: leaves}, stats=TreeStats(1 + len(pops), len(pops), 1))


def leaf_ids(unit):
    return [leaf.id for leaf in unit]


def population(unit):
    return sum(leaf.population for leaf in unit)


class TestMergeSiblings:
    def test_first_fit_merges_nw_ne_only(self):
        # Expected outcome established by enumerating every merge order.
        tree = make_parent_with_leaves([300, 300, 900, 900])
        leaf_children = [(i, rect_cells(*tree.leaves[0][i].rect), p)
                         for i, p in enumerate([300, 300, 900, 900])]
        outcomes = enumerate_merge_outcomes(leaf_children, 1000)
        expected = frozenset({(frozenset({0, 1}), 600),
                              (frozenset({2}), 900), (frozenset({3}), 900)})
        assert expected in outcomes

        units = merge_siblings(tree, 1000)[0]
        got = frozenset((frozenset(leaf_ids(u)), population(u)) for u in units)
        assert got == frozenset({(frozenset({1, 2}), 600),
                                 (frozenset({3}), 900), (frozenset({4}), 900)})

    def test_all_zero_leaves_collapse_to_parent_rect(self):
        tree = make_parent_with_leaves([0, 0, 0, 0])
        units = merge_siblings(tree, 1)[0]
        assert len(units) == 1
        assert {c for leaf in units[0] for c in leaf.rect.cells()} \
            == rect_cells(0, 0, 2, 2)
        assert population(units[0]) == 0

    def test_no_eligible_pair_is_noop(self):
        tree = make_parent_with_leaves([600, 600, 600, 600])
        units = merge_siblings(tree, 1000)[0]
        assert len(units) == 4
        assert all(len(u) == 1 for u in units)

    def test_merged_unit_keeps_merging(self):
        tree = make_parent_with_leaves([100, 100, 100, 900])
        units = merge_siblings(tree, 350)[0]
        got = sorted((sorted(leaf_ids(u)), population(u)) for u in units)
        assert got == [([1, 2, 3], 300), ([4], 900)]

    def test_diagonal_pair_never_merges(self):
        # NW+SE fit the threshold together but touch only at a corner.
        tree = make_parent_with_leaves([100, 900, 900, 100])
        units = merge_siblings(tree, 500)[0]
        assert len(units) == 4

    def test_sibling_contact_matches_flood_fill(self):
        # Every ordered pair of disjoint, connected groups of a split's parts.
        pairs = 0
        for w in range(1, 8):
            for h in range(1, 8):
                if w == h == 1:
                    continue
                parts = subdivide(Rect(0, 0, w, h))
                cells = [rect_cells(*p) for p in parts]
                groups = [g for k in range(1, len(parts) + 1)
                          for g in itertools.combinations(range(len(parts)), k)
                          if flood_connected(set().union(*(cells[i] for i in g)))]
                for a, b in itertools.product(groups, repeat=2):
                    if set(a) & set(b):
                        continue
                    ua, ub = (tuple(Leaf(i + 1, parts[i], 0) for i in g)
                              for g in (a, b))
                    assert _units_connected(ua, ub) \
                        == flood_connected(set().union(*(cells[i] for i in a + b))), (w, h, a, b)
                    pairs += 1
        assert pairs == 1464

    def test_root_leaf_has_no_partner(self):
        tree = QuadTree(leaves={None: [Leaf(0, Rect(0, 0, 3, 3), 5)]},
                        stats=TreeStats(1, 1, 0))
        units = merge_siblings(tree, 100)[None]
        assert len(units) == 1 and population(units[0]) == 5

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
           st.randoms(use_true_random=False))
    @example(1, 11, 1, random.Random(0))
    @example(9, 1, 2, random.Random(1))
    @example(7, 5, 1, random.Random(2))
    @settings(max_examples=200, deadline=None)
    def test_units_match_merge_fixpoint(self, w, h, x, rng):
        counts = [[rng.choice([0, 0, 1, 3, 9]) for _ in range(w)] for _ in range(h)]
        th = rng.randint(1, x * sum(map(sum, counts)) + 1)
        tree = build_tree(DotGrid(counts), x, th)
        merged = merge_siblings(tree, th)
        assert list(merged) == list(tree.leaves)
        for parent, leaves in tree.leaves.items():
            units = merged[parent]
            for u in units:
                assert type(u) is tuple and leaf_ids(u) == sorted(leaf_ids(u))
            assert [u[0].id for u in units] == sorted(u[0].id for u in units)
            ref = _merge_fixpoint([(leaf.id, rect_cells(*leaf.rect), leaf.population)
                                   for leaf in leaves], th)
            # Leaves tile their parent, so a unit's cells give back its leaves.
            assert [(leaf_ids(u), population(u)) for u in units] == [
                ([leaf.id for leaf in leaves if rect_cells(*leaf.rect) <= r["cells"]], r["pop"])
                for r in ref]


class TestDelimit:
    def test_16x16_sixteen_squares(self):
        s = uniform_scenario()
        result = delimit(s)
        assert result.count == 16
        for c in result.constituencies:
            assert c.population == 1600
            assert len(c.shape) == 1
            assert (c.shape[0].w, c.shape[0].h) == (4, 4)
            assert not c.flags
        # Cross-check the partition against the reference pipeline.
        expected = {(frozenset(cells), pop)
                    for cells, pop in oracle_delimit(
                        [[1] * 16 for _ in range(16)], 100, 1600)}
        got = {(cells_of(c), c.population) for c in result.constituencies}
        assert got == expected

    def test_tiny_grid_single_constituency(self):
        result = delimit(load_scenario("2 2 500 1000\n1 0\n0 0\n"))
        assert result.count == 1
        c = result.constituencies[0]
        assert c.population == 500
        assert cells_of(c) == rect_cells(0, 0, 2, 2)

    def test_over_capacity_cells_flagged(self):
        result = delimit(load_scenario("2 2 500 1000\n3 3\n3 3\n"))
        assert result.count == 4
        for c in result.constituencies:
            assert c.population == 1500
            assert c.flags == frozenset({OVER_CAPACITY})
            assert c.shape[0].area == 1
        expected = {(frozenset(cells), pop)
                    for cells, pop in oracle_delimit([[3, 3], [3, 3]], 500, 1000)}
        got = {(cells_of(c), c.population) for c in result.constituencies}
        assert got == expected

    def test_zero_population_flag(self):
        result = delimit(load_scenario("2 2 500 1000\n0 0\n0 0\n"))
        assert result.count == 1
        assert result.constituencies[0].flags == frozenset({ZERO_POPULATION})

    def test_ids_sequential_in_depth_first_order(self):
        result = delimit(uniform_scenario())
        assert [c.id for c in result.constituencies] == list(range(1, 17))
        assert result.constituencies[0].shape[0] == (0, 0, 4, 4)
        assert locate(result, 0, 0).id == 1

    def test_population_conserved(self):
        rng = random.Random(42)
        for _ in range(30):
            s = random_scenario(rng, max_dim=32)
            result = delimit(s)
            assert sum(c.population for c in result.constituencies) \
                == s.people_per_dot * s.grid.total_dots

    def test_matches_oracle_pipeline_on_random_grids(self):
        rng = random.Random(7)
        for _ in range(40):
            s = random_scenario(rng, max_dim=16, with_states=False)
            result = delimit(s)
            got = {(cells_of(c), c.population) for c in result.constituencies}
            expected = {(frozenset(cells), pop)
                        for cells, pop in oracle_delimit(
                            s.grid.counts.tolist(), s.people_per_dot, s.threshold)}
            assert got == expected

    def test_deterministic_byte_for_byte(self):
        rng1, rng2 = random.Random(99), random.Random(99)
        for _ in range(10):
            s1 = random_scenario(rng1, max_dim=24)
            s2 = random_scenario(rng2, max_dim=24)
            assert result_to_json(delimit(s1)) == result_to_json(delimit(s2))

    def test_depth_bound_on_power_of_two_grids(self):
        rng = random.Random(21)
        for _ in range(20):
            w = 2 ** rng.randint(0, 6)
            h = 2 ** rng.randint(0, 6)
            counts = [[rng.randint(0, 5) for _ in range(w)] for _ in range(h)]
            s = Scenario(grid=DotGrid(counts), people_per_dot=1,
                         threshold=rng.randint(1, 50))
            result = delimit(s)
            if any(OVER_CAPACITY in c.flags for c in result.constituencies):
                continue
            assert result.stats.max_depth <= max(w, h).bit_length() - 1


class TestByIdRange:
    @pytest.mark.parametrize("cid", [0, -1, 3])
    def test_id_outside_range_is_value_error(self, cid):
        result = delimit(load_scenario(scenario_text([[1, 1]], 1, 1)))
        assert [result.by_id(i).id for i in (1, 2)] == [1, 2]
        with pytest.raises(ValueError, match=rf"^constituency id {cid} is outside 1\.\.2$"):
            result.by_id(cid)


class TestStateLabels:
    def test_encoding_is_held_once(self):
        s = random_scenario(random.Random(24), max_dim=16, with_states=True)
        labels = s.state_labels
        assert StateLabels(labels) is labels
        result = delimit(s)
        assert result.state_labels is labels
        assert dataclasses.replace(s, threshold=s.threshold + 1).label_codes is s.label_codes
        assert dataclasses.replace(result, state_labels=labels).state_labels is labels
        assert Scenario(s.grid, 1, 1, state_labels=labels).states is s.states

    def test_any_label_grid_becomes_state_labels(self):
        rows = [["B", "A"], ["B", "B"]]
        s = Scenario(DotGrid([[1, 2], [3, 4]]), 1, 5, state_labels=rows)
        assert type(s.state_labels) is StateLabels
        assert s.state_labels == (("B", "A"), ("B", "B"))
        assert s.states == ("A", "B") and s.label_codes.tolist() == [[1, 0], [1, 1]]
        assert not s.label_codes.flags.writeable
        result = dataclasses.replace(delimit(s), state_labels=rows)
        assert type(result.state_labels) is StateLabels
        assert locate(result, 1, 0).state == "A"


class TestDelimitStates:
    def quadrant_scenario(self):
        counts = [[1] * 4 for _ in range(4)]
        labels = [["A", "A", "B", "B"],
                  ["A", "A", "B", "B"],
                  ["C", "C", "D", "D"],
                  ["C", "C", "D", "D"]]
        return load_scenario(scenario_text(counts, 100, 200, labels))

    def test_states_partitioned_independently(self):
        result = delimit(self.quadrant_scenario())
        assert set(result.per_state) == {"A", "B", "C", "D"}
        # Each 2x2 state holds 400 people at Th=200: two 2-cell constituencies.
        assert result.count == 8
        for state, ids in result.per_state.items():
            assert sum(result.by_id(i).population for i in ids) == 400
            for i in ids:
                assert result.by_id(i).state == state
        # Ids run consecutively through states in label order.
        assert result.per_state["A"] == [1, 2]
        assert result.per_state["D"] == [7, 8]

    def test_state_cells_painted_exactly_once(self):
        result = delimit(self.quadrant_scenario())
        owner = paint_cells(result)
        assert (owner > 0).all()
        labels = result.state_labels
        for y in range(4):
            for x in range(4):
                assert result.by_id(int(owner[y][x])).state == labels[y][x]

    def test_nonrectangular_state_bounding_boxes_overlap(self):
        counts = [[1, 1, 4], [1, 1, 4], [1, 1, 1]]
        labels = [["A", "A", "B"], ["A", "A", "B"], ["A", "A", "A"]]
        s = load_scenario(scenario_text(counts, 1, 4, labels))
        result = delimit(s)
        owner = paint_cells(result)
        assert (owner > 0).all()
        for y in range(3):
            for x in range(3):
                assert result.by_id(int(owner[y][x])).state == labels[y][x]
        # Population splits exactly along the state mask.
        a_total = sum(result.by_id(i).population for i in result.per_state["A"])
        b_total = sum(result.by_id(i).population for i in result.per_state["B"])
        assert (a_total, b_total) == (7, 8)

    def test_paint_matches_locate_when_labels_differ_by_trailing_nul(self):
        result = delimit(load_scenario(NUL_LABELS_TEXT))
        assert [(c.id, c.state, c.shape) for c in result.constituencies] == [
            (1, "A", ((1, 1, 1, 1),)), (2, "A\0", ((0, 0, 2, 2),))]
        owner = paint_cells(result)
        for y in range(2):
            for x in range(2):
                assert owner[y, x] == locate(result, x, y).id
        assert owner.tolist() == [[2, 2], [2, 1]]

    @pytest.mark.parametrize("labels", [
        (("A",), ("B", "A", "B")),
        (("A", "B"), ("A", "B"), ("A", "B")),
        (("A", "B", "A"), ("A", "B", "A")),
    ], ids=["ragged", "2x3", "3x2"])
    def test_state_labels_must_match_result_size(self, labels):
        # Labels of another size would draw, paint and locate the wrong cells.
        result = delimit(load_scenario("2 2 1 10\n1 1\n1 1\nSTATES\nA B\nA B\n"))
        with pytest.raises(ValueError, match="^state labels must be 2x2 like the result$"):
            dataclasses.replace(result, state_labels=labels)
        assert dataclasses.replace(result, state_labels=(("B", "A"), ("B", "A"))).width == 2

    def test_random_state_scenarios_conserve_population(self):
        rng = random.Random(14)
        for _ in range(20):
            s = random_scenario(rng, max_dim=24, with_states=True)
            result = delimit(s)
            for state, ids in result.per_state.items():
                assert sum(result.by_id(i).population for i in ids) \
                    == s.state_population(state)


class TestLocate:
    def test_single_leaf_identity(self):
        result = delimit(load_scenario("3 3 10 1000\n1 1 1\n1 1 1\n1 1 1\n"))
        for x in range(3):
            for y in range(3):
                assert locate(result, x, y).id == 1

    def test_out_of_bounds_edges(self):
        result = delimit(uniform_scenario())
        with pytest.raises(ValueError, match="outside grid"):
            locate(result, 16, 0)
        with pytest.raises(ValueError, match="outside grid"):
            locate(result, 0, -1)

    def test_matches_containment_oracle_and_visit_bound(self):
        rng = random.Random(31)
        for _ in range(25):
            s = random_scenario(rng, max_dim=32)
            result = delimit(s)
            for _ in range(20):
                cx = rng.randrange(s.grid.width)
                cy = rng.randrange(s.grid.height)
                c, visits = locate_with_visits(result, cx, cy)
                assert c.id == containment_scan(result, cx, cy).id
                assert visits <= result.stats.max_depth + 1

    @staticmethod
    def check_every_cell(scenario):
        """In memory, ids and visits equal the explicit tree walk's; after a
        JSON round trip, ids equal the first-match scan's."""
        result = delimit(scenario)
        loaded = result_from_json(result_to_json(result))
        trees, owners = reference_state_trees(scenario), leaf_owners(result)
        labels = scenario.state_labels
        for cy in range(result.height):
            for cx in range(result.width):
                state = labels[cy][cx] if labels is not None else None
                c, visits = locate_with_visits(result, cx, cy)
                assert (c.id, visits) == tree_walk_locate(trees, owners, state, cx, cy)
                assert locate(loaded, cx, cy).id == containment_scan(loaded, cx, cy).id

    @given(st.sampled_from([None, random_staircase_labels, random_l_labels]),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_cell_matches_tree_walk_and_scan(self, labeller, rng):
        kwargs = {"with_states": False} if labeller is None \
            else {"with_states": True, "labeller": labeller}
        self.check_every_cell(random_scenario(rng, max_dim=16, min_dim=6, **kwargs))

    @pytest.mark.parametrize("length", range(1, 34))
    def test_every_cell_of_strips(self, length):
        # One-cell-wide and one-cell-tall maps: every level halves one axis
        # and keeps the 1-wide span whole.
        rng = random.Random(length)
        row = [rng.choice([0, 1, 3, 9]) for _ in range(length)]
        for counts in ([row], [[v] for v in row]):
            for th in (1, 4, sum(row) // 3 + 1):
                self.check_every_cell(load_scenario(scenario_text(counts, 1, th)))

    def test_shared_rect_in_two_states(self):
        # A's tree has leaf (0,1,1,1) in c1; B's root is the same rect, c3.
        s = load_scenario(scenario_text([[1, 1], [0, 1]], 1, 2, labels=[["A", "A"], ["B", "A"]]))
        self.check_every_cell(s)
        result = delimit(s)
        assert Rect(0, 1, 1, 1) in result.by_id(1).shape
        assert result.by_id(3).shape == (Rect(0, 1, 1, 1),)
        assert locate(result, 0, 1).id == 3
        assert locate(result_from_json(result_to_json(result)), 0, 1).id == 1

    def test_locate_reads_the_constituencies_it_holds(self):
        result = delimit(uniform_scenario())
        whole = Constituency(id=1, shape=(Rect(0, 0, 16, 16),), population=25600,
                             flags=frozenset())
        replaced = dataclasses.replace(result, constituencies=[whole])
        assert locate_with_visits(replaced, 9, 9) == (whole, 1)

    def test_unindexed_cell_is_value_error(self):
        loaded = result_from_json(json.dumps(THREE_BY_ONE))
        assert locate_with_visits(loaded, 0, 0) == (loaded.by_id(1), 3)
        for cx in (1, 2):
            with pytest.raises(ValueError, match="no constituency contains"):
                locate(loaded, cx, 0)

    def test_repeated_rect_answers_first_id(self):
        doc = dict(THREE_BY_ONE, constituencies=[
            {"id": 1, "population": 1, "flags": [], "rects": [[0, 0, 1, 1]]},
            {"id": 2, "population": 1, "flags": [], "rects": [[0, 0, 1, 1]]}])
        loaded = result_from_json(json.dumps(doc))
        assert locate(loaded, 0, 0).id == containment_scan(loaded, 0, 0).id == 1

    def test_label_without_constituency_is_value_error(self):
        result = delimit(load_scenario(scenario_text([[1, 1]], 1, 5, labels=[["A", "B"]])))
        only_a = dataclasses.replace(result, constituencies=result.constituencies[:1])
        assert locate(only_a, 0, 0).id == 1
        with pytest.raises(ValueError, match="no constituency contains"):
            locate(only_a, 1, 0)


class TestTreeStats:
    def test_single_leaf(self):
        tree = build_tree(DotGrid([[1]]), 1, 10)
        assert tree_stats(tree) == TreeStats(1, 1, 0)

    def test_16x16_scenario(self):
        tree = build_tree(DotGrid([[1] * 16 for _ in range(16)]), 100, 1600)
        stats = tree_stats(tree)
        assert (stats.nodes, stats.leaves, stats.max_depth) == (21, 16, 2)
        assert (stats.nodes, stats.leaves, stats.max_depth) \
            == tree_stats_by_traversal(grid_tree(uniform_scenario()))

    def test_leaf_count_equals_pre_merge_pieces(self):
        rng = random.Random(17)
        for _ in range(15):
            s = random_scenario(rng, max_dim=24, with_states=False)
            tree = build_tree(s.grid, s.people_per_dot, s.threshold)
            assert tree_stats(tree).leaves \
                == sum(not n.children for n in preorder_nodes(grid_tree(s)))

    def test_recorded_stats_match_traversal(self):
        rng = random.Random(19)
        labelled = 0
        for _ in range(40):
            s = random_scenario(rng, max_dim=32)
            result = delimit(s)
            labelled += s.state_labels is not None
            trees, refs = state_trees(s), reference_state_trees(s)
            per_tree = [t.stats for t in trees.values()]
            for state, tree in trees.items():
                assert (tree.stats.nodes, tree.stats.leaves, tree.stats.max_depth) \
                    == tree_stats_by_traversal(refs[state])
            assert result.stats == TreeStats(
                nodes=sum(st.nodes for st in per_tree),
                leaves=sum(st.leaves for st in per_tree),
                max_depth=max(st.max_depth for st in per_tree))
        assert labelled > 0


class TestSerialization:
    def test_json_shape(self):
        result = delimit(uniform_scenario())
        doc = json.loads(result_to_json(result))
        assert list(doc) == ["count", "threshold", "peoplePerDot",
                             "constituencies", "stats"]
        assert doc["count"] == 16
        assert doc["threshold"] == 1600
        assert doc["peoplePerDot"] == 100
        assert doc["stats"] == {"nodes": 21, "leaves": 16, "maxDepth": 2}
        first = doc["constituencies"][0]
        assert list(first) == ["id", "population", "flags", "rects"]
        assert first["rects"] == [[0, 0, 4, 4]]
        assert [c["id"] for c in doc["constituencies"]] == list(range(1, 17))

    def test_state_field_serialized(self):
        result = delimit(TestDelimitStates().quadrant_scenario())
        doc = json.loads(result_to_json(result))
        assert list(doc["constituencies"][0]) == ["id", "state", "population",
                                                  "flags", "rects"]

    def test_round_trip_preserves_everything_observable(self):
        rng = random.Random(55)
        for _ in range(15):
            s = random_scenario(rng, max_dim=24)
            result = delimit(s)
            loaded = result_from_json(result_to_json(result))
            assert loaded.count == result.count
            assert loaded.stats == result.stats
            assert (loaded.width, loaded.height) == (result.width, result.height)
            for a, b in zip(result.constituencies, loaded.constituencies):
                assert (a.id, a.shape, a.population, a.flags, a.state) \
                    == (b.id, b.shape, b.population, b.flags, b.state)
            # Serializing the loaded result reproduces the bytes.
            assert result_to_json(loaded) == result_to_json(result)

    def test_loaded_result_locate_matches_tree_locate(self):
        rng = random.Random(77)
        for _ in range(10):
            s = random_scenario(rng, max_dim=16, with_states=False)
            result = delimit(s)
            loaded = result_from_json(result_to_json(result))
            for _ in range(15):
                cx = rng.randrange(s.grid.width)
                cy = rng.randrange(s.grid.height)
                assert locate(loaded, cx, cy).id == locate(result, cx, cy).id

    def test_malformed_documents_rejected(self):
        with pytest.raises(ResultFormatError, match="invalid JSON"):
            result_from_json("{nope")
        with pytest.raises(ResultFormatError, match="missing key"):
            result_from_json('{"count": 0}')
        good = result_to_dict(delimit(load_scenario("1 1 1 10\n3\n")))
        bad = dict(good, count=5)
        with pytest.raises(ResultFormatError, match="count"):
            result_from_json(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["constituencies"][0]["id"] = 9
        with pytest.raises(ResultFormatError, match="sequential"):
            result_from_json(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["constituencies"][0]["rects"] = [[0, 0, 0, 1]]
        with pytest.raises(ResultFormatError, match="empty rectangle"):
            result_from_json(json.dumps(bad))
        for field, value, message in [
            ("rects", 5, "'rects' must be a list"),
            ("rects", [[0, 0, True, 1]], "integers"),
            ("rects", [[0.0, 0, 1, 1]], "integers"),
            ("population", True, "population"),
            ("flags", 5, "flags"),
            ("flags", "abc", "flags"),
            ("flags", ["a"], "flags"),
            ("flags", [["overCapacity"]], "flags"),
            ("state", 7, "state must be a string"),
            ("state", None, "state must be a string"),
        ]:
            bad = json.loads(json.dumps(good))
            bad["constituencies"][0][field] = value
            with pytest.raises(ResultFormatError, match=message):
                result_from_json(json.dumps(bad))
        with pytest.raises(ResultFormatError, match="must not be empty"):
            result_from_json(json.dumps(dict(good, count=0, constituencies=[])))
        for key in ("threshold", "peoplePerDot"):
            for value in ("abc", -5, 0, True, 1.5, None, [1]):
                with pytest.raises(ResultFormatError, match=f"'{key}' must be a positive"):
                    result_from_json(json.dumps(dict(good, **{key: value})))
        for key in ("nodes", "leaves", "maxDepth"):
            for value in ("x", None, [1], -1, False, 2.0):
                bad = json.loads(json.dumps(good))
                bad["stats"][key] = value
                with pytest.raises(ResultFormatError, match=f"'stats.{key}' must be"):
                    result_from_json(json.dumps(bad))
        with pytest.raises(ResultFormatError, match="'count' must be an integer"):
            result_from_json(json.dumps(dict(good, count=1.0)))
        for value in (True, 1.0):
            bad = json.loads(json.dumps(good))
            bad["constituencies"][0]["id"] = value
            with pytest.raises(ResultFormatError, match="sequential integers"):
                result_from_json(json.dumps(bad))
        for quads, message in [([[0, 0, 1]], "integers"), ([[0, 0, 1, 1, 1]], "integers"),
                               ([[-1, 0, 1, 1]], "negative origin"), ([], "has no rects")]:
            bad = json.loads(json.dumps(good))
            bad["constituencies"][0]["rects"] = quads
            with pytest.raises(ResultFormatError, match=message):
                result_from_json(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["constituencies"][0] = []
        with pytest.raises(ResultFormatError, match="constituency #1 must be an object"):
            result_from_json(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        del bad["constituencies"][0]["rects"]
        with pytest.raises(ResultFormatError, match="constituency #1 missing key 'rects'"):
            result_from_json(json.dumps(bad))
        # A repeated flag is not a fault: it loads as the one flag.
        bad = json.loads(json.dumps(good))
        bad["constituencies"][0]["flags"] = [OVER_CAPACITY, OVER_CAPACITY]
        assert result_from_json(json.dumps(bad)).by_id(1).flags == {OVER_CAPACITY}
        two = result_to_dict(delimit(load_scenario("2 1 1 1\n1 1\nSTATES\nA B\n")))
        del two["constituencies"][1]["state"]
        with pytest.raises(ResultFormatError, match="every constituency or on none"):
            result_from_json(json.dumps(two))

    def test_deeply_nested_json_is_format_error(self):
        with pytest.raises(ResultFormatError, match="invalid JSON"):
            result_from_json(DEEP_JSON)

    def test_result_is_frozen(self):
        result = delimit(TestDelimitStates().quadrant_scenario())
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.state_labels = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.constituencies = []
        loaded = result_from_json(result_to_json(result))
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.state_labels = result.state_labels
        assert loaded.count == result.count == len(result.constituencies)


class TestPartitionInvariants:
    def test_paint_covers_exactly_once(self):
        rng = random.Random(101)
        for _ in range(40):
            s = random_scenario(rng, max_dim=32)
            result = delimit(s)
            owner = paint_cells(result)
            assert (owner > 0).all()
            # Rebuild each constituency's owned cells and compare sizes.
            painted = {c.id: 0 for c in result.constituencies}
            for row in owner:
                for v in row:
                    painted[int(v)] += 1
            if s.state_labels is None:
                for c in result.constituencies:
                    assert painted[c.id] == sum(r.area for r in c.shape)

    def test_every_constituency_connected(self):
        rng = random.Random(103)
        for _ in range(30):
            s = random_scenario(rng, max_dim=24)
            for c in delimit(s).constituencies:
                assert flood_connected(set(cells_of(c)))

    def test_threshold_respected_unless_flagged(self):
        rng = random.Random(105)
        for _ in range(30):
            s = random_scenario(rng, max_dim=24)
            for c in delimit(s).constituencies:
                if OVER_CAPACITY in c.flags:
                    assert len(c.shape) == 1 and c.shape[0].area == 1
                else:
                    assert c.population <= s.threshold


class TestCheckResult:
    def test_first_constituency_in_id_order_is_named(self):
        result = delimit(uniform_scenario())
        assert [c.flags for c in result.constituencies] == [frozenset()] * 16
        cs = list(result.constituencies)
        cs[4] = dataclasses.replace(cs[4], flags=frozenset({OVER_CAPACITY}))
        cs[8] = dataclasses.replace(cs[8], flags=frozenset({ZERO_POPULATION}))
        with pytest.raises(ResultFormatError, match=r"^constituency #5: flags must be \[\]"):
            check_result(dataclasses.replace(result, constituencies=cs))
        cs = list(result.constituencies)
        cs[0] = dataclasses.replace(cs[0], population=1601)
        with pytest.raises(ResultFormatError, match=r"flags must be \['overCapacity'\]"):
            check_result(dataclasses.replace(result, constituencies=cs))
        cs[0] = dataclasses.replace(cs[0], population=0)
        with pytest.raises(ResultFormatError, match=r"flags must be \['zeroPopulation'\]"):
            check_result(dataclasses.replace(result, constituencies=cs))

    @pytest.mark.parametrize("nodes, leaves, ok", [(16, 16, True), (21, 16, True),
                                                   (21, 15, False), (15, 16, False)])
    def test_stats_rule(self, nodes, leaves, ok):
        result = dataclasses.replace(delimit(uniform_scenario()),
                                     stats=TreeStats(nodes, leaves, 2))
        if ok:
            check_result(result)
        else:
            with pytest.raises(ResultFormatError, match="nodes >= leaves >= count"):
                check_result(result)

    # (labeller, least side): the staircase and L labellers need six cells a side.
    @given(st.randoms(use_true_random=False),
           st.sampled_from([(None, 1), (random_state_labels, 1), (random_staircase_labels, 6),
                            (random_l_labels, 6)]))
    @settings(max_examples=150, deadline=None)
    @example(random.Random(0), ("ring", 0))
    def test_every_document_delimit_writes_passes_with_its_scenario(self, rng, labelling):
        labeller, min_dim = labelling
        if labeller == "ring":
            s = load_scenario(scenario_text(RING_COUNTS, 10, 60, [r.split() for r in RING_LABELS]))
        else:
            s = random_scenario(rng, max_dim=24, with_states=labeller is not None,
                                min_dim=min_dim, labeller=labeller or random_state_labels)
        result = delimit(s)
        check_result(result, s)
        loaded = result_from_json(result_to_json(result))
        check_result(dataclasses.replace(loaded, state_labels=s.state_labels), s)

    @pytest.mark.parametrize("people_per_dot, labels, state, message", [
        (2, None, None, "^peoplePerDot 1 does not match the scenario's 2$"),
        (1, (("A", "B"),), None,
         "^constituency #1: state must be given, as the scenario has state labels$"),
        (1, (("A", "B"),), "C", "^constituency #1: state 'C' is not one of the scenario's$"),
        (1, None, "A", "^constituency #1: state 'A' is not one of the scenario's$"),
    ], ids=["people-per-dot", "state-missing", "unknown-state", "state-without-labels"])
    def test_scenario_rules(self, people_per_dot, labels, state, message):
        result = delimit(load_scenario(scenario_text([[1, 1]], 1, 1)))
        check_result(result)
        cs = [dataclasses.replace(c, state=state) for c in result.constituencies]
        result = dataclasses.replace(result, constituencies=cs, state_labels=labels)
        s = Scenario(DotGrid([[1, 1]]), people_per_dot, 1, state_labels=labels)
        with pytest.raises(ResultFormatError, match=message):
            check_result(result, s)
        check_result(result)

    def test_every_document_delimit_writes_passes(self):
        scenarios = [load_scenario(scenario_text(RING_COUNTS, 10, 60,
                                                 [r.split() for r in RING_LABELS]))]
        rng = random.Random(5005)
        scenarios += [random_scenario(rng, max_dim=24, with_states=i % 2 == 1)
                      for i in range(len(GOLDEN))]
        rng = random.Random(7007)
        scenarios += [random_scenario(rng, max_dim=24, with_states=True, min_dim=6,
                                      labeller=random_l_labels if i % 2 else random_staircase_labels)
                      for i in range(len(NON_RECT_GOLDEN))]
        rng = random.Random(2020)
        scenarios += [random_scenario(rng, max_dim=24, with_states=i % 2 == 1)
                      for i in range(200)]
        for s in scenarios:
            result = delimit(s)
            check_result(result)
            check_result(result_from_json(result_to_json(result)))
