"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints a
``criterion N: PASS`` line (run ``pytest -s`` to see them live).
"""

import random
import time

from quadlimit import StateRecord, delimit, hamilton, huntington_hill, \
    jefferson, load_scenario, locate_with_visits, render_svg, webster
from quadlimit.popgrid import DotGrid, Rect, Scenario
from quadlimit.quadtree import OVER_CAPACITY, paint_cells
from quadlimit.render import RenderStyle

from helpers import random_scenario, scenario_text
from oracles import boundary_edge_set, containment_scan, flood_connected, \
    hamilton_rational_oracle, jefferson_divisor_oracle, leaf_owners, naive_rect_sum, \
    path_edge_set, rasterize_path, state_trees, svg_constituency_paths, \
    webster_divisor_oracle
import helpers

SAMPLE = [StateRecord("A", 2560), StateRecord("B", 3315),
          StateRecord("C", 995), StateRecord("D", 5012)]


def best_time(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_01_jefferson_exact_and_fast():
    result, seconds = best_time(lambda: jefferson(SAMPLE, 20))
    assert result.seats == {"A": 4, "B": 6, "C": 1, "D": 9}
    assert seconds < 0.001
    print(f"criterion 1: PASS jefferson (4, 6, 1, 9) in {seconds * 1e6:.0f} us")


def test_criterion_02_webster_exact():
    assert webster(SAMPLE, 20).seats == {"A": 4, "B": 6, "C": 2, "D": 8}
    print("criterion 2: PASS webster (4, 6, 2, 8)")


def test_criterion_03_huntington_hill_exact():
    assert huntington_hill(SAMPLE, 20).seats == {"A": 4, "B": 6, "C": 2, "D": 8}
    print("criterion 3: PASS huntington-hill (4, 6, 2, 8)")


def test_criterion_04_hamilton_against_rational_oracle():
    expected = hamilton_rational_oracle([(s.label, s.population) for s in SAMPLE], 20)
    assert expected == {"A": 4, "B": 6, "C": 2, "D": 8}
    result = hamilton(SAMPLE, 20)
    assert result.seats == expected
    assert sum(result.seats.values()) == 20
    for s in SAMPLE:
        quota = result.quotas[s.label]
        floor = quota.numerator // quota.denominator
        assert result.seats[s.label] in (floor, floor + 1)
    print("criterion 4: PASS hamilton (4, 6, 2, 8), quota rule, sum 20")


def test_criterion_05_deterministic_16x16_scenario():
    scenario = load_scenario(scenario_text([[1] * 16 for _ in range(16)], 100, 1600))
    result, seconds = best_time(lambda: delimit(scenario))
    assert result.count == 16
    for c in result.constituencies:
        assert len(c.shape) == 1
        assert (c.shape[0].w, c.shape[0].h) == (4, 4)
        assert c.population == 1600
    assert (result.stats.nodes, result.stats.leaves, result.stats.max_depth) \
        == (21, 16, 2)
    assert seconds < 0.010
    print(f"criterion 5: PASS 16 constituencies, stats (21, 16, 2), "
          f"{seconds * 1e3:.2f} ms")


def _constituencies_by_parent(scenario, result):
    # (state, parent node id or None for a root leaf) -> {id: constituency},
    # read off the leaves of each state's tree, matched to constituencies by
    # (state, rect).
    owners = leaf_owners(result)
    groups = {}
    for state, tree in state_trees(scenario).items():
        for parent, leaves in tree.leaves.items():
            for leaf in leaves:
                cid = owners[(state, leaf.rect)]
                groups.setdefault((state, parent), {})[cid] = result.by_id(cid)
    return {key: list(group.values()) for key, group in groups.items()}


def test_criterion_06_property_suite_1000_scenarios():
    rng = random.Random(600)
    checked = 0
    for _ in range(1000):
        scenario = random_scenario(rng, max_dim=64)
        result = delimit(scenario)
        th = scenario.threshold

        # Partition coverage: every cell painted exactly once (state-aware).
        owner = paint_cells(result)
        assert (owner > 0).all()
        sizes = {c.id: 0 for c in result.constituencies}
        for v in owner.ravel():
            sizes[int(v)] += 1
        if scenario.state_labels is None:
            for c in result.constituencies:
                assert sizes[c.id] == sum(r.area for r in c.shape)

        # Population conservation, globally and per state.
        assert sum(c.population for c in result.constituencies) \
            == scenario.people_per_dot * scenario.grid.total_dots
        if result.per_state is not None:
            for state, ids in result.per_state.items():
                assert sum(result.by_id(i).population for i in ids) \
                    == scenario.state_population(state)

        # Threshold compliance and over-capacity shape.
        for c in result.constituencies:
            if OVER_CAPACITY in c.flags:
                assert len(c.shape) == 1 and c.shape[0].area == 1
                assert c.population > th
            else:
                assert c.population <= th

        # Orthogonal contiguity of every constituency.
        for c in result.constituencies:
            assert flood_connected({cell for r in c.shape for cell in r.cells()})

        # Merge fixpoint soundness: no same-parent pair may still merge.
        for (_, _), group in _constituencies_by_parent(scenario, result).items():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    if a.population + b.population > th:
                        continue
                    union = {cell for r in a.shape + b.shape for cell in r.cells()}
                    assert not flood_connected(union), \
                        f"mergeable pair {a.id}, {b.id} survived"
        checked += 1
    assert checked == 1000
    print("criterion 6: PASS 1000 scenarios, zero violations")


def test_criterion_07_locate_oracle_100x100():
    rng = random.Random(700)
    for _ in range(100):
        scenario = random_scenario(rng, max_dim=48)
        result = delimit(scenario)
        for _ in range(100):
            cx = rng.randrange(scenario.grid.width)
            cy = rng.randrange(scenario.grid.height)
            found, visits = locate_with_visits(result, cx, cy)
            assert found.id == containment_scan(result, cx, cy).id
            assert visits <= result.stats.max_depth + 1
    print("criterion 7: PASS 100 x 100 locate lookups match brute force")


def test_criterion_08_sat_oracle_10000_pairs():
    rng = random.Random(800)
    pairs = 0
    while pairs < 10_000:
        w, h = rng.randint(1, 24), rng.randint(1, 24)
        counts = [[rng.randint(0, 9) for _ in range(w)] for _ in range(h)]
        grid = DotGrid(counts)
        for _ in range(40):
            rw, rh = rng.randint(1, w), rng.randint(1, h)
            rx, ry = rng.randint(0, w - rw), rng.randint(0, h - rh)
            assert grid.count_dots(Rect(rx, ry, rw, rh)) \
                == naive_rect_sum(counts, rx, ry, rw, rh)
            pairs += 1
    print(f"criterion 8: PASS {pairs} SAT queries match naive summation")


def test_criterion_09_priority_equals_divisor_search_500():
    rng = random.Random(900)
    for _ in range(500):
        states, seats = helpers.random_apportionment_instance(rng, 10, 100)
        pops = [(s.label, s.population) for s in states]
        assert jefferson(states, seats).seats == jefferson_divisor_oracle(pops, seats)
        assert webster(states, seats).seats == webster_divisor_oracle(pops, seats)
    print("criterion 9: PASS 500 instances, priority == divisor search")


def test_criterion_10_scale_invariance_and_monotonicity_500():
    rng = random.Random(1000)
    for _ in range(500):
        states, seats = helpers.random_apportionment_instance(rng, 10, 100)
        factor = rng.randint(2, 1000)
        scaled = [StateRecord(s.label, s.population * factor) for s in states]
        for method in (jefferson, webster, huntington_hill):
            base = method(states, seats).seats
            assert method(scaled, seats).seats == base
            bigger = method(states, seats + 1).seats
            diffs = sorted(bigger[lab] - base[lab] for lab in base)
            assert diffs == [0] * (len(states) - 1) + [1]
    print("criterion 10: PASS 500 instances, scale invariance + monotonicity")


def test_criterion_11_large_grid_performance():
    # 1024x1024 of single dots at threshold 256 subdivides to 16x16 leaves.
    counts = [[1] * 1024] * 1024
    scenario = Scenario(grid=DotGrid(counts), people_per_dot=1, threshold=256)
    start = time.perf_counter()
    result = delimit(scenario)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert result.stats.leaves == 4096
    assert result.stats.max_depth == 6
    assert result.count == 4096

    rng = random.Random(1100)
    points = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(1000)]
    visits = []
    for cx, cy in points:
        found, v = locate_with_visits(result, cx, cy)
        visits.append(v)
    mean_visits = sum(visits) / len(visits)
    assert mean_visits <= result.stats.max_depth + 1 == 7

    # Spot-check tree answers against the flat scan it replaces.
    for cx, cy in points[:25]:
        assert locate_with_visits(result, cx, cy)[0].id \
            == containment_scan(result, cx, cy).id
    print(f"criterion 11: PASS delimit {elapsed * 1e3:.0f} ms, "
          f"mean locate visits {mean_visits:.2f} <= 7 vs 4096-leaf scan")


def test_criterion_12_svg_round_trip_50_scenarios():
    flat = RenderStyle(draw_dots=False)
    rng = random.Random(1200)
    merged_seen = 0
    scenarios = [load_scenario(scenario_text(
        [[1, 0, 1], [0, 0, 0], [1, 0, 9]], 1, 5))]
    while len(scenarios) < 50:
        scenarios.append(random_scenario(rng, max_dim=12, with_states=False))
    for scenario in scenarios:
        result = delimit(scenario)
        svg = render_svg(result, scenario.grid, flat)
        paths = svg_constituency_paths(svg)
        assert sorted(paths) == [c.id for c in result.constituencies]
        for c in result.constituencies:
            cells = {cell for r in c.shape for cell in r.cells()}
            if len(c.shape) > 1:
                merged_seen += 1
            got = rasterize_path(paths[c.id], scenario.grid.width,
                                 scenario.grid.height, 24)
            assert got == cells
            assert path_edge_set(paths[c.id], 24) == boundary_edge_set(cells)
    assert merged_seen > 0
    print(f"criterion 12: PASS 50 scenarios round-tripped "
          f"({merged_seen} merged shapes included)")
