"""Metamorphic relations between ``delimit``'s paths: each compares two runs
of the pipeline on related inputs, so it needs no oracle."""

import dataclasses
import random
import re
from xml.sax.saxutils import escape

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import delimit, locate, paint_cells, render_svg, result_from_json, \
    result_to_json

from helpers import random_l_labels, random_scenario, random_staircase_labels, \
    random_state_labels

_STATES_GROUP = re.compile(r'  <g id="states".*?  </g>\n', re.S)
_STATE_PATH = re.compile(r'<path id="state-([^"]*)" ')


@given(st.randoms(use_true_random=False), st.integers(2, 10**6))
@example(random.Random(0), 10**6)
@settings(max_examples=80, deadline=None)
def test_scaling_people_and_threshold_scales_populations(rng, k):
    # Only the ratio of population to threshold decides a split or a merge.
    plain = random_scenario(rng, max_dim=16)
    scaled = dataclasses.replace(plain, people_per_dot=plain.people_per_dot * k,
                                 threshold=plain.threshold * k)
    a, b = delimit(plain), delimit(scaled)
    assert [(c.id, c.shape, c.population * k, c.flags, c.state) for c in a.constituencies] \
        == [(c.id, c.shape, c.population, c.flags, c.state) for c in b.constituencies]
    assert a.stats == b.stats


@given(st.randoms(use_true_random=False))
@example(random.Random(0))
@settings(max_examples=150, deadline=None)
def test_one_state_delimits_as_no_states(rng):
    # Every cell in one state: the state's masked grid is the whole grid, so
    # the labelled path must give what the unlabelled one gives.
    plain = random_scenario(rng, max_dim=16, with_states=False)
    w, h = plain.grid.width, plain.grid.height
    one = dataclasses.replace(plain, state_labels=(("S",) * w,) * h)
    a, b = delimit(plain), delimit(one)
    assert [(c.id, c.shape, c.population, c.flags) for c in a.constituencies] \
        == [(c.id, c.shape, c.population, c.flags) for c in b.constituencies]
    assert {c.state for c in b.constituencies} == {"S"}
    assert a.stats == b.stats
    # The SVGs differ only by the state outline; the JSONs only by the state lines.
    one_svg = render_svg(b, one.grid)
    assert '<path id="state-S" d="M 0 0 L ' in one_svg
    assert _STATES_GROUP.sub("", one_svg) == render_svg(a, plain.grid)
    assert [line for line in result_to_json(b).splitlines() if line != '      "state": "S",'] \
        == result_to_json(a).splitlines()


@given(st.randoms(use_true_random=False),
       st.lists(st.text("A\0&<", min_size=1, max_size=3), min_size=6, max_size=6, unique=True))
@example(random.Random(0), ["&", "&\0", "<", "<&", "A", "A\0"])
@example(random.Random(0), ["&", "&<", "<", "<&", "A", "A&"])
@settings(max_examples=80, deadline=None)
def test_order_preserving_rename_changes_only_state_names(rng, names):
    # Names are drawn with trailing NULs and XML specials; sorted, they map
    # the old sorted names in order.
    labeller = rng.choice([random_state_labels, random_staircase_labels, random_l_labels])
    plain = random_scenario(rng, max_dim=16, min_dim=6, with_states=True, labeller=labeller)
    new = dict(zip(plain.states, sorted(names)))
    renamed = dataclasses.replace(plain, state_labels=tuple(
        tuple(new[label] for label in row) for row in plain.state_labels))
    assert renamed.states == tuple(new[s] for s in plain.states)
    a, b = delimit(plain), delimit(renamed)
    assert b == dataclasses.replace(a, state_labels=renamed.state_labels, constituencies=[
        dataclasses.replace(c, state=new[c.state]) for c in a.constituencies])
    assert (paint_cells(a) == paint_cells(b)).all()
    if "\0" not in "".join(renamed.states):  # XML cannot hold a NUL
        ids = {old: escape(name, {'"': "&quot;"}) for old, name in new.items()}
        assert render_svg(b, renamed.grid) == _STATE_PATH.sub(
            lambda m: f'<path id="state-{ids[m[1]]}" ', render_svg(a, plain.grid))


@given(st.randoms(use_true_random=False))
@example(random.Random(0))
@settings(max_examples=80, deadline=None)
def test_raising_the_threshold_prunes_the_tree(rng):
    low = random_scenario(rng, max_dim=16)
    high = dataclasses.replace(low, threshold=low.threshold + rng.randint(
        1, max(1, low.people_per_dot * low.grid.total_dots)))
    a, b = delimit(low), delimit(high)
    assert b.stats.nodes <= a.stats.nodes and b.stats.leaves <= a.stats.leaves \
        and b.stats.max_depth <= a.stats.max_depth
    # Both trees split by one rule, so the coarse one is a prefix of the fine
    # one iff each fine leaf lies inside a coarse leaf of its state; the
    # constituencies' rects are the leaves.
    coarse = [(c.state, r) for c in b.constituencies for r in c.shape]
    for c in a.constituencies:
        for x0, y0, w, h in c.shape:
            assert any(state == c.state and r.x0 <= x0 and x0 + w <= r.x0 + r.w
                       and r.y0 <= y0 and y0 + h <= r.y0 + r.h for state, r in coarse)


@given(st.randoms(use_true_random=False))
@example(random.Random(0))
@settings(max_examples=60, deadline=None)
def test_locate_in_memory_and_loaded_agree_with_paint(rng):
    scenario = random_scenario(rng, max_dim=16, with_states=False)
    result = delimit(scenario)
    loaded = result_from_json(result_to_json(result))
    owner = paint_cells(result).tolist()
    for y, row in enumerate(owner):
        for x, cid in enumerate(row):
            assert locate(result, x, y).id == cid == locate(loaded, x, y).id
