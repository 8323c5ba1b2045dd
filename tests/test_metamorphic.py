"""Metamorphic relations between ``delimit``'s paths: each compares two runs
of the pipeline on related inputs, so it needs no oracle."""

import dataclasses
import random
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import delimit, render_svg, result_to_json

from helpers import random_scenario

_STATES_GROUP = re.compile(r'  <g id="states".*?  </g>\n', re.S)


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
