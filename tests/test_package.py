"""The package's public surface, and what its modules load.

``quadlimit`` imports a public name's home module on first use and then keeps
the name in its own namespace. The result layer, ``quadlimit.quadtree``, reads,
writes and queries result documents without numpy; only ``paint_cells``
loads it.
"""

import dataclasses
import json

import pytest

import quadlimit
from quadlimit import delimit, load_scenario, locate, locate_with_visits, paint_cells, \
    result_from_json, result_to_json

from helpers import fresh_python, scenario_text

PUBLIC_NAMES = [
    "ApportionmentError", "ApportionmentResult", "Constituency", "DelimitationResult", "DotGrid",
    "Leaf", "QuadTree", "Rect", "RenderStyle", "ResultFormatError", "Scenario", "ScenarioError",
    "StateRecord", "TreeStats", "boundary_loops", "build_sat", "build_tree", "check_result",
    "compare_methods", "delimit", "hamilton", "huntington_hill", "jefferson", "load_scenario",
    "load_scenario_file", "locate", "locate_with_visits", "merge_siblings", "paint_cells",
    "render_ascii_grid", "render_svg", "result_from_json", "result_to_json", "subdivide",
    "tree_stats", "webster",
]

# In a new interpreter: no public name is bound before its first use, each is
# bound after it, and ``import *`` binds them all.
FIRST_USE = """
import json, sys
import quadlimit
before = sorted(set(quadlimit.__all__) & set(vars(quadlimit)))
homes = {}
for name in quadlimit.__all__:
    value = getattr(quadlimit, name)
    homes[name] = [value.__module__, getattr(sys.modules[value.__module__], name) is value,
                   vars(quadlimit).get(name) is value]
star = {}
exec("from quadlimit import *", star)
print(json.dumps({"before": before, "homes": homes,
                  "star": sorted(k for k in star if not k.startswith("__"))}))
"""

# In a new interpreter that imports only the result layer: each document is
# loaded, written back and queried at every cell, then painted.
RESULT_LAYER = """
import dataclasses, json, sys
import quadlimit.quadtree as qt
out = []
results = []
for text, labels in json.load(sys.stdin):
    result = qt.result_from_json(text)
    same = qt.result_to_json(result) == text
    if labels is not None:
        result = dataclasses.replace(result, state_labels=tuple(map(tuple, labels)))
    cells = [(x, y) for y in range(result.height) for x in range(result.width)]
    out.append({"same": same, "ids": [qt.locate(result, x, y).id for x, y in cells],
                "visits": [qt.locate_with_visits(result, x, y)[1] for x, y in cells]})
    results.append(result)
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("quadlimit"))
rasters = [qt.paint_cells(r).tolist() for r in results]
print(json.dumps({"queries": out, "loaded": loaded, "rasters": rasters,
                  "numpy_after": "numpy" in sys.modules}))
"""

# Two L-shaped states whose bounding boxes overlap, so a state's rects cover
# cells of the other.
L_COUNTS = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
L_LABELS = [["A", "A", "B", "B"], ["A", "B", "B", "B"], ["A", "A", "A", "B"], ["A", "A", "A", "A"]]


def test_public_names_are_unchanged():
    assert sorted(quadlimit.__all__) == PUBLIC_NAMES


def test_each_name_is_its_home_modules_object_and_stays_bound():
    done = fresh_python(FIRST_USE)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["before"] == []
    assert sorted(got["homes"]) == PUBLIC_NAMES
    for name, (home, same, bound) in got["homes"].items():
        assert home.startswith("quadlimit.") and same and bound, name
    assert got["star"] == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadlimit.no_such_name  # noqa: B018
    assert not hasattr(quadlimit, "no_such_name")


def test_rect_is_one_class():
    from quadlimit import popgrid, quadtree
    assert quadlimit.Rect is popgrid.Rect is quadtree.Rect


def test_result_layer_runs_without_numpy():
    plain = delimit(load_scenario(scenario_text([[1] * 8 for _ in range(4)], 1, 3)))
    labelled = delimit(load_scenario(scenario_text(L_COUNTS, 1, 12, labels=L_LABELS)))
    docs = [(result_to_json(plain), None), (result_to_json(labelled), None),
            (result_to_json(labelled), L_LABELS)]

    done = fresh_python(RESULT_LAYER, stdin=json.dumps(docs))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)

    assert got["loaded"] == ["quadlimit", "quadlimit.quadtree"]
    assert got["numpy_after"]
    for (text, labels), queries, raster in zip(docs, got["queries"], got["rasters"]):
        result = result_from_json(text)
        if labels is not None:
            result = dataclasses.replace(result, state_labels=tuple(map(tuple, labels)))
        cells = [(x, y) for y in range(result.height) for x in range(result.width)]
        assert queries == {"same": True, "ids": [locate(result, x, y).id for x, y in cells],
                           "visits": [locate_with_visits(result, x, y)[1] for x, y in cells]}
        assert raster == paint_cells(result).tolist()
    # With its labels, the labelled result paints each cell with its own state's constituency.
    assert got["rasters"][2] == paint_cells(labelled).tolist()
