"""Quadtree-based constituency delimitation with apportionment baselines.

Each public name is listed once, under its home module, and that module is
imported the first time the name is used (PEP 562), so ``locate`` and the
apportionment methods load without numpy. A loaded name is kept in the
package's namespace, and later lookups do not come back here.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "apportion": (
        "ApportionmentError", "ApportionmentResult", "StateRecord", "compare_methods",
        "hamilton", "huntington_hill", "jefferson", "webster",
    ),
    "popgrid": (
        "DotGrid", "Scenario", "ScenarioError", "build_sat", "load_scenario",
        "load_scenario_file",
    ),
    "quadtree": (
        "Constituency", "DelimitationResult", "Leaf", "QuadTree", "Rect", "ResultFormatError",
        "TreeStats", "build_tree", "check_result", "delimit", "locate", "locate_with_visits",
        "merge_siblings", "paint_cells", "result_from_json", "result_to_json", "subdivide",
        "tree_stats",
    ),
    "render": ("RenderStyle", "boundary_loops", "render_ascii_grid", "render_svg"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # An unknown name raises, so hasattr holds and ``from quadlimit import cli``
    # falls through to the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
