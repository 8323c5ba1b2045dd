"""Command-line interface.

Exit codes: 0 success, 2 bad arguments, 3 malformed or infeasible input data
(scenario parse errors, bad result files including too deeply nested JSON and
results that ``check_result`` refuses, out-of-bounds points, infeasible
apportionments, SVG maps of more dots than ``render.MAX_SVG_DOTS`` or with a
state label that XML 1.0 cannot hold), 4 I/O failures. Diagnostics go to
stderr, results to stdout.

``locate`` and ``apportion`` read no raster, so they run without numpy: the
commands that read a scenario import ``popgrid`` and ``render`` when they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING

from .apportion import METHODS, StateRecord, compare_methods, \
    parse_populations, parse_populations_file
from .quadtree import check_result, delimit, locate, result_from_json, result_to_json

if TYPE_CHECKING:
    from .popgrid import Scenario


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _point(text: str) -> tuple[int, int]:
    try:
        xs, ys = text.split(",")
        return int(xs), int(ys)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected X,Y, got {text!r}") from None


def _load_scenario(args) -> Scenario:
    from .popgrid import load_scenario_file

    scenario = load_scenario_file(args.scenario)
    overrides = {k: v for k, v in [("threshold", args.threshold), ("people_per_dot", args.param)]
                 if v is not None}
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _resolve_populations(spec: str) -> list[StateRecord]:
    # Inline specs always carry '='; anything else is a file path.
    if "=" in spec:
        return parse_populations(spec)
    return parse_populations_file(_read(spec))


def cmd_delimit(args) -> int:
    from .render import render_svg

    scenario = _load_scenario(args)
    result = delimit(scenario)
    # The SVG is built first: if it is refused, neither file is written.
    svg = args.svg and render_svg(result, scenario.grid)
    if args.out:
        _write(args.out, result_to_json(result))
    if args.svg:
        try:
            _write(args.svg, svg)
        except OSError:
            # Nor is the result left behind when the map cannot be written.
            if args.out:
                os.remove(args.out)
            raise
    print(f"constituencies: {result.count}")
    return 0


def cmd_apportion(args) -> int:
    states = _resolve_populations(args.pops)
    result = METHODS[args.method](states, args.seats)
    for s in states:
        print(f"{s.label} {result.seats[s.label]}")
    return 0


def cmd_locate(args) -> int:
    result = result_from_json(_read(args.result))
    check_result(result)
    cx, cy = args.point
    found = locate(result, cx, cy)
    print(f"c{found.id} {found.population}")
    return 0


def cmd_render(args) -> int:
    from .render import render_svg

    scenario = _load_scenario(args)
    result = dataclasses.replace(result_from_json(_read(args.result)),
                                 state_labels=scenario.state_labels)
    check_result(result, scenario)
    _write(args.out, render_svg(result, scenario.grid))
    return 0


def cmd_compare(args) -> int:
    scenario = _load_scenario(args)
    if scenario.state_labels is None:
        raise ValueError("compare requires a scenario with a STATES section")
    result = delimit(scenario)
    states = [StateRecord(label, scenario.state_population(label))
              for label in scenario.states]
    table = compare_methods(states, args.seats)
    per_state = result.per_state
    print("state population " + " ".join(METHODS) + " quadtree")
    for s in states:
        classical = " ".join(str(table[m].seats[s.label]) for m in METHODS)
        quad = len(per_state[s.label])
        print(f"{s.label} {s.population} {classical} {quad}")
    return 0


def cmd_stats(args) -> int:
    scenario = _load_scenario(args)
    result = delimit(scenario)
    print(f"nodes: {result.stats.nodes}")
    print(f"leaves: {result.stats.leaves}")
    print(f"maxDepth: {result.stats.max_depth}")
    print(f"constituencies: {result.count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlimit",
        description="Delimit electoral constituencies on a population grid "
                    "and compare against classical apportionment methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p):
        p.add_argument("scenario", help="scenario file path")
        p.add_argument("--threshold", type=_positive_int,
                       help="override the scenario population threshold")
        p.add_argument("--param", type=_positive_int,
                       help="override the scenario people-per-dot value")

    p = sub.add_parser("delimit", help="partition a scenario into constituencies")
    scenario_flags(p)
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--svg", help="also render the map to this SVG file")
    p.set_defaults(func=cmd_delimit)

    p = sub.add_parser("apportion", help="apportion seats among states")
    p.add_argument("--method", required=True, choices=sorted(METHODS))
    p.add_argument("--seats", required=True, type=_positive_int)
    p.add_argument("--pops", required=True,
                   help="inline A=2560,B=3315,... or a label/population file")
    p.set_defaults(func=cmd_apportion)

    p = sub.add_parser("locate", help="find the constituency containing a cell")
    p.add_argument("--result", required=True, help="result JSON from delimit")
    p.add_argument("--point", required=True, type=_point, metavar="X,Y")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("render", help="render a result JSON to SVG")
    scenario_flags(p)
    p.add_argument("--result", required=True, help="result JSON from delimit")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="classical methods vs per-state "
                                       "constituency counts")
    scenario_flags(p)
    p.add_argument("--seats", required=True, type=_positive_int,
                   help="house size for the classical methods")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="tree statistics for a scenario")
    scenario_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
