"""Benchmark of quadlimit's pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload states-512 --seed 1 --seconds 55 --trace 0

Run from the repository root. One run generates the workload's scenario file
from the seed (in a child process, so the generator's memory is not counted),
then repeats whole rounds of the pipeline a user drives through the CLI for
``--seconds`` seconds:

    setup (load_scenario_file) -> delimit -> pass -> render_svg -> pass
    -> compare -> pass

where a pass is result_to_json, result_from_json, locate on the in-memory
result and locate on the loaded result. Each end-to-end metric is the median
over all calls in the run. After the rounds it checks the last round's
outputs against the generated raster (checks.py), checks that every round
and pass produced identical outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` the same rounds run with spans recorded (name, start, end,
parent), plus calls that isolate each layer: delimit's public steps replayed
(masked -> build_tree -> merge_siblings -> tree_stats), renders without the
state or dot layer, and each apportionment method alone. The line then
carries the per-layer metrics, and the spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
try:
    import quadlimit as ql
    from quadlimit.render import constituency_cells
except ImportError as exc:
    sys.exit(f"error: cannot import quadlimit from {SRC}: {exc}")
if Path(ql.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"error: quadlimit was imported from {ql.__file__}, not from {SRC}")

from checks import Outputs, Truth, check_outputs  # noqa: E402
from workloads import WORKLOADS, make_counts, query_points, state_index, state_names  # noqa: E402

MIN_ROUNDS = 3
# The quick operations (save, load and both locates) run in three passes per
# round: before render, between render and compare, and after compare. Each
# is then sampled several times per round, spread over the round, because
# machine speed on a shared host changes from second to second.
PASSES = 3
SLOW_OPS = 4  # setup, delimit, render, compare

END_TO_END_UNITS = {
    "setup_s": "s", "delimit_s": "s", "save_s": "s", "load_s": "s",
    "locate_qps": "queries/s", "compare_s": "s", "peak_mem_mb": "MB",
}
# Per-layer metrics not in seconds; the rest of the non-times are counts.
PER_LAYER_UNITS = {
    "popgrid.sat_bytes": "bytes", "quadtree.json_bytes": "bytes",
    "render.svg_bytes": "bytes", "quadtree.delimit_peak_alloc_mb": "MB",
    "quadtree.locate_visits_mean": "nodes",
    "quadtree.loaded_scan_len_mean": "constituencies",
    "quadtree.locate_loaded_qps": "queries/s",
}


class Recorder:
    """Seconds per span name and round, seconds per call of each top-level
    operation, and with tracing on every span as
    [name, start_ns, end_ns, parent index]."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.round = 0
        self.times: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = None
        if self.trace:
            index = len(self.spans)
            self.spans.append([name, 0, 0, self._open[-1] if self._open else -1])
            self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            per_round = self.times.setdefault(name, [])
            per_round.extend([0.0] * (self.round + 1 - len(per_round)))
            per_round[self.round] += (end - start) / 1e9
            if index is not None:
                self.spans[index][1:3] = [start, end]
                self._open.pop()

    def op(self, name: str, call):
        """Run a top-level operation and return its value. Garbage is
        collected first, so every call starts from the same collector state."""
        gc.collect()
        start = time.perf_counter()
        with self.span(name):
            value = call()
        self.samples.setdefault(name, []).append(time.perf_counter() - start)
        return value


def state_records(scenario) -> list:
    if scenario.state_labels is None:
        # No states: the whole map is one state, the degenerate comparison.
        return [ql.StateRecord("all", scenario.total_population())]
    return [ql.StateRecord(label, scenario.state_population(label))
            for label in scenario.states]


def compare(scenario, house: int, rec: Recorder):
    """The `quadlimit compare` path after delimit."""
    with rec.span("popgrid.state_population"):
        records = state_records(scenario)
    with rec.span("apportion.compare_methods"):
        return records, ql.compare_methods(records, house)


def quick_pass(result, mem_points, loaded_points, rec: Recorder):
    """save, load, and locate on both the in-memory and the loaded result."""
    text = rec.op("save", lambda: ql.result_to_json(result))
    loaded = rec.op("load", lambda: ql.result_from_json(text))
    mem_answers = rec.op("locate", lambda: [ql.locate(result, x, y).id for x, y in mem_points])
    loaded_answers = rec.op("locate_loaded",
                            lambda: [ql.locate(loaded, x, y).id for x, y in loaded_points])
    return text, loaded, mem_answers, loaded_answers


def pipeline_round(wl, scenario_path: Path, mem_points, loaded_points,
                   rec: Recorder) -> tuple[Outputs, object, bool]:
    """One round; returns its outputs, the scenario, and whether the three
    quick passes gave the same JSON and locate answers."""
    style = ql.RenderStyle(draw_dots=wl.draw_dots)
    scenario = rec.op("setup", lambda: ql.load_scenario_file(str(scenario_path)))
    result = rec.op("delimit", lambda: ql.delimit(scenario))

    def pass_fingerprint():
        text, _, mem_answers, loaded_answers = quick_pass(result, mem_points, loaded_points, rec)
        return fingerprint(text, mem_answers, loaded_answers)

    first = pass_fingerprint()
    svg = rec.op("render", lambda: ql.render_svg(result, scenario.grid, style))
    second = pass_fingerprint()
    records, table = rec.op("compare", lambda: compare(scenario, result.count, rec))
    text, loaded, mem_answers, loaded_answers = quick_pass(result, mem_points,
                                                           loaded_points, rec)
    passes_agree = first == second == fingerprint(text, mem_answers, loaded_answers)
    out = Outputs(result=result, text=text, loaded=loaded, mem_answers=mem_answers,
                  loaded_answers=loaded_answers, svg=svg,
                  state_pops=[(r.label, r.population) for r in records],
                  seats={m: dict(t.seats) for m, t in table.items()},
                  house=result.count)
    return out, scenario, passes_agree


def fingerprint(*parts) -> str:
    """Hash of strings and reprs; compares outputs without keeping them."""
    h = hashlib.sha256()
    for part in parts:
        h.update((part if isinstance(part, str) else repr(part)).encode())
    return h.hexdigest()


# --- per-layer calls, traced runs only ----------------------------------------

def replay_delimit(scenario, rec: Recorder) -> dict:
    """delimit's public steps, each in its own span; returns their counts."""
    grid, x, th = scenario.grid, scenario.people_per_dot, scenario.threshold

    def masked():
        if scenario.state_labels is None:
            return [None], [grid]
        labels = scenario.label_array()
        masks = [labels == s for s in scenario.states]
        return masks, [grid.masked(m) for m in masks]

    masks, grids = rec.op("popgrid.masked", masked)
    roots = []  # each state's bounding box, as delimit roots its tree
    for mask in masks:
        if mask is None:
            roots.append(None)
        else:
            ys, xs = np.nonzero(mask)
            roots.append(ql.Rect(int(xs.min()), int(ys.min()),
                                 int(xs.max() - xs.min()) + 1, int(ys.max() - ys.min()) + 1))
    nodes = leaves = depth = units = 0
    for run_grid, root in zip(grids, roots):
        with rec.span("quadtree.build_tree"):
            tree = ql.build_tree(run_grid, x, th, root_rect=root)
        with rec.span("quadtree.merge_siblings"):
            merged = ql.merge_siblings(tree, th)
        with rec.span("quadtree.tree_stats"):
            stats = ql.tree_stats(tree)
        nodes, leaves = nodes + stats.nodes, leaves + stats.leaves
        depth = max(depth, stats.max_depth)
        units += sum(len(u) for u in merged.values())
    sat_bytes = sum(g.counts.nbytes + g.sat.nbytes for g in grids)
    return {"nodes": nodes, "leaves": leaves, "max_depth": depth,
            "constituencies": units, "sat_bytes": sat_bytes}


def layer_probes(wl, scenario, out: Outputs, rec: Recorder) -> dict:
    rows = scenario.grid.counts.tolist()  # what load_scenario hands to DotGrid
    grid = rec.op("popgrid.dotgrid", lambda: ql.DotGrid(rows))
    del rows
    rec.op("popgrid.scenario", lambda: ql.Scenario(
        grid=grid, people_per_dot=scenario.people_per_dot,
        threshold=scenario.threshold, state_labels=scenario.state_labels))
    replay = replay_delimit(scenario, rec)
    result = out.result
    style = ql.RenderStyle(draw_dots=wl.draw_dots)
    rec.op("render.outlines", lambda: [ql.boundary_loops(constituency_cells(c))
                                       for c in result.constituencies])
    rec.op("render.no_states", lambda: ql.render_svg(
        dataclasses.replace(result, state_labels=None), scenario.grid, style))
    rec.op("render.no_dots", lambda: ql.render_svg(
        result, scenario.grid, dataclasses.replace(style, draw_dots=False)))
    records = [ql.StateRecord(label, pop) for label, pop in out.state_pops]
    replay["divisor_rounds"] = 0
    for name, method in (("hamilton", ql.hamilton), ("jefferson", ql.jefferson),
                         ("webster", ql.webster), ("huntington_hill", ql.huntington_hill)):
        seats = rec.op(f"apportion.{name}", lambda: method(records, out.house))
        replay["divisor_rounds"] += len(seats.priority_trace or ())
    return replay


def per_layer_metrics(rec: Recorder, replay: dict, out: Outputs, mem_points,
                      peak_alloc: int) -> dict:
    t = rec.times
    rounds = range(len(t["delimit"]))
    steps = ("popgrid.masked", "quadtree.build_tree", "quadtree.merge_siblings",
             "quadtree.tree_stats")
    result = out.result
    visits = [ql.locate_with_visits(result, x, y)[1] for x, y in mem_points]
    return {
        "popgrid.dotgrid_s": median(t["popgrid.dotgrid"]),
        "popgrid.scenario_s": median(t["popgrid.scenario"]),
        "popgrid.masked_s": median(t["popgrid.masked"]),
        "popgrid.sat_bytes": replay["sat_bytes"],
        "popgrid.state_population_s": median(t["popgrid.state_population"]),
        "quadtree.build_tree_s": median(t["quadtree.build_tree"]),
        "quadtree.merge_siblings_s": median(t["quadtree.merge_siblings"]),
        "quadtree.tree_stats_s": median(t["quadtree.tree_stats"]),
        "quadtree.assembly_s": median(t["delimit"][r] - sum(t[s][r] for s in steps)
                                      for r in rounds),
        "quadtree.delimit_peak_alloc_mb": peak_alloc / 2**20,
        "quadtree.json_bytes": len(out.text.encode()),
        "quadtree.locate_visits_mean": sum(visits) / len(visits),
        # A loaded result is scanned in id order, so the answer's id is the
        # number of constituencies tested.
        "quadtree.loaded_scan_len_mean": sum(out.loaded_answers) / len(out.loaded_answers),
        # locate on the JSON-loaded result, the `quadlimit locate` path. Not an
        # end-to-end metric: across runs on states-512 its median spread past
        # the 25 % bound (README).
        "quadtree.locate_loaded_qps": median(len(out.loaded_answers) / v
                                             for v in rec.samples["locate_loaded"]),
        "quadtree.nodes": result.stats.nodes,
        "quadtree.leaves": result.stats.leaves,
        "quadtree.merges": result.stats.leaves - result.count,
        "quadtree.constituencies": result.count,
        "quadtree.max_depth": result.stats.max_depth,
        # render_svg as a whole. It is not an end-to-end metric: across runs on
        # lognormal-1024 its median spread past the 25 % bound (README).
        "render.svg_s": median(t["render"]),
        "render.outlines_s": median(t["render.outlines"]),
        "render.states_s": median(t["render"][r] - t["render.no_states"][r] for r in rounds),
        "render.dots_s": median(t["render"][r] - t["render.no_dots"][r] for r in rounds),
        "render.svg_bytes": len(out.svg.encode()),
        "apportion.hamilton_s": median(t["apportion.hamilton"]),
        "apportion.jefferson_s": median(t["apportion.jefferson"]),
        "apportion.webster_s": median(t["apportion.webster"]),
        "apportion.huntington_hill_s": median(t["apportion.huntington_hill"]),
        "apportion.rounds": replay["divisor_rounds"],
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS.get(name, "count")


def span_cost_ns() -> float:
    """Cost of recording one empty span, for the tracing overhead."""
    rec = Recorder(trace=True)
    n = 20000
    start = time.perf_counter_ns()
    for _ in range(n):
        with rec.span("probe"):
            pass
    return (time.perf_counter_ns() - start) / n


# --- command line -------------------------------------------------------------

def check_round(wl, seed: int, out: Outputs, mem_points, loaded_points):
    """checks.py on one round's outputs, against the raster regenerated from
    the seed: (problems, named-fault failures)."""
    index = state_index(wl)
    truth = Truth(counts=make_counts(wl, seed), states=index,
                  names=state_names(int(index.max()) + 1) if index is not None else [],
                  people_per_dot=wl.people_per_dot, threshold=wl.threshold)
    return check_outputs(out, truth, mem_points, loaded_points, wl.draw_dots,
                         ql.RenderStyle().cell_size_px, connected=not wl.labelled)


def end_to_end_metrics(rec: Recorder, n_mem: int, peak_kb: int) -> dict:
    t = rec.samples
    return {
        "setup_s": median(t["setup"]),
        "delimit_s": median(t["delimit"]),
        "save_s": median(t["save"]),
        "load_s": median(t["load"]),
        "locate_qps": median(n_mem / v for v in t["locate"]),
        "compare_s": median(t["compare"]),
        "peak_mem_mb": peak_kb / 1024,
    }


def summary_lines(samples: dict[str, list[float]]) -> list[str]:
    lines = []
    for name, vals in samples.items():
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        lines.append(f"  {name:<28} median {q[1]:10.5f} s   quartiles {q[0]:.5f} .. "
                     f"{q[2]:.5f}   n={len(vals)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        scenario_path = work / "scenario.txt"
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), wl.name,
                        str(args.seed), str(scenario_path)], check=True, timeout=120)
        points = query_points(wl, max(wl.mem_queries, wl.loaded_queries))
        mem_points, loaded_points = points[:wl.mem_queries], points[:wl.loaded_queries]

        rec = Recorder(trace)
        problems: list[str] = []
        first_digest = None
        last = scenario = replay = None
        start = time.perf_counter()
        # Whole rounds only; start another while it is expected to end in time.
        while rec.round < MIN_ROUNDS or \
                (time.perf_counter() - start) * (rec.round + 1) / rec.round <= args.seconds:
            last = scenario = None  # free the previous round before the next
            last, scenario, passes_agree = pipeline_round(wl, scenario_path, mem_points,
                                                          loaded_points, rec)
            if not passes_agree:
                problems.append(f"round {rec.round}: the quick passes gave different outputs")
            if trace:
                replay = layer_probes(wl, scenario, last, rec)
                if (replay["nodes"], replay["leaves"], replay["max_depth"],
                        replay["constituencies"]) != (
                        last.result.stats.nodes, last.result.stats.leaves,
                        last.result.stats.max_depth, last.result.count):
                    problems.append("replayed delimit steps disagree with delimit")
            d = fingerprint(last.text, last.svg, last.mem_answers, last.loaded_answers,
                            last.state_pops, sorted(last.seats.items()))
            if first_digest is None:
                first_digest = d
            elif d != first_digest:
                problems.append(f"round {rec.round} produced different outputs")
            rec.round += 1
        elapsed = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds = rec.round

        check_problems, failed_per_round = check_round(wl, args.seed, last, mem_points,
                                                       loaded_points)
        problems += check_problems

        ops_per_round = SLOW_OPS + PASSES * (2 + len(mem_points) + len(loaded_points))
        failed_per_round *= PASSES
        if trace:
            tracemalloc.start()
            ql.delimit(scenario)
            peak_alloc = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            values = per_layer_metrics(rec, replay, last, mem_points, peak_alloc)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            values = end_to_end_metrics(rec, len(mem_points), peak_kb)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

        line = {"correct": not problems, "attempted": rounds * ops_per_round,
                "failed": rounds * failed_per_round, "metrics": metrics}
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "nproc": os.cpu_count(), "machine": platform.machine()}
        detail = {"workload": wl.name, "seed": args.seed, "trace": trace, "rounds": rounds,
                  "elapsed_s": elapsed, "env": env, "problems": problems,
                  "failed_per_round": failed_per_round, "ops_per_round": ops_per_round,
                  "samples": rec.samples, "times": rec.times, "result": line}
        stem = f"{wl.name}-seed{args.seed}"
        if trace:
            detail["span_cost_ns"] = span_cost_ns()
            detail["spans"] = rec.spans
            (OUT / f"trace-{stem}.json").write_text(json.dumps(detail) + "\n")
        (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
            json.dumps({k: v for k, v in detail.items() if k != "spans"}) + "\n")

        print(f"{wl.name} seed {args.seed}: {rounds} rounds in {elapsed:.1f} s, "
              f"python {env['python']}, numpy {env['numpy']}, {env['nproc']} cpus")
        print(f"  operations per round: {ops_per_round} ({SLOW_OPS} slow, and {PASSES} passes "
              f"of save, load, {len(mem_points)} locate and {len(loaded_points)} loaded "
              f"locate queries); attempted {line['attempted']}, failed {line['failed']}")
        print(*summary_lines(rec.samples), sep="\n")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
        for problem in problems[:20]:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
