"""Show that the output checks reject corrupted results.

    python3 perfbench/selftest.py

For a small version of each workload it runs one pipeline round, confirms
the checks pass on the true outputs, then corrupts them one way at a time
and confirms the checks report a problem:

- one constituency's population changed (in memory, in the JSON and in the
  reloaded result alike, so only the raster sum can tell);
- one rect dropped from a constituency, again everywhere alike;
- one in-memory locate answer swapped with another;
- one loaded locate answer swapped for another constituency of the same
  state, which the known bounding-box fault cannot explain.

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from run import OUT, Recorder, check_round, ql, pipeline_round
from workloads import WORKLOADS, query_points, scenario_text

SIZE = 128
SEED = 7


def rebuild(out, constituencies):
    """The same round's outputs with a changed constituency list."""
    result = dataclasses.replace(out.result, constituencies=constituencies)
    text = ql.result_to_json(result)
    return dataclasses.replace(out, result=result, text=text,
                               loaded=ql.result_from_json(text))


def corruptions(out):
    cons = list(out.result.constituencies)
    victim = next(c for c in cons if c.population > 0)
    pop = list(cons)
    pop[victim.id - 1] = dataclasses.replace(victim, population=victim.population + 1)
    yield "population changed", rebuild(out, pop)

    multi = next(c for c in cons if len(c.shape) > 1)
    dropped = list(cons)
    dropped[multi.id - 1] = dataclasses.replace(multi, shape=multi.shape[1:])
    yield "rect dropped", rebuild(out, dropped)

    answers = list(out.mem_answers)
    j = next(j for j in range(1, len(answers)) if answers[j] != answers[0])
    answers[0], answers[j] = answers[j], answers[0]
    yield "locate answer swapped", dataclasses.replace(out, mem_answers=answers)

    loaded = list(out.loaded_answers)
    first = out.result.by_id(loaded[0])
    other = next(c.id for c in cons if c.state == first.state and c.id != first.id)
    loaded[0] = other
    yield "loaded locate answer swapped", dataclasses.replace(out, loaded_answers=loaded)


def main() -> int:
    ok = True
    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for wl in WORKLOADS.values():
            small = dataclasses.replace(wl, size=SIZE, mem_queries=200, loaded_queries=200)
            path = work / f"{wl.name}.txt"
            path.write_text(scenario_text(small, SEED))
            points = query_points(small, 200)
            out, _, _ = pipeline_round(small, path, points, points, Recorder(trace=False))

            def check(outputs):
                return check_round(small, SEED, outputs, points, points)[0]

            base = check(out)
            print(f"{wl.name} at {SIZE}x{SIZE}: {out.result.count} constituencies, "
                  f"true outputs {'pass' if not base else 'FAIL: ' + base[0]}")
            ok &= not base
            for name, bad in corruptions(out):
                problems = check(bad)
                print(f"  {name:<30} {'rejected: ' + problems[0] if problems else 'NOT REJECTED'}")
                ok &= bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
