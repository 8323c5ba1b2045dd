"""The result document's writer and loader against their reference forms.

``result_to_json`` writes the fixed layout from templates; it must give the
bytes of ``json.dumps(result_to_dict(r), indent=2)``. ``result_from_json``
tests each rule inline in one pass; on documents with one or two faults it
must give the result, or the ``ResultFormatError`` message, of
``result_from_json_reference``, a chain of ``_require`` checks.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlimit import Constituency, DelimitationResult, Rect, ResultFormatError, TreeStats, \
    delimit, load_scenario, result_from_json, result_to_json
from quadlimit.quadtree import _FLAG_SETS, OVER_CAPACITY, ZERO_POPULATION

from helpers import scenario_text
from oracles import result_from_json_reference, result_to_dict

BIG = 2**70
# Non-ASCII, quotes, backslashes and control characters, plus anything else.
LABELS = st.one_of(st.sampled_from(["é", '"', "\\", "\x01", "☃", "A\0", "", "S07"]),
                   st.text(max_size=6))


@st.composite
def results(draw) -> DelimitationResult:
    """Results built directly: any of the four flag sets, multi-rect shapes,
    ints past 64 bits and awkward state labels (on every constituency or none)."""
    size = st.integers(1, BIG)
    rects = st.builds(Rect, st.integers(0, BIG), st.integers(0, BIG), size, size)
    labelled = draw(st.booleans())
    constituencies = [
        Constituency(cid, tuple(draw(st.lists(rects, min_size=1, max_size=4))),
                     draw(st.integers(0, BIG)), draw(st.sampled_from(list(_FLAG_SETS.values()))),
                     draw(LABELS) if labelled else None)
        for cid in range(1, draw(st.integers(1, 5)) + 1)]
    return DelimitationResult(constituencies, draw(size), draw(size), draw(size), draw(size),
                              TreeStats(*draw(st.tuples(*[st.integers(0, BIG)] * 3))))


@settings(max_examples=300, deadline=None)
@given(results())
def test_writer_matches_json_dumps(result):
    assert result_to_json(result) == json.dumps(result_to_dict(result), indent=2) + "\n"


# --- loader ------------------------------------------------------------------

NOT_INTS = [True, False, 1.5, 2.0, "7", None, [1], {}]
NOT_OBJECTS = [[], "x", 7, None]
NOT_QUADS = ["abcd", {"a": 1, "b": 2, "c": 3, "d": 4}, 5]
FLAG_LISTS = [["bogus"], [OVER_CAPACITY, OVER_CAPACITY], [ZERO_POPULATION, OVER_CAPACITY],
              [OVER_CAPACITY, ZERO_POPULATION], [ZERO_POPULATION] * 3, [[OVER_CAPACITY]],
              [OVER_CAPACITY, "bogus"], "", {OVER_CAPACITY: 1}, None]


def _mutate(doc: dict, draw) -> None:
    """Apply one fault to the document in place, where its structure allows."""
    entries = doc.get("constituencies")
    listed = isinstance(entries, list) and entries
    entry = draw(st.sampled_from(entries)) if listed else None
    if not isinstance(entry, dict):
        entry = None
    kinds = ["drop", "not_int"] + (["entry"] if listed else []) \
        + (["quad", "rects", "flags", "state"] if entry is not None else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("drop", "not_int"):
        holders = [doc] + ([entry] if entry is not None else [])
        if isinstance(doc.get("stats"), dict):
            holders.append(doc["stats"])
        holder = draw(st.sampled_from(holders))
        if not holder:
            return
        key = draw(st.sampled_from(sorted(holder)))
        if kind == "drop":
            del holder[key]
        else:
            holder[key] = draw(st.sampled_from(NOT_INTS))
    elif kind == "entry":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "quad":
        quads = entry.get("rects")
        at = draw(st.integers(0, len(quads) - 1)) if isinstance(quads, list) and quads else None
        if at is None or not isinstance(quads[at], list):
            return
        quad = quads[at]
        how = draw(st.sampled_from(["short", "long", "size", "origin", "not_int", "not_list"]))
        if how == "not_list":
            quads[at] = draw(st.sampled_from(NOT_QUADS))
        elif how == "short":
            quad.pop()
        elif how == "long":
            quad.append(draw(st.integers(-1, 3)))
        elif len(quad) == 4 and how == "size":
            quad[draw(st.integers(2, 3))] = draw(st.integers(-3, 0))
        elif len(quad) == 4 and how == "origin":
            quad[draw(st.integers(0, 1))] = draw(st.integers(-3, -1))
        elif quad:
            quad[draw(st.integers(0, len(quad) - 1))] = draw(st.sampled_from(NOT_INTS))
    elif kind == "rects":
        entry["rects"] = draw(st.sampled_from([[], [[0, 0, 1, 1], 5], {}, "x"]))
    elif kind == "flags":
        entry["flags"] = draw(st.sampled_from(FLAG_LISTS))
    elif "state" in entry:
        del entry["state"]
    else:
        entry["state"] = draw(st.sampled_from(["A", 7, None]))


def _outcome(load, text: str):
    try:
        return "ok", load(text)
    except ResultFormatError as exc:
        return "error", str(exc)


@settings(max_examples=600, deadline=None)
@given(results(), st.data())
def test_loader_matches_reference_on_faulty_documents(result, data):
    doc = json.loads(result_to_json(result))
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate(doc, data.draw)
    text = json.dumps(doc)
    got, want = _outcome(result_from_json, text), _outcome(result_from_json_reference, text)
    assert got == want
    if got[0] == "ok":
        assert all(type(r) is Rect for c in got[1].constituencies for r in c.shape)


def test_first_broken_rule_gives_the_message():
    """An entry that breaks a rule and every later one gets the first rule's
    message, as the reference gives it."""
    faults = [("id", 2, "sequential"), ("rects", {}, "'rects' must be a list"),
              ("population", -1, "population"), ("flags", ["bogus"], "flags"),
              ("state", 7, "state")]
    for k, (_, _, message) in enumerate(faults):
        entry = {"id": 1, "population": 0, "flags": [], "rects": [[0, 0, 1, 1]]}
        entry.update((key, value) for key, value, _ in faults[k:])
        text = json.dumps({"count": 1, "threshold": 1, "peoplePerDot": 1, "constituencies": [entry],
                           "stats": {"nodes": 1, "leaves": 1, "maxDepth": 0}})
        got = _outcome(result_from_json, text)
        assert got[0] == "error" and message in got[1]
        assert got == _outcome(result_from_json_reference, text)


def test_loaded_rects_are_rects_and_index_as_in_memory():
    rng = np.random.default_rng(5)
    counts = np.floor(rng.lognormal(0.0, 2.0, (64, 64))).astype(np.int64).tolist()
    result = delimit(load_scenario(scenario_text(counts, 1, 400)))
    assert result.count > 100 and any(len(c.shape) > 1 for c in result.constituencies)
    loaded = result_from_json(result_to_json(result))
    assert all(type(r) is Rect for c in loaded.constituencies for r in c.shape)
    assert loaded._rect_index == result._rect_index
