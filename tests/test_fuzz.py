"""Fuzzing of every outside input: scenario files, result documents and
population specs, as valid documents with tokens replaced, dropped or
duplicated.

The parsers may raise only their documented error type, and the CLI may
only return 0, 3 or 4, or stop in argparse with exit status 2. Every SVG the
CLI writes with exit status 0 parses as XML.
"""

import re
import tempfile
from pathlib import Path
from xml.dom import minidom

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import ApportionmentError, ResultFormatError, ScenarioError, cli, delimit, \
    load_scenario, result_from_json, result_to_json
from quadlimit.apportion import parse_populations, parse_populations_file

from helpers import DEEP_JSON

SCENARIO = """# 4x3 map in two states
4 3 10 40
1 0 3 2
0 5 1 1
2 2 0 7
STATES
A A B B
A B B B
A A A B
"""
UNLABELLED = "3 2 1 4\n1 0 3\n2 2 1\n"
RESULT = result_to_json(delimit(load_scenario(SCENARIO)))
POPS_INLINE = "A=2560,B=3315,C=995,D=5012"
POPS_FILE = "# label population\nA 2560\nB 3315\nC 995\n"

# Whitespace runs, JSON punctuation, '=', quoted strings and other words,
# so that joining the tokens gives the document back.
TOKEN = re.compile(r'\s+|[{}\[\],:=]|"(?:[^"\\]|\\.)*"|[^\s{}\[\],:="]+|"')
PUNCTUATION = tuple("{}[],:=")
VALUES = ["0", "1", "-1", "2", "7", "1.5", "1e400", "NaN", str(2**63 - 1), str(2**63),
          str(2**64), "true", "null", '"x"', '"A"', '"overCapacity"', "[]", "{}",
          "[0, 0, 1, 1]", "\0", "٣", "+5", "1_000", "STATES", "A"]
OTHERS = list(PUNCTUATION) + ["#", "-", '"', "\n", " "]


@st.composite
def mutated(draw, text, ops=("value", "replace", "drop", "duplicate")):
    """``text`` with one to four tokens replaced, dropped or duplicated. A
    value (a number, string or word, but no JSON key) may be replaced by
    another value, and any token by anything; the whitespace between tokens
    stays, but a token may become a space or a line break."""
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == text
    for _ in range(draw(st.integers(1, 4))):
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        # A JSON key is followed by ':'; it is no value.
        values = [i for k, i in enumerate(words) if tokens[i] not in PUNCTUATION
                  and (k + 1 == len(words) or tokens[words[k + 1]] != ":")]
        op = draw(st.sampled_from(ops))
        if not (values if op == "value" else words):
            break
        i = draw(st.sampled_from(values if op == "value" else words))
        if op == "value":
            tokens[i] = draw(st.sampled_from(VALUES + [tokens[j] for j in values]))
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(VALUES + OTHERS))
        elif op == "drop":
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    return "".join(tokens)


def scenario_docs():
    return st.one_of(mutated(SCENARIO), mutated(UNLABELLED))


def result_docs():
    # Value edits alone mostly keep the JSON well formed.
    return st.one_of(mutated(RESULT), mutated(RESULT, ops=["value"]))


def pops_docs():
    return st.one_of(mutated(POPS_INLINE), mutated(POPS_FILE))


def raises_only(error, parse, text):
    try:
        parse(text)
    except error:
        pass


@settings(max_examples=150, deadline=None)
@given(scenario_docs())
def test_load_scenario_raises_only_scenario_error(text):
    raises_only(ScenarioError, load_scenario, text)


@settings(max_examples=150, deadline=None)
@given(result_docs())
@example(DEEP_JSON)
def test_result_from_json_raises_only_result_format_error(text):
    raises_only(ResultFormatError, result_from_json, text)


@settings(max_examples=150, deadline=None)
@given(pops_docs())
def test_population_parsers_raise_only_apportionment_error(text):
    raises_only(ApportionmentError, parse_populations, text)
    raises_only(ApportionmentError, parse_populations_file, text)


def run_cli(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return exc.code
    assert code in (0, 3, 4), argv
    return code


def write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@settings(max_examples=60, deadline=None)
@given(scenario_docs())
@example(SCENARIO.replace("A A B B", "\0 \0 B B"))
def test_cli_on_mutated_scenarios(text):
    with tempfile.TemporaryDirectory() as d:
        scen, good = write(d, "s.txt", text), write(d, "good.json", RESULT)
        if run_cli(["delimit", scen, "--out", f"{d}/r.json", "--svg", f"{d}/m.svg"]) == 0:
            minidom.parse(f"{d}/m.svg")
        run_cli(["stats", scen])
        run_cli(["compare", scen, "--seats", "4"])
        if run_cli(["render", scen, "--result", good, "--out", f"{d}/m.svg"]) == 0:
            minidom.parse(f"{d}/m.svg")


@settings(max_examples=60, deadline=None)
@given(result_docs())
@example(DEEP_JSON)
def test_cli_on_mutated_results(text):
    with tempfile.TemporaryDirectory() as d:
        result, scen = write(d, "r.json", text), write(d, "s.txt", SCENARIO)
        run_cli(["locate", "--result", result, "--point", "1,1"])
        run_cli(["render", scen, "--result", result, "--out", f"{d}/m.svg"])


@settings(max_examples=60, deadline=None)
@given(pops_docs(), st.sampled_from(sorted(cli.METHODS)))
def test_cli_on_mutated_populations(text, method):
    with tempfile.TemporaryDirectory() as d:
        run_cli(["apportion", "--method", method, "--seats", "5",
                 "--pops", write(d, "pops.txt", text)])
        if "=" in text:
            run_cli(["apportion", "--method", method, "--seats", "5", "--pops", text])
