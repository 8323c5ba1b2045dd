import hashlib
import json

import pytest

from quadlimit import cli, load_scenario, render_svg, result_to_json, delimit
from quadlimit.render import RenderStyle

from helpers import DEEP_JSON, FLAGS_AND_STATS_BROKEN, REPRO_MAP, THREE_BY_ONE, fresh_python, \
    scenario_text

# cli.main in a new interpreter; the last line of stderr lists the raster
# modules that the command loaded.
FRESH_MAIN = """
import sys
from quadlimit import cli
code = cli.main(sys.argv[1:])
print(sorted({"numpy", "quadlimit.popgrid"} & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


@pytest.fixture
def grid16(tmp_path):
    path = tmp_path / "grid16.txt"
    path.write_text(scenario_text([[1] * 16 for _ in range(16)], 100, 1600))
    return str(path)


@pytest.fixture
def four_states(tmp_path):
    text = scenario_text([[2560, 3315, 995, 5012]], 1, 6000,
                         labels=[["A", "B", "C", "D"]])
    path = tmp_path / "states.txt"
    path.write_text(text)
    return str(path)


def run(args):
    return cli.main(args)


class TestDelimitCommand:
    def test_prints_count_and_writes_outputs(self, grid16, tmp_path, capsys):
        out = tmp_path / "result.json"
        svg = tmp_path / "map.svg"
        assert run(["delimit", grid16, "--out", str(out), "--svg", str(svg)]) == 0
        assert capsys.readouterr().out == "constituencies: 16\n"
        doc = json.loads(out.read_text())
        assert doc["count"] == 16
        assert svg.read_text().startswith('<?xml')

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run(["delimit", str(tmp_path / "nope.txt")]) == 4
        assert "error:" in capsys.readouterr().err

    def test_zero_threshold_is_usage_error(self, grid16):
        with pytest.raises(SystemExit) as exc:
            run(["delimit", grid16, "--threshold", "0"])
        assert exc.value.code == 2

    def test_parse_error_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 500 1000\n1 1\n1\n")
        assert run(["delimit", str(bad)]) == 3
        assert "dimension mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("1 1 1 5\n99999999999999999999\n", "cell value exceeds 2**63-1 (line 2, column 1)"),
        ("2 1 1 5\n9223372036854775807 1\n", "total dot count 9223372036854775808 exceeds"),
    ])
    def test_int64_overflow_is_exit_3(self, tmp_path, capsys, text, message):
        bad = tmp_path / "big.txt"
        bad.write_text(text)
        assert run(["delimit", str(bad)]) == 3
        assert message in capsys.readouterr().err

    def test_threshold_override_changes_partition(self, grid16, capsys):
        assert run(["delimit", grid16, "--threshold", "6400"]) == 0
        assert capsys.readouterr().out == "constituencies: 4\n"
        assert run(["delimit", grid16, "--threshold", "25600"]) == 0
        assert capsys.readouterr().out == "constituencies: 1\n"

    def test_param_override(self, grid16, capsys):
        # Quadrupling people-per-dot pushes leaves one level deeper (2x2).
        assert run(["delimit", grid16, "--param", "400"]) == 0
        assert capsys.readouterr().out == "constituencies: 64\n"

    def test_repeat_runs_byte_identical(self, grid16, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["delimit", grid16, "--out", str(a)])
        run(["delimit", grid16, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestApportionCommand:
    POPS = "A=2560,B=3315,C=995,D=5012"

    def test_jefferson_rows(self, capsys):
        assert run(["apportion", "--method", "jefferson", "--seats", "20",
                    "--pops", self.POPS]) == 0
        assert capsys.readouterr().out == "A 4\nB 6\nC 1\nD 9\n"

    def test_webster_rows(self, capsys):
        assert run(["apportion", "--method", "webster", "--seats", "20",
                    "--pops", self.POPS]) == 0
        assert capsys.readouterr().out == "A 4\nB 6\nC 2\nD 8\n"

    def test_infeasible_huntington_hill(self, capsys):
        assert run(["apportion", "--method", "huntington-hill", "--seats", "3",
                    "--pops", self.POPS]) == 3
        assert "at least" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["apportion", "--method", "dean", "--seats", "20",
                 "--pops", self.POPS])
        assert exc.value.code == 2

    def test_non_integer_seats_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["apportion", "--method", "webster", "--seats", "x", "--pops", self.POPS])
        assert exc.value.code == 2
        assert "argument --seats: expected an integer, got 'x'" in capsys.readouterr().err

    def test_pops_from_file(self, tmp_path, capsys):
        pops = tmp_path / "pops.txt"
        pops.write_text("# sample\nA 2560\nB 3315\nC 995\nD 5012\n")
        assert run(["apportion", "--method", "huntington-hill", "--seats", "20",
                    "--pops", str(pops)]) == 0
        assert capsys.readouterr().out == "A 4\nB 6\nC 2\nD 8\n"

    def test_missing_pops_file_is_io_error(self, tmp_path):
        assert run(["apportion", "--method", "webster", "--seats", "10",
                    "--pops", str(tmp_path / "gone.txt")]) == 4

    def test_bad_inline_pops_is_exit_3(self, capsys):
        assert run(["apportion", "--method", "webster", "--seats", "10",
                    "--pops", "A=12,B=x"]) == 3


class TestLocateCommand:
    def test_nw_corner_is_c1(self, grid16, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["delimit", grid16, "--out", str(out)])
        capsys.readouterr()
        assert run(["locate", "--result", str(out), "--point", "0,0"]) == 0
        assert capsys.readouterr().out == "c1 1600\n"

    def test_out_of_bounds_point(self, grid16, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["delimit", grid16, "--out", str(out)])
        capsys.readouterr()
        assert run(["locate", "--result", str(out), "--point", "16,0"]) == 3
        assert "outside grid" in capsys.readouterr().err

    def test_single_constituency_any_point(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text("2 2 500 1000\n1 0\n0 0\n")
        out = tmp_path / "r.json"
        run(["delimit", str(scen), "--out", str(out)])
        capsys.readouterr()
        assert run(["locate", "--result", str(out), "--point", "1,1"]) == 0
        assert capsys.readouterr().out == "c1 500\n"

    def test_malformed_result_file(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("{broken")
        assert run(["locate", "--result", str(bad), "--point", "0,0"]) == 3

    def test_deeply_nested_result_is_exit_3(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        assert run(["locate", "--result", str(deep), "--point", "0,0"]) == 3
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_ill_typed_result_is_exit_3(self, grid16, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["delimit", grid16, "--out", str(out)])
        good = json.loads(out.read_text())
        bad_docs = [dict(good, count=0, constituencies=[])]
        for edit in ({"rects": 5}, {"flags": 5}, {"flags": "abc"}, {"state": ["A"]},
                     {"id": True}, {"state": "A"}):
            doc = json.loads(json.dumps(good))
            doc["constituencies"][0].update(edit)
            bad_docs.append(doc)
        for doc in bad_docs:
            out.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["locate", "--result", str(out), "--point", "0,0"]) == 3
            assert capsys.readouterr().err.startswith("error: ")

    def test_cell_of_no_tree_node_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text(json.dumps(THREE_BY_ONE))
        assert run(["locate", "--result", str(out), "--point", "0,0"]) == 0
        assert capsys.readouterr().out == "c1 1\n"
        assert run(["locate", "--result", str(out), "--point", "1,0"]) == 3
        assert "no constituency contains (1, 0)" in capsys.readouterr().err

    def test_malformed_point_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["locate", "--result", str(tmp_path / "r.json"), "--point", "zero"])
        assert exc.value.code == 2

    def test_locate_agrees_with_library_on_all_cells(self, grid16, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["delimit", grid16, "--out", str(out)])
        scenario = load_scenario(open(grid16).read())
        result = delimit(scenario)
        capsys.readouterr()
        for (cx, cy) in [(0, 0), (15, 15), (7, 8), (12, 3)]:
            run(["locate", "--result", str(out), "--point", f"{cx},{cy}"])
            got = capsys.readouterr().out.split()[0]
            from quadlimit import locate
            assert got == f"c{locate(result, cx, cy).id}"


class TestRenderCommand:
    def test_render_from_result_json_matches_direct_svg(self, grid16, tmp_path):
        out = tmp_path / "r.json"
        svg_direct = tmp_path / "direct.svg"
        run(["delimit", grid16, "--out", str(out), "--svg", str(svg_direct)])
        svg_cli = tmp_path / "from_json.svg"
        assert run(["render", grid16, "--result", str(out),
                    "--out", str(svg_cli)]) == 0
        assert svg_cli.read_bytes() == svg_direct.read_bytes()

    def test_render_library_equivalence(self, grid16, tmp_path):
        scenario = load_scenario(open(grid16).read())
        result = delimit(scenario)
        out = tmp_path / "r.json"
        out.write_text(result_to_json(result))
        svg_cli = tmp_path / "map.svg"
        run(["render", grid16, "--result", str(out), "--out", str(svg_cli)])
        assert svg_cli.read_text() == render_svg(result, scenario.grid, RenderStyle())

    def test_labelled_render_unchanged(self, tmp_path):
        # Non-rectangular state A wraps state B; render must reapply the
        # scenario's labels to the loaded result to draw the state outlines.
        text = scenario_text([[1, 1, 4], [1, 1, 4], [1, 1, 1]], 1, 4,
                             labels=[["A", "A", "B"], ["A", "A", "B"], ["A", "A", "A"]])
        scen = tmp_path / "states.txt"
        scen.write_text(text)
        out, svg = tmp_path / "r.json", tmp_path / "map.svg"
        run(["delimit", str(scen), "--out", str(out)])
        assert run(["render", str(scen), "--result", str(out), "--out", str(svg)]) == 0
        scenario = load_scenario(text)
        assert svg.read_text() == render_svg(delimit(scenario), scenario.grid)
        assert '<path id="state-B"' in svg.read_text()
        # Pinned so that how render attaches the labels cannot change the bytes.
        assert hashlib.sha256(svg.read_bytes()).hexdigest() \
            == "ed44f09eb9620ffccee6959847221134c182d9d7cefd8ac473144b5e9086c6c2"

    def test_deeply_nested_result_is_exit_3(self, grid16, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        assert run(["render", grid16, "--result", str(deep),
                    "--out", str(tmp_path / "x.svg")]) == 3
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_too_many_dots_is_exit_3(self, tmp_path, capsys):
        scen = tmp_path / "dense.txt"
        scen.write_text(f"1 1 1 {2**25}\n{2**24 + 1}\n")
        svg = tmp_path / "map.svg"
        assert run(["delimit", str(scen), "--svg", str(svg)]) == 3
        assert str(2**24 + 1) in capsys.readouterr().err
        assert not svg.exists()

    def test_refused_svg_writes_no_result(self, tmp_path, capsys):
        scen = tmp_path / "dense.txt"
        scen.write_text(f"1 1 1 {2**25}\n{2**24 + 1}\n")
        out, svg = tmp_path / "r.json", tmp_path / "map.svg"
        assert run(["delimit", str(scen), "--out", str(out), "--svg", str(svg)]) == 3
        assert str(2**24 + 1) in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("label", ["A\0", "A\x01"])
    def test_label_xml_cannot_hold_is_exit_3(self, tmp_path, capsys, label):
        scen = tmp_path / "s.txt"
        scen.write_text(f"2 1 1 10\n1 1\nSTATES\n{label} B\n")
        out, svg = tmp_path / "r.json", tmp_path / "map.svg"
        assert run(["delimit", str(scen), "--out", str(out), "--svg", str(svg)]) == 3
        assert f"state label {label!r}" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()
        assert run(["delimit", str(scen), "--out", str(out)]) == 0
        assert run(["render", str(scen), "--result", str(out), "--out", str(svg)]) == 3
        assert not svg.exists()

    def test_failed_svg_write_removes_result(self, grid16, tmp_path, capsys):
        out, svg = tmp_path / "r.json", tmp_path / "missing-dir" / "map.svg"
        assert run(["delimit", grid16, "--out", str(out), "--svg", str(svg)]) == 4
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

    def test_dimension_mismatch_is_exit_3(self, grid16, tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("2 2 10 100\n1 1\n1 1\n")
        out = tmp_path / "r.json"
        run(["delimit", grid16, "--out", str(out)])
        assert run(["render", str(small), "--result", str(out),
                    "--out", str(tmp_path / "x.svg")]) == 3

    def test_labels_of_another_size_are_exit_3(self, grid16, tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("2 2 10 100\n1 1\n1 1\nSTATES\nA B\nA B\n")
        out, svg = tmp_path / "r.json", tmp_path / "x.svg"
        assert run(["delimit", grid16, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["render", str(small), "--result", str(out), "--out", str(svg)]) == 3
        assert capsys.readouterr().err == "error: state labels must be 16x16 like the result\n"
        assert not svg.exists()


# (result document, scenario of its size, the message of the first rule it breaks)
UNCHECKED_RESULTS = [
    (FLAGS_AND_STATS_BROKEN, REPRO_MAP,
     "constituency #1: flags must be [] for population 3 at threshold 5"),
    (dict(FLAGS_AND_STATS_BROKEN, constituencies=[
        dict(FLAGS_AND_STATS_BROKEN["constituencies"][0], flags=[])]), REPRO_MAP,
     "stats must have nodes >= leaves >= count, got nodes 0, leaves 9, count 1"),
    ({"count": 1, "threshold": 10, "peoplePerDot": 1,
      "constituencies": [{"id": 1, "population": 3, "flags": ["overCapacity"],
                          "rects": [[0, 0, 1, 1]]}],
      "stats": {"nodes": 1, "leaves": 1, "maxDepth": 0}}, "1 1 1 10\n3\n",
     "constituency #1: flags must be [] for population 3 at threshold 10"),
]


@pytest.mark.parametrize("doc, scenario, message", UNCHECKED_RESULTS,
                         ids=["flags", "stats", "over-capacity-flag"])
def test_result_delimit_cannot_write_is_exit_3(tmp_path, capsys, doc, scenario, message):
    result, scen, svg = tmp_path / "r.json", tmp_path / "s.txt", tmp_path / "map.svg"
    result.write_text(json.dumps(doc))
    scen.write_text(scenario)
    assert run(["locate", "--result", str(result), "--point", "0,0"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run(["render", str(scen), "--result", str(result), "--out", str(svg)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not svg.exists()


class TestCompareCommand:
    def test_four_state_table(self, four_states, capsys):
        assert run(["compare", four_states, "--seats", "20"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["state", "population", "hamilton", "jefferson",
                                  "webster", "huntington-hill", "quadtree"]
        assert out[1].split() == ["A", "2560", "4", "4", "4", "4", "1"]
        assert out[2].split() == ["B", "3315", "6", "6", "6", "6", "1"]
        assert out[3].split() == ["C", "995", "2", "1", "2", "2", "1"]
        assert out[4].split() == ["D", "5012", "8", "9", "8", "8", "1"]

    def test_quadtree_column_matches_delimit(self, tmp_path, capsys):
        counts = [[1] * 8 for _ in range(8)]
        labels = [["L"] * 4 + ["R"] * 4 for _ in range(8)]
        scen = tmp_path / "two.txt"
        scen.write_text(scenario_text(counts, 100, 800, labels))
        result = delimit(load_scenario(scen.read_text()))
        assert run(["compare", str(scen), "--seats", "10"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            fields = row.split()
            assert int(fields[-1]) == len(result.per_state[fields[0]])

    def test_requires_states(self, grid16, capsys):
        assert run(["compare", grid16, "--seats", "20"]) == 3
        assert "STATES" in capsys.readouterr().err

    def test_single_state_single_row(self, tmp_path, capsys):
        scen = tmp_path / "one.txt"
        scen.write_text(scenario_text([[5, 5]], 10, 1000, labels=[["X", "X"]]))
        assert run(["compare", str(scen), "--seats", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[1].split() == ["X", "100", "7", "7", "7", "7", "1"]


class TestStatsCommand:
    def test_16x16(self, grid16, capsys):
        assert run(["stats", grid16]) == 0
        assert capsys.readouterr().out == (
            "nodes: 21\nleaves: 16\nmaxDepth: 2\nconstituencies: 16\n")


class TestFreshProcess:
    """A command run alone loads only what it needs, and prints what it
    prints in a process that has loaded everything."""

    def run_fresh(self, args, capsys) -> str:
        assert run(args) == 0
        expected = capsys.readouterr().out
        done = fresh_python(FRESH_MAIN, *args)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
        return done.stderr.splitlines()[-1]

    def test_locate_loads_no_numpy(self, four_states, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["delimit", four_states, "--out", str(out)]) == 0
        capsys.readouterr()
        for point in ("0,0", "3,0"):
            assert self.run_fresh(["locate", "--result", str(out), "--point", point],
                                  capsys) == "[]"

    def test_apportion_loads_no_numpy(self, capsys):
        assert self.run_fresh(["apportion", "--method", "webster", "--seats", "20",
                               "--pops", TestApportionCommand.POPS], capsys) == "[]"

    def test_delimit_still_works(self, four_states, tmp_path, capsys):
        assert run(["delimit", four_states, "--out", str(tmp_path / "a.json"),
                    "--svg", str(tmp_path / "a.svg")]) == 0
        expected = capsys.readouterr().out
        done = fresh_python(FRESH_MAIN, "delimit", four_states, "--out", str(tmp_path / "b.json"),
                            "--svg", str(tmp_path / "b.svg"))
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
        assert done.stderr.splitlines()[-1] == "['numpy', 'quadlimit.popgrid']"
        for suffix in ("json", "svg"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
