"""Tests for the command-line interface: enumeration, wall crossing,
cover graphs, the verification suites, and exit codes."""

import json

import pytest

from growth.cli import main, parse_shape
from growth.cylgrowth import CylGrowthDiagram
from growth.decgd import decgd_enumerate
from growth.goldens import golden_diagram, golden_figure_entries, load_golden
from growth.moduli import Wall, cross_cgd
from growth.partitions import Frame

F24 = Frame(2, 4)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseShape:
    def test_grammar(self):
        assert parse_shape("3,1;2;1;1") == ((3, 1), (2,), (1,), (1,))

    def test_bad_chunk(self):
        from growth.cli import UsageError
        with pytest.raises(UsageError):
            parse_shape("3,x;1")


class TestEnumerate:
    def test_fine_count(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "5",
                             "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 5
        assert "5 diagrams" in err

    def test_decgd_count(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                             "--shape", "1;1;1;1", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_size_mismatch_is_empty_success(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                             "--shape", "2,2;1;1", "--format", "json")
        assert code == 0
        assert json.loads(out) == []
        assert "d(n-d)" in err

    def test_malformed_shape(self, capsys):
        code, _, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                           "--shape", "2,a;1;1")
        assert code == 2 and "error" in err

    def test_empty_shape(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                             "--shape", "")
        assert code == 2 and "empty condition" in err
        assert out == ""

    def test_missing_frame(self, capsys):
        code, _, err = run(capsys, "enumerate")
        assert code == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--d", "2", "--n", "4",
                         "--format", "json")
        _, out2, _ = run(capsys, "enumerate", "--d", "2", "--n", "4",
                         "--format", "json")
        assert out1 == out2


class TestWallcross:
    def _top_file(self, tmp_path):
        top = golden_diagram("growth_example")
        path = tmp_path / "top.json"
        path.write_text(json.dumps(top.to_json()))
        return top, str(path)

    def test_figure(self, capsys, tmp_path):
        top, path = self._top_file(tmp_path)
        data = load_golden("wall_example")
        wall = ",".join(str(x) for x in data["wall"])
        code, out, _ = run(capsys, "wallcross", "--input", path,
                           "--wall", wall, "--format", "json")
        assert code == 0
        crossed = CylGrowthDiagram.from_json(json.loads(out))
        a, b = data["wall"]
        assert crossed == cross_cgd(top, Wall(a, b, data["r"]))
        for i, j, expected in golden_figure_entries("wall_example"):
            assert crossed.get(i, j) == expected

    def test_twice(self, capsys, tmp_path):
        _, path = self._top_file(tmp_path)
        code, _, err = run(capsys, "wallcross", "--input", path,
                           "--wall", "4,6", "--twice", "--format", "json")
        assert code == 0
        assert "restores" in err

    def test_decgd_input(self, capsys, tmp_path):
        d = decgd_enumerate(F24, [(1,)] * 4)[0]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(d.to_json()))
        code, out, _ = run(capsys, "wallcross", "--input", str(path),
                           "--wall", "1,2", "--twice", "--format", "json")
        assert code == 0
        assert "shape" in json.loads(out)

    def test_malformed_wall(self, capsys, tmp_path):
        _, path = self._top_file(tmp_path)
        code, _, err = run(capsys, "wallcross", "--input", path,
                           "--wall", "9")
        assert code == 2 and "error" in err

    def test_invalid_interval(self, capsys, tmp_path):
        _, path = self._top_file(tmp_path)
        code, _, err = run(capsys, "wallcross", "--input", path,
                           "--wall", "1,1")
        assert code == 2


class TestCover:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "cover", "--d", "2", "--n", "4",
                           "--shape", "1;1;1;1")
        assert code == 0
        assert "6 nodes, 6 edges, 1 components" in out

    def test_dot(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, _, err = run(capsys, "cover", "--d", "2", "--n", "4",
                           "--shape", "1;1;1;1", "--format", "dot",
                           "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph cover {") and text.rstrip().endswith("}")
        assert "6 nodes" in err


class TestVerify:
    def test_conic_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "conic")
        assert code == 0
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_full(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 9
        assert "all 9 checks passed" in err

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--only", "algebra"])

