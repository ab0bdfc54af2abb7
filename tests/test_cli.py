"""Tests for the command-line interface: enumeration, wall crossing,
cover graphs, the verification suites, and exit codes."""

import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from growth.checks import golden_diagram, golden_figure_entries, load_golden
from growth.cli import (
    MAX_ENUMERATE_ENTRIES, _enumeration_size, main, parse_shape,
)
from growth.cylgrowth import MAX_DIAGRAM_ENTRIES, cgd_enumerate
from growth.decgd import decgd_enumerate
from growth.jsonin import read_cgd, read_decgd
from growth.moduli import MAX_COVER_EDGES, Wall, cross_cgd
from growth.partitions import Frame
from growth.tableaux import DualClass, dual_classes, enumerate_chains
from test_decgd import reference_restrict_cgd

F24 = Frame(2, 4)
REFERENCES = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "references.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spawn(*argv, stdout, preexec_fn=None, flags=()):
    """The command as the program, `python [flags] -m growth.cli argv`, in
    a fresh process with stderr piped."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                           / "src")}
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "growth.cli", *argv], env=env,
        stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn)


# warnings, deprecations included, are errors
DEV_FLAGS = ("-X", "dev", "-W", "error")


def _one_gigabyte():
    """Cap the address space of a child process at 1 GB."""
    resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))


def _run_capped(*argv, flags=()):
    """Run the command as the program, in a fresh process with 1 GB of
    address space; returns its exit code, stdout and stderr text, and
    seconds."""
    start = time.perf_counter()
    proc = _spawn(*argv, stdout=subprocess.PIPE, preexec_fn=_one_gigabyte,
                  flags=flags)
    out, err = proc.communicate(timeout=120)
    return (proc.returncode, out.decode(), err.decode(),
            time.perf_counter() - start)


def fine_refusal(entries: int) -> str:
    """The solver's refusal of a frame whose fine diagrams have the given
    number of entries."""
    return (f"each fine diagram of the frame would have {entries} entries, "
            f"over the bound of {MAX_DIAGRAM_ENTRIES} entries for one "
            f"diagram")


class TestParseShape:
    def test_grammar(self):
        assert parse_shape("3,1;2;1;1") == ((3, 1), (2,), (1,), (1,))

    def test_bad_chunk(self):
        from growth.cli import UsageError
        with pytest.raises(UsageError):
            parse_shape("3,x;1")


class TestEnumerate:
    def test_fine_count(self):
        code, out, err, _ = _run_capped("enumerate", "--d", "2", "--n", "5",
                                        "--format", "json")
        assert (code, err) == (0, "5 diagrams\n")
        assert len(json.loads(out)) == 5
        # (3,8) is inside the bound and lists its hook-length count
        code, _, err, _ = _run_capped("enumerate", "--d", "3", "--n", "8",
                                      "--format", "text")
        assert (code, err) == (0, "6006 diagrams\n")

    def test_decgd_count(self):
        code, out, _, _ = _run_capped("enumerate", "--d", "2", "--n", "4",
                                      "--shape", "1;1;1;1", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 2
        # so does the fiber of fifteen single boxes on (3,8), grown once
        # per rotation orbit as the fine diagrams are
        code, _, err, seconds = _run_capped(
            "enumerate", "--d", "3", "--n", "8",
            "--shape", ";".join(["1"] * 15), "--format", "text")
        assert (code, err) == (0, "6006 diagrams\n") and seconds < 60

    def test_size_mismatch_is_empty_success(self):
        # no diagrams, so no work to bound: the empty array at once, where
        # the fine diagrams of (1,9999) and the diagrams of 10,001
        # conditions are each over a bound
        for d, n, shape in [(2, 4, "2,2;1;1"), (2, 4, "1;1;1"),
                            (1, 9999, "1;1;1"),
                            (2, 4, ";".join(["1"] * 10001))]:
            code, out, err, seconds = _run_capped(
                "enumerate", "--d", str(d), "--n", str(n), "--shape", shape,
                "--format", "json")
            assert (code, out) == (0, "[]\n") and seconds < 5
            assert err == (f"note: no diagrams, the sizes must satisfy sum "
                           f"|lam_i| = d(n-d) = {d * (n - d)}\n0 diagrams\n")

    def test_malformed_shape(self, capsys):
        code, _, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                           "--shape", "2,a;1;1")
        assert code == 2 and "error" in err

    def test_empty_shape(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "4",
                             "--shape", "")
        assert code == 2 and "empty condition" in err
        assert out == ""

    def test_missing_frame(self):
        # and cover without its conditions
        for argv, missing in [(["enumerate"], "--d, --n"),
                              (["cover", "--d", "2", "--n", "4"], "--shape")]:
            code, out, err, _ = _run_capped(*argv)
            assert (code, out) == (2, "") and f"required: {missing}" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--d", "2", "--n", "4",
                         "--format", "json")
        _, out2, _ = run(capsys, "enumerate", "--d", "2", "--n", "4",
                         "--format", "json")
        assert out1 == out2

    def test_sizes_inside_the_bound(self):
        # the hook-length counts of the 4 x 4 and 3 x 6 rectangles, and a
        # class-diagram fiber, are predicted without enumerating, and all
        # three are inside the bound
        assert _enumeration_size(Frame(4, 8), None) == 24024
        assert _enumeration_size(Frame(3, 9), None) == 87516
        assert _enumeration_size(Frame(3, 7), ((2,),) * 6) == \
            len(decgd_enumerate(Frame(3, 7), ((2,),) * 6))

    @staticmethod
    def refusal(d, n):
        """The line that refuses the fine diagrams of (d,n): the solver's
        bound on their r(r+1) entries, r = d(n-d), and, when they are
        within it, the parts written: the hook-length count of the
        rectangle's tableaux (Catalan numbers for d = 2), r(r+1) entries
        each, of up to d parts."""
        r = d * (n - d)
        entries = r * (r + 1)
        if entries > MAX_DIAGRAM_ENTRIES:
            return f"error: {fine_refusal(entries)}\n"
        hooks = math.prod(d - i + n - d - j - 1
                          for i in range(d) for j in range(n - d))
        diagrams = math.factorial(r) // hooks
        if d == 2:
            assert diagrams == math.comb(2 * (n - 2), n - 2) // (n - 1)
        return (f"error: the enumeration would write {diagrams} diagrams of "
                f"{entries} entries of up to {d} parts, "
                f"{diagrams * entries * d} parts in all, over the bound of "
                f"{MAX_ENUMERATE_ENTRIES} parts\n")

    @pytest.mark.parametrize("d,n", [(2, 300), (2, 9999), (4, 9),
                                     (99999999999, 100000000000)],
                             ids=["2-300", "2-9999", "4-9", "huge"])
    def test_work_bound_in_a_fresh_process(self, tmp_path, d, n):
        # refused at once, before --out is opened; each of these frames
        # once ended in a traceback or in an allocation with no limit, so
        # the child has 1 GB of address space, and a regressed bound
        # fails fast instead of exhausting the machine
        target = tmp_path / "enumerate.json"
        code, out, err, seconds = _run_capped(
            "enumerate", "--d", str(d), "--n", str(n), "--format", "json",
            "--out", str(target))
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == self.refusal(d, n)
        assert not target.exists()


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
        crossed = read_cgd(json.loads(out))
        a, b = data["wall"]
        assert crossed == cross_cgd(top, Wall(a, b, data["r"]))
        for i, j, expected in golden_figure_entries("wall_example"):
            assert crossed.get(i, j) == expected

    def test_twice(self, tmp_path):
        # fine and class diagrams of (2,5), on walls that wrap past r
        # (b > r) too
        _, top = self._top_file(tmp_path)
        fine, cls = tmp_path / "fine.json", tmp_path / "class.json"
        fine.write_text(json.dumps(cgd_enumerate(Frame(2, 5))[0].to_json()))
        cls.write_text(json.dumps(decgd_enumerate(
            Frame(2, 5), [(2,)] + [(1,)] * 4)[0].to_json()))
        for path, wall in [(top, "4,6"), (fine, "1,3"), (fine, "5,7"),
                           (cls, "1,2"), (cls, "4,6")]:
            code, out, err, _ = _run_capped(
                "wallcross", "--input", str(path), "--wall", wall, "--twice",
                "--format", "json")
            assert (code, err) == (0, "crossing twice restores the diagram\n")
            json.loads(out)

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
        # the diagrams of (1,4) have r = 3, and no wall
        path = tmp_path / "r3.json"
        path.write_text(json.dumps(cgd_enumerate(Frame(1, 4))[0].to_json()))
        assert run(capsys, "wallcross", "--input", str(path),
                   "--wall", "1,2") == (2, "", "error: 3 marked points have "
                                        "no wall (a wall needs r >= 4)\n")

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 100000, b"[" * 100000 + b"]" * 100000],
        ids=["not-utf-8", "deep", "deep-balanced"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err, _ = _run_capped("wallcross", "--input", str(path),
                                        "--wall", "1,2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read diagram from {path}: ")
        assert err.count("\n") == 1

    def test_long_integer(self, capsys, tmp_path):
        # json refuses with a plain ValueError an integer longer than int()
        # converts (4300 digits by default since CPython 3.11): one line,
        # never a traceback
        text = json.dumps(cgd_enumerate(F24)[0].to_json())
        path = tmp_path / "long.json"
        path.write_text(text.replace('"r": 4', '"r": ' + "9" * 5000))
        code, out, err = run(capsys, "wallcross", "--input", str(path),
                             "--wall", "1,2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 400, err[:500]

    def test_read_as_utf8(self, capsys, tmp_path):
        # whatever the locale, the key is read as the character it encodes
        data = golden_diagram("growth_example").to_json()
        data["\u00e9"] = 1
        path = tmp_path / "key.json"
        path.write_bytes(json.dumps(data, ensure_ascii=False).encode())
        code, _, err = run(capsys, "wallcross", "--input", str(path),
                           "--wall", "1,2")
        assert code == 2
        assert "the keys are ['frame', 'r', 'rows', '\u00e9']" in err


# Diagram fields that are not ints, each reported with its path:
# (diagram kind, where, value, expected message).  Floats and bools
# matter beyond the message, since 2.0 and True hash like 2 and 1 in the
# partition caches, and a row entry [true] would otherwise pass as (1,).
FIELD_CASES = [
    pytest.param("fine", ("rows", 2, 3), ["a", "b"],
                 "rows[2][3][0]: 'a' is not an integer", id="strings"),
    pytest.param("fine", ("rows", 2, 3), ["a"],
                 "rows[2][3][0]: 'a' is not an integer", id="string"),
    pytest.param("fine", ("rows", 2, 3, 0), 2.0,
                 "rows[2][3][0]: 2.0 is not an integer", id="float-part"),
    pytest.param("fine", ("rows", 0, 1), [True],
                 "rows[0][1][0]: True is not an integer", id="bool-part"),
    pytest.param("fine", ("rows", 1, 2), 2,
                 "rows[1][2]: 2 is not a list", id="not-a-list"),
    pytest.param("fine", ("rows", 0, 1), [1, 0],
                 "rows[0][1]: [1, 0] ends in a zero part", id="zero-part"),
    pytest.param("fine", ("rows", 0, 2), [4],
                 "rows[0][2]: (4,) does not fit in Frame(d=2, n=5)",
                 id="out-of-frame"),
    pytest.param("fine", ("frame", "d"), 2.0,
                 "frame.d: 2.0 is not an integer", id="float-frame"),
    pytest.param("fine", ("frame", "n"), True,
                 "frame.n: True is not an integer", id="bool-frame"),
    pytest.param("fine", ("frame",), [2, 5],
                 "frame: [2, 5] is not an object", id="list-frame"),
    pytest.param("fine", ("r",), 6.0,
                 "r: 6.0 is not an integer", id="float-r"),
    pytest.param("class", ("r",), True,
                 "r: True is not an integer", id="bool-r"),
    pytest.param("class", ("shape", 1), ["1"],
                 "shape[1][0]: '1' is not an integer", id="shape-part"),
    pytest.param("class", ("shape", 1), [1, 0],
                 "shape[1]: [1, 0] ends in a zero part", id="shape-zero"),
    pytest.param("class", ("shape", 2), [],
                 "condition 3 of ((1,), (1,), (), (1,)) is empty; each "
                 "condition needs at least one box", id="empty-condition"),
    pytest.param("class", ("a", 0, 1, 1, 0), 1.0,
                 "a[0][1][1][0]: 1.0 is not an integer", id="class-entry"),
    pytest.param("class", ("b", 2, 0), [[], [1], [2, 1]],
                 "b[2][0]: step (1,) -> (2, 1) does not add one box",
                 id="class-step"),
]


def nested(depth: int) -> list:
    """The empty list nested depth deep: [[...[]...]]."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


class TestWallcrossMalformed:
    """Diagram files that parse as JSON but are not diagrams: exit 2 with
    the first problem, never a traceback or a crossed diagram."""

    def _run(self, tmp_path, data, wall):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err, _ = _run_capped("wallcross", "--input", str(path),
                                        "--wall", wall, "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: malformed diagram")
        return err

    def test_fine_too_few_rows(self, tmp_path):
        data = golden_diagram("growth_example").to_json()
        data["rows"] = data["rows"][:-1]
        err = self._run(tmp_path, data, "1,2")
        assert "'rows' must be 6 rows of 7 entries" in err

    def test_fine_wrong_r(self, tmp_path):
        data = golden_diagram("growth_example").to_json()
        data["r"] += 1
        err = self._run(tmp_path, data, "1,2")
        assert "r = 7" in err

    def test_class_wrong_shape(self, tmp_path):
        data = decgd_enumerate(F24, [(1,)] * 4)[0].to_json()
        data["shape"] = data["shape"][:-1]
        err = self._run(tmp_path, data, "1,2")
        assert "r conditions" in err

    def test_class_permuted_shape(self, tmp_path):
        # structurally sound, but the first-row classes carry other contents
        shape = [(2,), (1, 1), (1,), (1,)]
        data = decgd_enumerate(Frame(2, 5), shape)[0].to_json()
        data["shape"] = data["shape"][::-1]
        err = self._run(tmp_path, data, "1,2")
        assert "wrong content" in err

    def test_class_wrong_a_shape(self, tmp_path):
        data = decgd_enumerate(F24, [(1,)] * 4)[0].to_json()
        data["a"] = data["b"]
        err = self._run(tmp_path, data, "1,2")
        assert "the row-0 classes grow no diagram: representatives 1 " \
            "and 2 do not meet" in err

    def test_class_other_b(self, tmp_path):
        # another class of the same skew shape in b: the rows still hold,
        # but the file is not the diagram its row-0 classes grow
        d = decgd_enumerate(Frame(2, 5), [(2,)] + [(1,)] * 4)[0]
        k, m, other = next(
            (k, m, other) for k, row in enumerate(d.b)
            for m, cls in enumerate(row)
            for other in dual_classes(cls.outer, cls.inner) if other != cls)
        data = json.loads(json.dumps(d.to_json()))
        data["b"][k][m] = [list(p) for p in other.representative]
        err = self._run(tmp_path, data, "1,2")
        assert f"b({k},{k + m}) is not the class that the row-0 classes " \
            f"grow" in err

    @pytest.mark.parametrize("wall", ["1,2", "1,3", "2,3"])
    def test_class_empty_condition(self, tmp_path, wall):
        # restricted with an empty first block, the classes themselves
        # carry the empty condition, as --shape "0;2;1;1" would
        d = reference_restrict_cgd(cgd_enumerate(F24)[0], (0, 2, 1, 1))
        assert d.shape[0] == ()
        err = self._run(tmp_path,
                        json.loads(json.dumps(d.to_json())), wall)
        assert err.count("\n") == 1
        assert "condition 1 of " in err and " is empty; " in err

    def test_class_other_tableau(self, tmp_path):
        # another tableau of the class names the same diagram, but the
        # file is not that diagram's JSON
        d = decgd_enumerate(Frame(2, 6), [(2, 1), (2, 1), (1,), (1,)])[0]
        cls = d.a[0][0]
        other = next(t for t in enumerate_chains(cls.outer, cls.inner)
                     if t != cls.representative and DualClass.of(t) is cls)
        data = json.loads(json.dumps(d.to_json()))
        data["a"][0][0] = [list(p) for p in other]
        err = self._run(tmp_path, data, "1,2")
        assert "a[0][0]: not the representative of its class" in err

    def test_class_without_a(self, tmp_path):
        # on single boxes its rows are a fine diagram's, but the file is
        # neither kind of diagram
        data = decgd_enumerate(F24, [(1,)] * 4)[0].to_json()
        del data["a"]
        err = self._run(tmp_path, data, "1,2")
        assert "the keys are ['b', 'frame', 'r', 'rows', 'shape'], " \
            "not ['frame', 'r', 'rows']" in err

    @pytest.mark.parametrize("kind", ["fine", "class"])
    @pytest.mark.parametrize("extra", [True, False],
                             ids=["extra-key", "missing-key"])
    def test_frame_keys(self, tmp_path, kind, extra):
        # the frame holds exactly d and n: an extra key would not survive
        # to_json, and a missing one is named with the frame
        d = (cgd_enumerate(F24)[0] if kind == "fine" else
             decgd_enumerate(Frame(2, 5), [(2,)] + [(1,)] * 4)[0])
        data = json.loads(json.dumps(d.to_json()))
        if extra:
            data["frame"]["x"] = 1
        else:
            del data["frame"]["n"]
        err = self._run(tmp_path, data, "1,2")
        keys = "['d', 'n', 'x']" if extra else "['d']"
        assert err.count("\n") == 1
        assert f"frame: the keys are {keys}, not ['d', 'n']" in err

    def test_not_an_object(self, tmp_path):
        err = self._run(tmp_path, [1, 2], "1,2")
        assert "not a JSON object" in err

    @pytest.mark.parametrize("kind,where,value,want", [
        pytest.param("fine", ("rows", 0, 0), ["x" * 1000000],
                     "rows[0][0][0]: 'xxx", id="long-string"),
        pytest.param("class", ("a", 0, 0), ["x" * 1000000],
                     "a[0][0][0]: 'xxx", id="class-long-string"),
        pytest.param("fine", ("rows", 0, 0), nested(900),
                     "rows[0][0][0]: [[[", id="nested-900"),
        pytest.param("fine", ("rows", 0, 2), [1] * 100000,
                     "rows[0][2]: (1, 1, 1", id="long-out-of-frame"),
    ])
    def test_long_value_clipped(self, tmp_path, kind, where, value, want):
        # one short line names the field and echoes only the start of the
        # value, however long or deep the value is
        data = json.loads(json.dumps(
            (cgd_enumerate(F24)[0] if kind == "fine" else
             decgd_enumerate(F24, [(1,)] * 4)[0]).to_json()))
        _at(data, where[:-1])[where[-1]] = value
        err = self._run(tmp_path, data, "1,2")
        assert err.count("\n") == 1 and len(err.encode()) < 300, err[:400]
        assert want in err and "..." in err

    @pytest.mark.parametrize("kind,where,value,want", FIELD_CASES)
    def test_field_path(self, tmp_path, kind, where, value, want):
        # edited as JSON data: to_json holds the diagram's own tuples
        data = json.loads(json.dumps(
            (golden_diagram("growth_example") if kind == "fine" else
             decgd_enumerate(F24, [(1,)] * 4)[0]).to_json()))
        target = data
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        err = self._run(tmp_path, data, "1,2")
        assert want in err


# valid diagram files, as JSON data, for the fuzz tests below: fine
# diagrams of (2,4) and (2,5), and class diagrams of single boxes, of a
# row among boxes, and of a row beside a column
FUZZ_BASES = [json.loads(json.dumps(d.to_json())) for d in (
    cgd_enumerate(F24)[1], golden_diagram("growth_example"),
    decgd_enumerate(F24, [(1,)] * 4)[0],
    decgd_enumerate(Frame(2, 5), [(2,)] + [(1,)] * 4)[2],
    decgd_enumerate(Frame(2, 5), [(2,), (1, 1), (1,), (1,)])[0])]

# one value of each JSON type; a retyped value gets one of another type
FUZZ_VALUES = [None, "1", 1.0, True, 2, [], {}]


def _json_paths(node, prefix=()):
    """The path of every value inside node, as tuples of keys."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutate(data, draw):
    """Apply one drawn mutation to data in place: drop a key, add an
    unknown key to a nested object, retype a value, truncate or extend a
    table or one of its rows, swap the class tables, reorder the shape, or
    insert an empty condition."""
    paths = list(_json_paths(data))
    kind = draw(st.sampled_from(
        ["drop", "add", "retype", "table", "swap", "reorder", "empty"]))
    if kind == "drop":
        path = draw(st.sampled_from(
            [p for p in paths if isinstance(p[-1], str)]))
        del _at(data, path[:-1])[path[-1]]
    elif kind == "add":
        nested = [p for p in paths if isinstance(_at(data, p), dict)]
        if nested:
            _at(data, draw(st.sampled_from(nested)))["x"] = 1
    elif kind == "retype":
        path = draw(st.sampled_from(paths))
        old = _at(data, path)
        _at(data, path[:-1])[path[-1]] = draw(st.sampled_from(
            [v for v in FUZZ_VALUES if type(v) is not type(old)]))
    elif kind == "table":
        tables = [p for p in paths if len(p) <= 2
                  and p[0] in ("rows", "a", "b", "shape")
                  and isinstance(_at(data, p), list)]
        if tables:
            table = _at(data, draw(st.sampled_from(tables)))
            if draw(st.booleans()) and table:
                del table[-1]
            else:
                table.append(json.loads(json.dumps(table[-1]))
                             if table else [])
    elif kind == "swap" and "a" in data and "b" in data:
        data["a"], data["b"] = data["b"], data["a"]
    elif kind == "reorder" and isinstance(data.get("shape"), list):
        data["shape"] = draw(st.permutations(data["shape"]))
    elif kind == "empty" and isinstance(data.get("shape"), list):
        data["shape"].insert(
            draw(st.integers(0, len(data["shape"]))), [])
        if draw(st.booleans()) and type(data.get("r")) is int:
            data["r"] += 1


def _check_exit(code, out, err, twice=False):
    """Exit 0, or 2 with one error line and no output; 1 only when
    crossing twice does not restore the diagram."""
    if code == 1:
        assert twice and "does not restore" in err
    elif code != 0:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ_SETTINGS
@given(base=st.sampled_from(FUZZ_BASES), data=st.data(),
       wall=st.sampled_from(["1,2", "1,3", "2,3", "2,4", "3,5"]),
       twice=st.booleans(), fmt=st.sampled_from(["json", "text"]))
def test_fuzz_wallcross_files(capsys, tmp_path, base, data, wall, twice,
                              fmt):
    # a mutated file exits 0 only if it is still a diagram's own JSON
    mutated = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(mutated, data.draw)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(mutated))
    code, out, err = run(
        capsys, "wallcross", "--input", str(path), "--wall", wall,
        "--format", fmt, *(["--twice"] if twice else []))
    _check_exit(code, out, err, twice)
    if code != 2:
        kind = (read_decgd if "a" in mutated and "b" in mutated
                else read_cgd)
        parsed = kind(mutated)
        assert json.dumps(parsed.to_json(), sort_keys=True) == \
            json.dumps(mutated, sort_keys=True)


@FUZZ_SETTINGS
@given(command=st.sampled_from(["enumerate", "cover"]),
       frame=st.sampled_from([("2", "4"), ("2", "5")]),
       base=st.sampled_from(["1;1;1;1", "2;1;1;1;1", "2,1;1;1;1",
                             "2;1,1;1;1"]),
       edits=st.lists(st.tuples(st.integers(0, 20),
                                st.sampled_from(["", ";", ",", "0", "1",
                                                 "2", "-", " ", "x", "_",
                                                 "+", "\u0661"])),
                      max_size=3))
def test_fuzz_shape_strings(capsys, command, frame, base, edits):
    # each edit replaces one character (or appends), "" deleting it
    shape = base
    for at, text in edits:
        at %= len(shape) + 1
        shape = shape[:at] + text + shape[at + 1:]
    code, out, err = run(capsys, command, "--d", frame[0], "--n", frame[1],
                         f"--shape={shape}", "--format", "json")
    _check_exit(code, out, err)
    if code == 0:
        json.loads(out)


# numbers that int() reads but the CLI refuses: an underscore, a sign,
# and ARABIC-INDIC DIGIT ONE
NOT_DIGITS = ["0_1", "+1", "\u0661"]
NUMBER_CASES = [(field, text, x) for x in NOT_DIGITS for field, text in (
    ("shape", f"{x};1;1;1"), ("shape", f"1;1,{x};1;1"), ("wall", f"{x},3"),
    ("wall", f"1,{x}"), ("d", x), ("n", x))]


@pytest.mark.parametrize("field,value,number", NUMBER_CASES,
                         ids=[f"{f}={v!a}" for f, v, _ in NUMBER_CASES])
def test_numbers_are_ascii_digits(tmp_path, field, value, number):
    # exit 2 with one error line that shows the refused number
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(cgd_enumerate(Frame(2, 5))[0].to_json()))
    options = {"d": "2", "n": "4", "shape": "1;1;1;1"}
    if field == "wall":
        argv = ["wallcross", "--input", str(path), "--wall", value]
    else:
        options[field] = value
        argv = ["cover"] + [f"--{k}={v}" for k, v in options.items()]
    code, out, err, _ = _run_capped(*argv)
    assert code == 2 and out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and number in errors[0], err
    if field not in ("d", "n"):
        # the CLI's own refusals are its one stderr line
        assert err == errors[0] + "\n"


def test_numbers_keep_surrounding_spaces(capsys):
    code, out, _ = run(capsys, "cover", "--d", " 2 ", "--n", "4 ",
                       "--shape", " 1 ;1; 1,0 ;1")
    assert code == 0 and out == "6 nodes, 6 edges, 1 components\n"


# a valid vector for each subcommand, and for an unknown one, as
# (option, value) pairs; FILE is a valid class-diagram file
ARGV_BASES = {
    "enumerate": [("--d", 2), ("--n", 4), ("--format", "json")],
    "wallcross": [("--input", "FILE"), ("--wall", "1,2")],
    "cover": [("--d", 2), ("--n", 4), ("--shape", "1;1;1;1")],
    "verify": [("--only", "conic")],
    "plot": [],
}
# the options of the subcommands but --out (which would write files),
# an unknown one, and --help; a value is an int, a shape or wall string,
# a format or suite name, the valid file or a missing path
ARGV_OPTIONS = ["--d", "--n", "--shape", "--format", "--input", "--wall",
                "--twice", "--only", "--help", "--size"]
ARGV_VALUES = st.one_of(st.none(), st.integers(-1, 5), st.sampled_from(
    ["1;1;1;1", "2;1;1;1;1", "0;1;1", "2,x;1", "", "1,2", "2,4", "0,9",
     "json", "text", "dot", "xml", "growth", "conic", "FILE", "MISSING"]))


@FUZZ_SETTINGS
@given(command=st.sampled_from(sorted(ARGV_BASES)), data=st.data())
def test_fuzz_argv(capsys, tmp_path, command, data):
    # edits add a known or unknown option, drop one or repeat one; a
    # missing value is argparse's to refuse.  Frames stay within d <= 2
    # and n <= 5.
    valid = tmp_path / "class.json"
    valid.write_text(json.dumps(
        decgd_enumerate(F24, [(1,)] * 4)[0].to_json()))
    options = list(ARGV_BASES[command])
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(["add", "drop", "repeat"]))
        if edit == "add":
            options.insert(
                data.draw(st.integers(0, len(options))),
                (data.draw(st.sampled_from(ARGV_OPTIONS)),
                 data.draw(ARGV_VALUES)))
        elif options:
            i = data.draw(st.integers(0, len(options) - 1))
            if edit == "drop":
                del options[i]
            else:
                options.append(options[i])
    argv = [command]
    for option, value in options:
        if option == "--d" and type(value) is int:
            value = min(value, 2)
        argv.append(option)
        if value is not None:
            argv.append({"FILE": str(valid),
                         "MISSING": str(tmp_path / "missing.json")}.get(
                             value, str(value)))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        assert sum("error:" in line for line in err.splitlines()) == 1, \
            (argv, err)


class TestCover:
    def test_summary(self):
        # class covers, the (3,6) one with every crossing found in its
        # target fiber; and the empty fiber of h_12 e_2 on (2,14), found
        # before a facet is listed: facets refuses the 11!/2 facets of
        # r = 12.  Warnings are errors in these runs.
        for d, n, shape, summary in [
                (2, 4, "1;1;1;1", "6 nodes, 6 edges, 1 components"),
                (2, 5, "2;1;1;1;1", "36 nodes, 90 edges, 1 components"),
                (3, 6, "2;1;2;1;2;1", "360 nodes, 1620 edges, 1 components"),
                (2, 14, "12;1,1;" + ";".join(["1"] * 10),
                 "0 nodes, 0 edges, 0 components")]:
            code, out, err, seconds = _run_capped(
                "cover", "--d", str(d), "--n", str(n), "--shape", shape,
                "--format", "text", flags=DEV_FLAGS)
            assert (code, out, err) == (0, summary + "\n", "")
            assert seconds < 60

    def test_dot(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, _, err = run(capsys, "cover", "--d", "2", "--n", "4",
                           "--shape", "1;1;1;1", "--format", "dot",
                           "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph cover {") and text.rstrip().endswith("}")
        assert "6 nodes" in err

    def test_size_mismatch_note(self):
        # the empty graph at once, before any work bound, as enumerate
        # lists no diagrams
        for d, n, shape in [(2, 5, "2;1;1"), (1, 9999, "1;1;1"),
                            (2, 4, ";".join(["1"] * 10001))]:
            code, out, err, seconds = _run_capped(
                "cover", "--d", str(d), "--n", str(n), "--shape", shape)
            assert (code, out) == (0, "0 nodes, 0 edges, 0 components\n")
            assert err == (f"note: no diagrams, the sizes must satisfy sum "
                           f"|lam_i| = d(n-d) = {d * (n - d)}\n")
            assert seconds < 5

    @staticmethod
    def refusal(d, n, boxes):
        """The line that refuses the cover of boxes single boxes on (d,n):
        (r-1)!/2 facets, a fiber of the rectangle's tableaux over each
        (the hook-length formula: box (i, j) of the d x (n-d) rectangle
        has hook length (d - i) + (n - d - j) - 1), r(r-3)/2 walls per
        node."""
        hooks = math.prod(d - i + n - d - j - 1
                          for i in range(d) for j in range(n - d))
        nodes = (math.factorial(boxes - 1) // 2
                 * (math.factorial(boxes) // hooks))
        edges = nodes * boxes * (boxes - 3) // 4
        assert edges > MAX_COVER_EDGES
        return (f"error: the cover graph would have {nodes} nodes and "
                f"{edges} edges, over the bound of {MAX_COVER_EDGES} edges\n")

    @pytest.mark.parametrize("d,n,boxes", [(3, 6, 9), (2, 30, 56)],
                             ids=["36-1^9", "2-30-1^56"])
    def test_work_bound(self, tmp_path, d, n, boxes):
        # refused before --out is opened, and at once
        assert self.refused_in_a_fresh_process(tmp_path, d, n, boxes) < 1

    def refused_in_a_fresh_process(self, tmp_path, d, n, boxes):
        """Run the cover of boxes single boxes on (d,n) in a new process,
        with no cache filled by an earlier test, and check its refusal;
        returns the seconds it took."""
        target = tmp_path / "cover.json"
        code, out, err, seconds = _run_capped(
            "cover", "--d", str(d), "--n", str(n),
            "--shape", ";".join(["1"] * boxes),
            "--format", "json", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == self.refusal(d, n, boxes)
        assert not target.exists()
        return seconds

    def test_work_bound_in_a_fresh_process(self, tmp_path):
        # the fiber of single boxes is one hook-length product, so no walk
        # visits the 18,564 partitions of the 6 x 12 box
        assert self.refused_in_a_fresh_process(tmp_path, 6, 18, 72) < 15

    def test_work_bound_on_98_boxes_in_a_fresh_process(self, tmp_path):
        # the 7 x 14 box holds 116,280 partitions; a fiber counted over
        # them took tens of seconds and hundreds of megabytes
        assert self.refused_in_a_fresh_process(tmp_path, 7, 21, 98) < 5

    def test_mixed_work_bound_in_a_fresh_process(self, tmp_path):
        # 18 dominoes and 36 boxes on (6,18): one walk of the dominoes in
        # the 6 x 12 box gives their coefficient on every shape of 36
        # boxes; a walk per shape took about 44 s and 921 MB
        target = tmp_path / "cover.json"
        code, out, err, seconds = _run_capped(
            "cover", "--d", "6", "--n", "18",
            "--shape", ";".join(["2"] * 18 + ["1"] * 36),
            "--format", "json", "--out", str(target))
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == MIXED_6_18
        assert not target.exists()


# the refusal of 18 dominoes and 36 boxes on (6,18), as the walk of one
# coefficient per shape printed it
MIXED_6_18 = (
    "error: the cover graph would have "
    "30924733244354236052123746201570830928180578278439896752922637905835"
    "523068003152575479152640000000000000 nodes and "
    "21291678838737891521887199259781517094052328144705868914387236198167"
    "757632320170548217396592640000000000000 edges, over the bound of "
    "2000000 edges\n")


# conditions wider or taller than the d x (n-d) box, and parts that are
# not weakly decreasing
UNFIT = [("cover", "2", "5", "4;1;1"), ("cover", "2", "5", "1,1,1;1;1;1"),
         ("enumerate", "2", "5", "4;1;1"),
         ("enumerate", "2", "5", "1,1,1;1;1;1"),
         ("enumerate", "2", "4", "1,2;1;1;1")]


@pytest.mark.parametrize("command,d,n,shape", UNFIT,
                         ids=[f"{c}-{s}" for c, _, _, s in UNFIT])
def test_condition_outside_the_frame(capsys, command, d, n, shape):
    code, out, err = run(capsys, command, "--d", d, "--n", n,
                         "--shape", shape, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cover", "enumerate"])
def test_condition_outside_the_frame_is_named(capsys, command):
    # by its 1-based index in the shape as written, as an empty one is
    code, out, err = run(capsys, command, "--d", "2", "--n", "4",
                         "--shape", "1;1;1;3")
    assert (code, out) == (2, "")
    assert err == ("error: condition 4 of '1;1;1;3' does not fit the "
                   "2 x 2 box of d = 2, n = 4\n")


# a condition of no boxes, first or last, as 0 or 0,0
EMPTY_CONDITION = [(command, shape) for command in ("enumerate", "cover")
                   for shape in ("0;2;1;1", "2;1;1;0", "0,0;2;1;1",
                                 "2;1;1;0,0", "0;1;1;1;1")]


@pytest.mark.parametrize("command,shape", EMPTY_CONDITION,
                         ids=[f"{c}-{s}" for c, s in EMPTY_CONDITION])
def test_empty_condition(command, shape):
    code, out, err, _ = _run_capped(command, "--d", "2", "--n", "4",
                                    "--shape", shape, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty" in err


@pytest.mark.parametrize("command", [
    "cover --d 2 --n 4 --shape 1;1;1;1 --format json",
    "enumerate --d 2 --n 4 --format json",
    "verify --only conic",
    "wallcross --input {fine} --wall 1,3 --twice --format json"],
    ids=["cover", "enumerate", "verify", "wallcross"])
def test_unwritable_out(tmp_path, command):
    # the output is opened before any work, so nothing else is reported
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps(cgd_enumerate(Frame(2, 5))[0].to_json()))
    target = tmp_path / "missing" / "x"
    code, out, err, _ = _run_capped(*command.format(fine=fine).split(),
                                    "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and not target.parent.exists()


def test_malformed_input_leaves_out(tmp_path, capsys):
    # the input is read and the wall parsed before --out is opened
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    target = tmp_path / "x"
    code, out, err = run(capsys, "wallcross", "--input", str(bad),
                         "--wall", "1,3", "--out", str(target))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: malformed diagram") and not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
def test_full_out(capsys):
    code, out, err = run(capsys, "enumerate", "--d", "2", "--n", "5",
                         "--format", "json", "--out", "/dev/full")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1


# inputs whose work bound passes on the diagram count alone, and the
# start of the line that refuses each: 999 dominoes and a box in one row,
# one fine diagram of 99,970,002 entries, listed as itself or restricted
# to three classes, and one diagram of 640,800 entries of 800 parts each
FINE_9999 = ("error: each fine diagram of the frame would have 99970002 "
             "entries, over the bound of 10000000 entries for one diagram\n")
THIN_REFUSALS = {
    "dominoes": (("cover", "--d", "1", "--n", "2000", "--shape",
                  ";".join(["2"] * 999 + ["1"])),
                 "error: the cover graph would have "),
    "1-9999": (("enumerate", "--d", "1", "--n", "9999"), FINE_9999),
    "1-9999-classes": (("enumerate", "--d", "1", "--n", "9999", "--shape",
                        "9000;997;1"), FINE_9999),
    "1-9999-cover": (("cover", "--d", "1", "--n", "9999", "--shape",
                      "9000;997;1"), FINE_9999),
    "800-801": (("enumerate", "--d", "800", "--n", "801"),
                "error: the enumeration would write 1 diagrams of 640800 "
                "entries of up to 800 parts, 512640000 parts in all, over "
                "the bound of 100000000 parts\n"),
}


class TestThinInputs:
    """Frames and conditions whose lattice walks are a thousand levels
    deep: each lists its diagram or is refused at once, and none ends in
    a traceback."""

    def test_thin_frame(self):
        # (1,1000): one diagram of 999,000 entries, grown from the one
        # tableau of a row of 999 boxes
        code, _, err, seconds = _run_capped("enumerate", "--d", "1",
                                            "--n", "1000", "--format", "text")
        assert (code, err) == (0, "1 diagrams\n") and seconds < 30

    def test_long_condition(self):
        # a condition of 1,000 boxes: its tableau, its Littlewood-Richardson
        # filling and its class are a thousand steps long
        argv = ("--d", "1", "--n", "1100", "--shape", "1000;98;1",
                "--format", "text")
        assert _run_capped("cover", *argv)[:3] == \
            (0, "1 nodes, 0 edges, 1 components\n", "")
        code, _, err, _ = _run_capped("enumerate", *argv)
        assert (code, err) == (0, "1 diagrams\n")

    @pytest.mark.parametrize("argv,line", THIN_REFUSALS.values(),
                             ids=THIN_REFUSALS)
    def test_refused_at_once(self, tmp_path, argv, line):
        target = tmp_path / "out.txt"
        code, out, err, seconds = _run_capped(*argv, "--out", str(target))
        assert seconds < 1
        assert (code, out) == (2, "")
        assert err.startswith(line) and err.count("\n") == 1, err[:200]
        assert err.endswith("\n")
        assert not target.exists()

    def test_count_past_the_digit_limit(self, tmp_path):
        # 1,580 dominoes and a box in one row: 1580!/2 nodes, more digits
        # than Python converts to text, named by their number of digits
        target = tmp_path / "out.txt"
        code, out, err, seconds = _run_capped(
            "cover", "--d", "1", "--n", "3162",
            "--shape", ";".join(["2"] * 1580 + ["1"]),
            "--out", str(target))
        assert seconds < 1
        assert (code, out) == (2, "")
        assert err == ("error: the cover graph would have a number of 4370 "
                       "digits nodes and a number of 4376 digits edges, over "
                       "the bound of 2000000 edges\n")
        assert len(err.encode()) < 300
        assert not target.exists()

    def test_enumeration_count_past_the_digit_limit(self):
        # (56,112): the tableaux of the 56 x 56 box have 4,278 digits
        with pytest.raises(ValueError) as info:
            _enumeration_size(Frame(56, 112), None)
        assert str(info.value) == (
            "the enumeration would write a number of 4278 digits diagrams "
            "of 9837632 entries of up to 56 parts, a number of 4286 digits "
            "parts in all, over the bound of 100000000 parts")

    def test_parts_inside_the_bound(self):
        # (450,451) writes one diagram of 202,950 entries of 450 parts,
        # 91,327,500 parts; (4,8) and (3,9) write 26,138,112 and 89,791,416
        assert _enumeration_size(Frame(450, 451), None) == 1
        for d, n, parts in [(4, 8, 26138112), (3, 9, 89791416)]:
            r = d * (n - d)
            assert _enumeration_size(Frame(d, n), None) * r * (r + 1) * d \
                == parts <= MAX_ENUMERATE_ENTRIES


def d1_class_json(n: int, sizes) -> dict:
    """The JSON of the one class diagram of Frame(1, n) whose contents are
    rows of the given sizes, in closed form: row k holds the partial sums
    of the sizes rotated by k, and each class is the one chain of rows
    between its ends."""
    r = len(sizes)
    sums = [list(accumulate(sizes[k:] + sizes[:k], initial=0))
            for k in range(r)]

    def chain(lo, hi):
        return [[m] if m else [] for m in range(lo, hi + 1)]

    return {"frame": {"d": 1, "n": n}, "r": r,
            "shape": [[size] for size in sizes],
            "rows": [[[m] if m else [] for m in row] for row in sums],
            "a": [[chain(row[m], row[m + 1]) for m in range(r)]
                  for row in sums],
            "b": [[chain(sums[k][m], sums[k - 1][m + 1]) for m in range(r)]
                  for k in range(r)]}


class TestFineBound:
    """The solver refuses a frame whose fine diagrams are past
    MAX_DIAGRAM_ENTRIES, on every path into it: the commands check the
    frame before --out is opened, the file reader as soon as the frame is
    read, and every solve as it starts."""

    @pytest.mark.parametrize("n,sizes", [
        (7, [3, 1, 1, 1]), (7, [1, 2, 1, 2]), (7, [2, 2, 2]),
        (6, [1, 1, 1, 1, 1]),
    ])
    def test_d1_class_json(self, n, sizes):
        fiber = decgd_enumerate(Frame(1, n), [(size,) for size in sizes])
        assert [json.loads(json.dumps(g.to_json())) for g in fiber] == \
            [d1_class_json(n, sizes)]

    @pytest.mark.parametrize("n", [5001, 3301])
    def test_wallcross_refused_at_once(self, tmp_path, n):
        # a genuine file of four conditions, of 312 KB on (1,5001): with
        # no bound, the one solve of (1,5001) ended in a MemoryError
        # traceback under the cap, and (1,3301) ran 33 s
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d1_class_json(n, [n - 4, 1, 1, 1])))
        target = tmp_path / "out.json"
        code, out, err, seconds = _run_capped(
            "wallcross", "--input", str(path), "--wall", "1,2",
            "--out", str(target))
        assert seconds < 2
        assert (code, out) == (2, "")
        assert err == f"error: malformed diagram in {path}: " \
            f"{fine_refusal((n - 1) * n)}\n"
        assert not target.exists()

    def test_solver_refuses_at_once(self):
        # cgd_from_path on the row chain of (1,5001), run as a script in
        # place of the program: -c ends the interpreter's options, so the
        # program's arguments after it are only the script's argv
        script = ("from growth.cylgrowth import cgd_from_path, row_path\n"
                  "from growth.partitions import Frame\n"
                  "chain = [()] + [(m,) for m in range(1, 5001)]\n"
                  "try:\n"
                  "    cgd_from_path(row_path(5000), chain, Frame(1, 5001))\n"
                  "except ValueError as exc:\n"
                  "    print(exc)\n")
        code, out, err, seconds = _run_capped(flags=("-c", script))
        assert seconds < 2
        assert (code, out, err) == (0, fine_refusal(5000 * 5001) + "\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
def test_full_stdout():
    with open("/dev/full", "w") as full:
        proc = _spawn("enumerate", "--d", "2", "--n", "5", "--format",
                      "json", stdout=full)
        err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: No space left on device\n"


def entry_text(diagram):
    """The text format: a line per row, each entry's parts joined by
    commas, "." for the empty partition."""
    return "\n".join(" ".join(",".join(map(str, p)) or "." for p in row)
                     for row in diagram.rows)


@pytest.mark.parametrize("argv,diagrams", [
    (("--d", "3", "--n", "6"), lambda: cgd_enumerate(Frame(3, 6))),
    (("--d", "2", "--n", "5", "--shape", "2;1;1;1;1"),
     lambda: decgd_enumerate(Frame(2, 5), [(2,), (1,), (1,), (1,), (1,)]))],
    ids=["36", "25-2;1^4"])
def test_text_renders_every_entry(capsys, argv, diagrams):
    code, out, _ = run(capsys, "enumerate", *argv, "--format", "text")
    assert code == 0
    assert out == "\n".join(entry_text(g) + "\n" for g in diagrams())


def test_reader_closes_stdout():
    # `| head`: the output ends quietly, and the run still succeeds
    proc = _spawn("cover", "--d", "2", "--n", "5", "--shape",
                  "1;1;1;1;1;1", "--format", "json",
                  stdout=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "edges'
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 0
    assert err == "300 nodes, 1350 edges, 1 components\n"


OUT_COMMANDS = ["cover --d 2 --n 4 --shape 1;1;1;1 --format json",
                "cover --d 2 --n 4 --shape 1;1;1;1 --format dot",
                "enumerate --d 2 --n 4 --format json",
                "enumerate --d 3 --n 7 --format json"]


@pytest.mark.parametrize("command", OUT_COMMANDS,
                         ids=["cover-json", "cover-dot", "enumerate-json",
                              "enumerate-37-json"])
def test_out_matches_stdout(tmp_path, command):
    # --out writes exactly the bytes that stdout gets, and nothing to stdout
    code, printed, _, _ = _run_capped(*command.split())
    assert code == 0
    target = tmp_path / "out"
    assert _run_capped(*command.split(), "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == printed.encode()


def _references(*workloads):
    return [(workload, command) for workload in workloads
            for command in REFERENCES[workload]]


def _output_digest(tmp_path, capsys, command):
    target = tmp_path / "out.json"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    return hashlib.sha256(target.read_bytes()).hexdigest()


COVER_REFERENCES = _references("cover-box6", "cover-mixed5")
ENUMERATE_REFERENCES = _references("enumerate-3x4", "smoke-enumerate")


@pytest.mark.parametrize("workload,command", COVER_REFERENCES,
                         ids=[f"{w}-{c.split()[6]}"
                              for w, c in COVER_REFERENCES])
def test_cover_reference_digest(tmp_path, capsys, workload, command):
    # the benchmark's cover inputs reproduce their recorded output bytes
    assert _output_digest(tmp_path, capsys, command) == \
        REFERENCES[workload][command]


@pytest.mark.parametrize("workload,command", ENUMERATE_REFERENCES,
                         ids=[w for w, _ in ENUMERATE_REFERENCES])
def test_enumerate_reference_digest(tmp_path, capsys, workload, command):
    # the benchmark's enumerate inputs reproduce their recorded output bytes
    assert _output_digest(tmp_path, capsys, command) == \
        REFERENCES[workload][command]


ALL_REFERENCES = _references(*REFERENCES)


@pytest.mark.parametrize("workload,command", ALL_REFERENCES,
                         ids=[f"{w}-{c.split()[6]}" if w == "cover-mixed5"
                              else w for w, c in ALL_REFERENCES])
def test_reference_digest_as_the_program(workload, command):
    # run as the program, main freezes the collector as it returns: the
    # output is complete by then, so every recorded digest holds
    proc = _spawn(*command.split(), stdout=subprocess.PIPE, flags=DEV_FLAGS)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    if workload == "verify":
        out = re.sub(rb" \(\d+\.\d+s\)", b"", out)
    assert hashlib.sha256(out).hexdigest() == REFERENCES[workload][command]


def test_program_freezes_the_collector():
    code = ("import gc, sys; from growth.cli import main; "
            "sys.argv[1:] = ['enumerate', '--d', '2', '--n', '4']; "
            "frozen = gc.get_freeze_count(); code = main(); "
            "print(frozen, gc.get_freeze_count(), code, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                           / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    # the last line of stderr, after the command's count of diagrams
    frozen, after, exit_code = map(int, run.stderr.splitlines()[-1].split())
    assert (frozen, exit_code) == (0, 0) and after > 0


@pytest.mark.parametrize("argv", [
    ["enumerate", "--d", "2", "--n", "4"],
    ["enumerate", "--d", "2", "--n", "1"],
    ["verify", "--only", "algebra"]], ids=["done", "usage", "argparse"])
def test_library_call_leaves_the_collector(capsys, argv):
    before = gc.get_freeze_count(), gc.isenabled()
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


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

    def test_text_digest(self, capsys):
        # the default output, timings removed, is the benchmark's reference
        code, out, _ = run(capsys, "verify")
        assert code == 0
        text = re.sub(r" \(\d+\.\d+s\)", "", out).encode()
        want = REFERENCES["verify"]["verify"]
        assert hashlib.sha256(text).hexdigest() == want

    def test_json_records(self):
        # one suite, and all nine checks
        conic = ["conic-g24", "six-point", "flag6"]
        for only, names in [(["--only", "conic"], conic),
                            ([], ["figure-growth", "figure-wall", "counts",
                                  "decgd-counts", *conic, "cover-r4",
                                  "properties"])]:
            code, out, err, _ = _run_capped("verify", *only, "--format",
                                            "json")
            assert (code, err) == (0, f"all {len(names)} checks passed\n")
            records = json.loads(out)
            assert [r["name"] for r in records] == names
            for record in records:
                assert set(record) == {"name", "suite", "ok", "detail",
                                       "seconds"}
                assert record["suite"] == ("conic" if record["name"] in conic
                                           else "growth")
                assert record["ok"] is True and record["seconds"] >= 0

    def test_dot_format_rejected(self):
        # only cover writes dot
        for argv in (["verify"], ["enumerate", "--d", "2", "--n", "4"]):
            code, out, err, _ = _run_capped(*argv, "--format", "dot")
            assert (code, out) == (2, "")
            assert "argument --format: invalid choice" in err

    def test_suites_match_checks(self):
        import growth.checks
        import growth.cli
        assert growth.cli.SUITES == growth.checks.SUITES

    def test_checks_imported_by_verify_only(self):
        # the other commands start without the checks, the conic and the
        # goldens, and import the class diagrams and the cover only in
        # the handlers that use them
        code = ("import sys, growth.cli; "
                "sys.exit(any(m in sys.modules for m in ("
                "'growth.checks', 'growth.decgd', 'growth.moduli')))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                               / "src")}
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0

    def test_no_dataclasses_at_start(self):
        # the value classes are not dataclasses: importing dataclasses (and
        # inspect, ast and dis with it) would cost every command more than
        # many spend on their work.  The checks may bring inspect, through
        # the importlib.resources that reads their packaged reference
        # diagrams, on Python 3.12 and later.  The diagram file reader is
        # wallcross's alone, so no other command compiles it.
        code = ("import sys, growth.cli, growth.moduli; "
                "late = {'dataclasses', 'inspect', 'growth.jsonin'} "
                "& set(sys.modules); "
                "import growth.checks; "
                "late |= {'dataclasses', 'growth.jsonin'} & set(sys.modules); "
                "sys.exit(f'imported: {sorted(late)}' if late else 0)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                               / "src")}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, "")

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--only", "algebra"])

