"""Differential tests of the streamed JSON writer against
json.dumps(value, indent=2, sort_keys=True) + "\\n", and JSON round trips
of diagrams."""

import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from growth.cli import main
from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.decgd import decgd_enumerate
from growth.jsonin import read_cgd, read_decgd
from growth.jsonout import JsonText, count_text, write_json
from growth.moduli import build_cover_graph
from growth.partitions import Frame
from test_moduli import graph_to_json

REFERENCES = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "references.json").read_text())
BOX = (1,)
F24 = Frame(2, 4)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(value) -> str:
    out = io.StringIO()
    write_json(value, out)
    return out.getvalue()


def _flag(args, name):
    return args[args.index(name) + 1]


def reference_data(command):
    """The JSON data behind a reference command's output, built without
    the writer."""
    args = command.split()
    frame = Frame(int(_flag(args, "--d")), int(_flag(args, "--n")))
    if args[0] == "enumerate":
        return [g.to_json() for g in cgd_enumerate(frame)]
    shape = [tuple(int(p) for p in lam.split(","))
             for lam in _flag(args, "--shape").split(";")]
    return graph_to_json(build_cover_graph(frame, shape))


JSON_REFERENCES = [command for workload, commands in REFERENCES.items()
                   if workload != "verify" for command in commands]


@pytest.mark.parametrize("command", JSON_REFERENCES)
def test_reference_inputs(tmp_path, capsys, command):
    target = tmp_path / "out.json"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8") == \
        dumps(reference_data(command))


ENUMERATE_FRAMES = [(2, n) for n in range(4, 9)] + [(3, n) for n in (5, 6, 7)]


@pytest.mark.parametrize("d,n", ENUMERATE_FRAMES,
                         ids=[f"{d}{n}" for d, n in ENUMERATE_FRAMES])
def test_enumerate_writes_json_dumps(tmp_path, capsys, d, n):
    # the per-diagram writer, on stdout and with --out, byte for byte
    want = dumps([g.to_json() for g in cgd_enumerate(Frame(d, n))])
    argv = ["enumerate", "--d", str(d), "--n", str(n), "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    target = tmp_path / "out.json"
    assert main(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == want.encode()


CLASS_ENUMERATIONS = [("2", "4", "1;1;1"), ("2", "4", "1;1;1;1"),
                      ("2", "5", "2;1;1;1;1"), ("2", "5", "1,1;2;1;1"),
                      ("3", "6", "2;1;2;1;2;1")]


@pytest.mark.parametrize("d,n,shape", CLASS_ENUMERATIONS,
                         ids=[f"{d}{n}-{s}" for d, n, s in CLASS_ENUMERATIONS])
def test_enumerate_class_diagrams(capsys, d, n, shape):
    frame = Frame(int(d), int(n))
    conditions = [tuple(map(int, lam.split(","))) for lam in shape.split(";")]
    diagrams = (decgd_enumerate(frame, conditions)
                if sum(map(sum, conditions)) == frame.size else [])
    assert main(["enumerate", "--d", d, "--n", n, "--shape", shape,
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == dumps([g.to_json() for g in diagrams])
    if not diagrams:
        assert out == "[]\n"


def test_enumerate_shared_and_unshared_rows(capsys, monkeypatch):
    # diagrams that share some row objects and partition objects, and
    # hold equal rows and partitions as distinct objects elsewhere
    # (tuple() of a tuple is that tuple, so the copies go through lists)
    first, second = cgd_enumerate(F24)
    fresh = tuple(tuple(tuple([*p]) for p in row) for row in second.rows)
    copied = tuple(tuple([*row]) for row in first.rows)
    assert copied[1] == first.rows[1] and copied[1] is not first.rows[1]
    assert fresh[2][2] == second.rows[2][2]
    assert fresh[2][2] is not second.rows[2][2]
    mixed = (first.rows[0], fresh[1], second.rows[2], copied[3])
    diagrams = [first, CylGrowthDiagram(F24, 4, mixed), second,
                CylGrowthDiagram(F24, 4, fresh), first,
                CylGrowthDiagram(F24, 4, copied)]
    monkeypatch.setattr("growth.cli.cgd_enumerate", lambda frame: diagrams)
    assert main(["enumerate", "--d", "2", "--n", "4", "--format", "json"]) \
        == 0
    assert capsys.readouterr().out == dumps([g.to_json() for g in diagrams])


def test_rows_rendered_once_without_a_call_per_partition(monkeypatch):
    # once its partitions are memoized, a row is joined from their texts,
    # and a row met again is one memo hit
    rows = [row for g in cgd_enumerate(Frame(3, 6)) for row in g.rows]
    text = JsonText()
    for part in {id(p): p for row in rows for p in row}.values():
        text(part, 4)
    calls = []
    render = JsonText.__call__

    def counted(self, value, depth=0):
        calls.append(value)
        return render(self, value, depth)

    monkeypatch.setattr(JsonText, "__call__", counted)
    for row in rows:
        assert text(row, 3) == at_depth(row, 3)
    assert len(calls) == len(rows)


def test_verify_records(capsys):
    # the records hold strings, bools and float seconds
    assert main(["verify", "--only", "conic", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == dumps(json.loads(out))


# Few distinct scalars, so that equal values of different types (1, True,
# 1.0) and repeated tuples meet within one value.
SCALARS = (st.integers(-2, 2) | st.booleans() | st.none()
           | st.sampled_from([1.0, 0.5, -0.0, 1e16, math.inf, -math.inf])
           | st.text(max_size=3)
           | st.sampled_from(["", "é", "☃", "\U0001f600", '"\\\n']))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=4)),
    max_leaves=30)


@given(VALUES)
def test_matches_json_dumps(value):
    assert written(value) == dumps(value)


@given(st.lists(st.lists(st.lists(st.integers(0, 2), max_size=2).map(tuple),
                         max_size=3).map(tuple), max_size=6))
def test_repeated_int_tuples(rows):
    # rows of partitions, as diagrams store them, with many repeats
    assert written({"rows": rows, "same": rows}) == \
        dumps({"rows": rows, "same": rows})


def at_depth(value, depth: int) -> str:
    """The text json.dumps gives value, nested depth levels deep."""
    return dumps(value)[:-1].replace("\n", "\n" + "  " * depth)


@given(st.data())
def test_shared_tuple_objects(data):
    # the memo is keyed by identity, so reuse one tuple object at many
    # places and depths, as diagrams reuse their partitions and rows
    parts = data.draw(st.lists(
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
        min_size=1, max_size=4))
    chains = data.draw(st.lists(
        st.lists(st.sampled_from(parts), max_size=3).map(tuple), max_size=3))
    pool = parts + chains + [(1,), (True,), (1.0,), ((1,),), ((True,),)]
    value = data.draw(st.recursive(
        st.sampled_from(pool) | SCALARS,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(st.text(max_size=2), inner,
                                         max_size=3)),
        max_leaves=20))
    assert written(value) == dumps(value)
    text = JsonText()
    for depth in (0, 2, 0, 1):
        assert text(value, depth) == at_depth(value, depth)
        assert [text(v, depth) for v in pool] == \
            [at_depth(v, depth) for v in pool]


def test_tuple_holding_a_mutated_list():
    items = [1]
    value = (items, (2,))
    text = JsonText()
    assert text(value) == at_depth(value, 0)
    items.append(3)
    assert text(value) == at_depth(value, 0)
    assert text([value]) == at_depth([value], 0)


def test_equal_tuples_of_other_types():
    # distinct objects that compare equal keep their own texts in one memo
    values = [(1,), (True,), (1.0,), ((1,),), ((True,),), ((1.0,),)]
    text = JsonText()
    for _ in range(2):
        for depth in (0, 1):
            assert [text(v, depth) for v in values] == \
                [at_depth(v, depth) for v in values]


TRAPS = [[(1,), (True,)], [(1,), (1.0,)], [(True,), (1,)], [(1.0,), (1,)],
         [((1,),), ((True,),)], [((1, 2), (1,)), ((1, 2), (1.0,))],
         [[1], [True]], [[1], [1.0]], [[[1]], [[True]]]]


@pytest.mark.parametrize("value", TRAPS, ids=repr)
def test_equal_values_of_other_types(value):
    assert written(value) == dumps(value)
    text = JsonText()
    assert [text(v) for v in value] == [dumps(v)[:-1] for v in value]


def test_non_string_key_refused():
    with pytest.raises(TypeError):
        written({1: 2})


def test_top_level_scalars_and_empties():
    for value in ([], (), {}, 0, "x", None, [[]], [{}], {"a": []}):
        assert written(value) == dumps(value)


ROUND_TRIPS = [(Frame(2, 4), None), (Frame(2, 5), None),
               (Frame(2, 4), (BOX,) * 4),
               (Frame(2, 5), ((2,), BOX, BOX, BOX, BOX)),
               (Frame(2, 5), ((1, 1), (2,), BOX, BOX))]


@pytest.mark.parametrize("frame,shape", ROUND_TRIPS,
                         ids=["24", "25", "24-1^4", "25-2;1^4", "25-11;2;1;1"])
def test_json_round_trip(frame, shape):
    if shape is None:
        diagrams, read = cgd_enumerate(frame), read_cgd
    else:
        diagrams, read = decgd_enumerate(frame, shape), read_decgd
    assert diagrams
    for diagram in diagrams:
        data = diagram.to_json()
        assert read(json.loads(json.dumps(data))) == diagram
        assert read(json.loads(written(data))) == diagram


def test_count_text():
    # exact digits on both sides of each power of ten up to 10^6000 and of
    # powers of two; counts of at most 1,000 digits are written out
    for k in range(1, 6000, 7):
        for count, digits in ((10 ** k - 1, k), (10 ** k, k + 1),
                              (10 ** k + 1, k + 1)):
            assert count_text(count) == (
                repr(count) if digits <= 1000
                else f"a number of {digits} digits"), count
    for bits in range(3330, 14000, 97):
        for count in (2 ** bits - 1, 2 ** bits):
            digits = len(repr(count))
            assert count_text(count) == f"a number of {digits} digits"
    assert count_text(0) == "0"


def test_count_text_ignores_the_conversion_limit():
    # the least limit an environment variable can set
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert count_text(10 ** 999 + 1) == "1" + "0" * 998 + "1"
        assert count_text(7 * 10 ** 5000) == "a number of 5001 digits"
    finally:
        sys.set_int_max_str_digits(limit)
