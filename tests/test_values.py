"""The package's value classes against frozen dataclasses with the same
fields: the same repr, equality and hash, immutability, the same errors on
a wrong call, and pickle and copy round trips."""

import copy
import pickle
from dataclasses import make_dataclass

import pytest

from growth.conic import (
    ConicReport, DegenerateReport, EmptyReport, Monomial, four_point_solve,
)
from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.decgd import Decgd, decgd_enumerate
from growth.moduli import MonodromyGraph, Wall, build_cover_graph, walls
from growth.partitions import Frame, _Value, complement
from growth.tableaux import DualClass

F24, F25, F26 = Frame(2, 4), Frame(2, 5), Frame(2, 6)


def _values():
    """Up to three distinct values of each class, all from real runs."""
    classes = decgd_enumerate(F25, ((2,), (1,), (1,), (1,), (1,)))
    conic = [four_point_solve((1,), (1,), F24),
             four_point_solve((3, 1), (2,), F26)]
    return {
        Frame: [F24, F25, Frame(3, 7)],
        CylGrowthDiagram: cgd_enumerate(F25)[:3],
        Decgd: classes[:3],
        DualClass: list(dict.fromkeys(c for row in classes[0].a
                                      for c in row))[:3],
        Wall: walls(6)[:2] + [walls(6)[-1].complementary()],
        MonodromyGraph: [build_cover_graph(F24, ((1,),) * 4),
                         build_cover_graph(F25, ((2,),) + ((1,),) * 4)],
        Monomial: [m for _, m in conic[0].pluecker][:3],
        EmptyReport: [four_point_solve((4,), (1, 1), F26),
                      four_point_solve((5,), (2, 1), Frame(2, 7))],
        DegenerateReport: [four_point_solve((2,), (), F24),
                           four_point_solve((1, 1), (), F24)],
        ConicReport: conic,
    }


VALUES = _values()
CLASSES = list(VALUES)


def fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


def holding(cls, values):
    """An instance of cls with these field values, made without its
    __init__."""
    value = object.__new__(cls)
    for name, x in zip(cls.__slots__, values):
        object.__setattr__(value, name, x)
    return value


def twins(values):
    """The values as instances of one frozen dataclass with their class's
    name and fields."""
    cls = type(values[0])
    twin = make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return [twin(*fields(v)) for v in values]


def test_every_value_class():
    assert {cls for cls in _Value.__subclasses__()
            if cls.__module__.startswith("growth.")} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestSemantics:
    def test_distinct_samples(self, cls):
        values = VALUES[cls]
        assert len(values) >= 2 and len(set(map(fields, values))) == \
            len(values)
        assert all(type(v) is cls for v in values)

    def test_like_a_frozen_dataclass(self, cls):
        # with an equal value that is another object
        values = VALUES[cls] + [cls(*fields(VALUES[cls][0]))]
        twin = twins(values)
        for v, t in zip(values, twin):
            assert repr(v) == repr(t)
            assert hash(v) == hash(t) == hash(fields(v))
        same = [[x == y for y in values] for x in values]
        assert same == [[x == y for y in twin] for x in twin]
        assert same == [[not x != y for y in values] for x in values]

    def test_construction(self, cls):
        for v in VALUES[cls]:
            assert cls(*fields(v)) == v
            assert cls(**dict(zip(v.__slots__, fields(v)))) == v
            assert hash(cls(*fields(v))) == hash(v)

    def test_equal_only_within_one_class(self, cls):
        v = VALUES[cls][0]
        other = type("Other", (_Value,), {"__slots__": v.__slots__})
        # package classes with as many fields, and one more class
        for cls2 in [c for c in CLASSES if c is not cls and
                     len(c.__slots__) == len(v.__slots__)] + [other]:
            u = holding(cls2, fields(v))
            assert fields(u) == fields(v)
            assert u != v and v != u and not u == v
        assert v != fields(v)

    def test_immutable(self, cls):
        v = VALUES[cls][0]
        for name in v.__slots__:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert fields(v) == fields(VALUES[cls][0])

    def test_wrong_arity(self, cls):
        args = fields(VALUES[cls][0])
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, args[0])
        with pytest.raises(TypeError):
            cls()

    def test_round_trips(self, cls):
        for v in VALUES[cls]:
            for copied in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                           copy.deepcopy(v)):
                assert type(copied) is cls
                assert copied == v and hash(copied) == hash(v)
                assert repr(copied) == repr(v)


def test_frame_error():
    with pytest.raises(ValueError) as exc:
        Frame(3, 2)
    assert str(exc.value) == "need 0 <= d <= n, got d=3, n=2"


def test_wall_error():
    with pytest.raises(ValueError) as exc:
        Wall(2, 2, 6)
    assert str(exc.value) == "reversed interval must have length 2..4, got 1"
    with pytest.raises(ValueError) as exc:
        Wall(0, 1, 6)
    assert str(exc.value) == "interval start must lie in [1, r]"


def test_error_message_repr():
    with pytest.raises(ValueError) as exc:
        complement((4,), F25)
    assert str(exc.value) == "(4,) does not fit in Frame(d=2, n=5)"
