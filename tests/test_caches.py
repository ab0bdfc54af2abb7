"""Differential tests for the memoized partition kernels: on every
argument drawn from two frames, each cached function returns what its
uncached body (``fn.__wrapped__``) returns, or raises the same error.
The numbered tables of a frame, which the growth solver and diagram
validation read, must agree with the tuple kernels they are built from."""

from itertools import combinations_with_replacement, product

import pytest

from growth.cylgrowth import _numbering
from growth.partitions import (
    Frame, _fiber_size, _intermediates, _shapes_between, added_box,
    complement, contains, intermediates, is_domino, partitions_in,
)
from growth.tableaux import other_middle

FRAMES = [Frame(3, 7), Frame(2, 6)]
PAIR_KERNELS = [contains, added_box, _intermediates, is_domino]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_matches_body(fn, argument_tuples):
    for args in argument_tuples:
        want = outcome(fn.__wrapped__, *args)
        # the first call may fill the cache, the second is served from it
        assert outcome(fn, *args) == want, (fn.__name__, args)
        assert outcome(fn, *args) == want, (fn.__name__, args)


@pytest.mark.parametrize("frame", FRAMES, ids=str)
@pytest.mark.parametrize("fn", PAIR_KERNELS, ids=lambda fn: fn.__name__)
def test_pair_kernel(fn, frame):
    parts = partitions_in(frame)
    assert_matches_body(fn, product(parts, repeat=2))


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_complement_and_shapes_between(frame):
    parts = partitions_in(frame)
    assert_matches_body(complement, ((lam, frame) for lam in parts))
    assert_matches_body(_shapes_between,
                        product(parts, parts, range(frame.size + 2)))


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_fiber_size(frame):
    # three conditions, as at a vertex of a boundary tree; most of them
    # miss the frame's size
    assert_matches_body(_fiber_size, (
        (frame, shape) for shape in
        combinations_with_replacement(partitions_in(frame), 3)))


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_other_middle(frame):
    assert_matches_body(other_middle,
                        product(partitions_in(frame), repeat=3))


def test_some_pairs_raise():
    # the error path is exercised: not every pair is a two-box skew
    assert outcome(_intermediates, (), (1,))[0] is ValueError
    assert outcome(other_middle, (), (2,), (2,))[0] is ValueError


def test_intermediates_returns_a_fresh_list():
    mids = intermediates((1,), (2, 1))
    mids.append((9,))
    mids.reverse()
    assert intermediates((1,), (2, 1)) == [(2,), (1, 1)]


TABLE_FRAMES = [Frame(d, n) for n in range(2, 8)
                for d in range(1, min(n, 4))] + [Frame(4, 8)]


@pytest.mark.parametrize("frame", TABLE_FRAMES, ids=str)
def test_frame_table(frame):
    table = _numbering(frame)
    parts = table.parts
    num = table.index.__getitem__
    assert parts == partitions_in(frame)
    assert list(map(num, parts)) == list(range(len(parts)))
    assert [parts[c] for c in table.comp] == [complement(p, frame)
                                              for p in parts]
    assert table.anchors == tuple(map(num, (
        (), (1,), complement((1,), frame), frame.rectangle())))
    assert table.steps == {(i, j) for (i, p), (j, q)
                           in product(enumerate(parts), repeat=2)
                           if added_box(p, q) is not None}
    # unit squares from the cover steps: the middles are the shapes one
    # step above the bottom and one step below the top, equal only under
    # a domino
    up = {i: {j for s, j in table.steps if s == i} for i in range(len(parts))}
    squares = set()
    for b in up:
        for t in {t for m in up[b] for t in up[m]}:
            mids = {m for m in up[b] if t in up[m]}
            assert mids == set(map(num, intermediates(parts[b], parts[t])))
            domino = is_domino(parts[b], parts[t])
            assert domino == (len(mids) == 1)
            squares |= {(b, x, y, t) for x in mids for y in mids
                        if x != y or domino}
    assert table.squares == squares


@pytest.mark.parametrize("frame", TABLE_FRAMES, ids=str)
def test_frame_table_local_rule(frame):
    # every (bottom, top, middle) of a unit square: these are all the
    # inputs on which the kernel returns, so the memo then holds nothing
    # unchecked
    table = _numbering(frame)
    parts = table.parts
    keys = {(b, t, x) for b, x, _, t in table.squares}
    for b, t, x in keys:
        assert parts[table.other(b, t, x)] == \
            other_middle(parts[b], parts[t], parts[x])
    assert table.other.cache_info().currsize == len(keys)
    # off a square the kernel's error comes through with its text
    with pytest.raises(ValueError) as new:
        table.other(0, 0, 0)
    with pytest.raises(ValueError) as ref:
        other_middle((), (), ())
    assert str(new.value) == str(ref.value)
