"""Differential tests for the memoized partition kernels: on every
argument drawn from two frames, each cached function returns what its
uncached body (``fn.__wrapped__``) returns, or raises the same error."""

from itertools import product

import pytest

from growth.partitions import (
    Frame, _intermediates, add_box, added_box, complement, contains,
    intermediates, intersect, is_domino, partitions_in, union,
)
from growth.tableaux import other_middle

FRAMES = [Frame(3, 7), Frame(2, 6)]
PAIR_KERNELS = [contains, added_box, union, intersect, _intermediates,
                is_domino]


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
def test_complement_and_add_box(frame):
    parts = partitions_in(frame)
    assert_matches_body(complement, ((lam, frame) for lam in parts))
    assert_matches_body(add_box, product(parts, range(frame.d)))


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
