"""Transposition as a free oracle for both enumerations.  Conjugating every
entry of a fine diagram of Frame(d, n) gives a diagram of Frame(n - d, n):
the local rule, the glide complement and the anchors commute with
conjugation.  Dual equivalence commutes with it too (Haiman 1992), so
conjugating each class representative of a class diagram gives a class
diagram of the conjugate contents.  Both maps must take a fiber one to
one onto the fiber on the other side, and commute with wall crossing.
The counts of both sides agree, and the lattice walks under them
(``_shapes_between``, ``enumerate_chains``) give the conjugates of each
other's results."""

from functools import cache

import pytest

from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.decgd import Decgd, decgd_enumerate
from growth.moduli import (
    all_trees, cover_size, cross_cgd, cross_decgd, fiber_count, walls)
from growth.partitions import (
    Frame, _shapes_between, contains, fiber_size, partitions_in)
from growth.tableaux import DualClass, enumerate_chains
from test_moduli import COVER_CASES


@cache
def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose of a partition: its column lengths."""
    return tuple(sum(part > i for part in lam)
                 for i in range(lam[0] if lam else 0))


def conjugate_class(cls: DualClass) -> DualClass:
    return DualClass.of(tuple(map(conjugate, cls.representative)))


def transpose(g):
    """A fine diagram with every entry conjugated, or a class diagram with
    every class representative conjugated, in the transposed frame."""
    frame = Frame(g.frame.cols, g.frame.n)
    if isinstance(g, CylGrowthDiagram):
        return CylGrowthDiagram(frame, g.r, tuple(
            tuple(map(conjugate, row)) for row in g.rows))
    return Decgd(frame, g.r, *(
        tuple(tuple(map(conjugate_class, row)) for row in table)
        for table in (g.a, g.b)))


def assert_onto(diagrams, targets):
    images = [transpose(g) for g in diagrams]
    assert len(set(images)) == len(images) == len(targets)
    assert set(images) == set(targets)


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2, 2)) == (3, 3)
    assert all(conjugate(conjugate(lam)) == lam
               for lam in [(1,), (4, 2, 2, 1), (5, 5, 3)])


@pytest.mark.parametrize("frame", [
    Frame(2, 5), Frame(2, 6), Frame(3, 6), Frame(2, 7), Frame(3, 7),
], ids=str)
def test_fine_fibers_correspond(frame):
    assert_onto(cgd_enumerate(frame),
                cgd_enumerate(Frame(frame.cols, frame.n)))


BOX, DOMINO, COLUMN, HOOK = (1,), (2,), (1, 1), (2, 1)
CLASS_CASES = COVER_CASES + [
    (Frame(2, 5), (HOOK, BOX, BOX, BOX)),
    (Frame(2, 6), (COLUMN, DOMINO, BOX, BOX, BOX, BOX)),
    (Frame(2, 6), (DOMINO, BOX, DOMINO, BOX, BOX, BOX)),
    (Frame(2, 6), ((3,), BOX, DOMINO, BOX, BOX)),
    (Frame(3, 6), (HOOK, BOX, DOMINO, COLUMN, BOX)),
    (Frame(3, 7), (DOMINO, DOMINO, BOX, BOX) * 2),
]


@pytest.mark.parametrize("frame,shape", CLASS_CASES, ids=str)
def test_class_fibers_correspond(frame, shape):
    fiber = decgd_enumerate(frame, shape)
    assert fiber
    assert_onto(fiber, decgd_enumerate(Frame(frame.cols, frame.n),
                                       [conjugate(lam) for lam in shape]))


@pytest.mark.parametrize("frame", [Frame(2, 5), Frame(2, 6), Frame(3, 6)],
                         ids=str)
def test_fine_crossings_transpose(frame):
    # the wallcross output of a transposed diagram is the transposed
    # output, on every wall
    for g in cgd_enumerate(frame):
        for wall in walls(g.r):
            assert cross_cgd(transpose(g), wall) == \
                transpose(cross_cgd(g, wall)), (g.rows[0], wall)


@pytest.mark.parametrize("frame,shape", [
    (Frame(2, 6), (DOMINO, DOMINO, DOMINO, BOX, BOX)),
    (Frame(2, 6), (DOMINO, COLUMN, BOX, BOX, BOX, BOX)),
    (Frame(3, 6), (HOOK,) + (BOX,) * 6),
], ids=str)
def test_class_crossings_transpose(frame, shape):
    fiber = decgd_enumerate(frame, shape)
    assert fiber
    for d in fiber:
        for wall in walls(d.r):
            assert cross_decgd(transpose(d), wall) == \
                transpose(cross_decgd(d, wall)), (d.a[0], wall)


# the shapes whose fiber counts the properties check sums over every tree
TREE_CASES = [
    (Frame(2, 4), (BOX,) * 4), (Frame(2, 4), (DOMINO, BOX, BOX)),
    (Frame(2, 5), (DOMINO, BOX, BOX, BOX, BOX)),
    (Frame(2, 5), (DOMINO, DOMINO, BOX, BOX)),
    (Frame(2, 5), (COLUMN, DOMINO, BOX, BOX)),
]


@pytest.mark.parametrize("frame,shape", COVER_CASES + TREE_CASES, ids=str)
def test_counts_correspond(frame, shape):
    other = Frame(frame.cols, frame.n), tuple(map(conjugate, shape))
    assert fiber_size(frame, shape) == fiber_size(*other) > 0
    assert cover_size(frame, shape) == cover_size(*other)
    for tree in all_trees(len(shape)):
        assert fiber_count(tree, shape, frame) == \
            fiber_count(tree, other[1], other[0]), tree


@pytest.mark.parametrize("frame", [Frame(2, 6), Frame(3, 6), Frame(1, 60)],
                         ids=str)
def test_walks_correspond(frame):
    # every pair of the frame's box, also those where outer does not
    # contain inner; on the thin frame (1,60), whose conjugate is (59,60),
    # the sizes |inner|, |outer| and one between, since a walk down a
    # column of 59 rows copies its prefixes, and all 36,000 sizes would
    # take seconds
    box = partitions_in(frame)
    for inner in box:
        for outer in box:
            low, high = sum(inner), sum(outer)
            sizes = (range(low, high + 1) if frame.d > 1 else
                     {low, (low + high) // 2, high})
            if not contains(outer, inner):
                sizes = [high]
            for size in sizes:
                assert {conjugate(nu) for nu in _shapes_between.__wrapped__(
                    inner, outer, size)} == set(_shapes_between.__wrapped__(
                        conjugate(inner), conjugate(outer), size)), \
                    (inner, outer, size)
            assert {tuple(map(conjugate, chain))
                    for chain in enumerate_chains(outer, inner)} == \
                set(enumerate_chains(conjugate(outer), conjugate(inner))), \
                (inner, outer)
