"""Transposition as a free oracle for both enumerations.  Conjugating every
entry of a fine diagram of Frame(d, n) gives a diagram of Frame(n - d, n):
the local rule, the glide complement and the anchors commute with
conjugation.  Dual equivalence commutes with it too (Haiman 1992), so
conjugating each class representative of a class diagram gives a class
diagram of the conjugate contents.  Both maps must take a fiber one to
one onto the fiber on the other side."""

import pytest

from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.decgd import Decgd, decgd_enumerate
from growth.partitions import Frame
from growth.tableaux import DualClass
from test_moduli import COVER_CASES


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
