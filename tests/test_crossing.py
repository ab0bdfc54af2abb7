"""Wall crossing against the triangle-seeded construction it replaced, and
its properties on random diagrams: an involution, the same node of the
cover from either side of the chord, valid, and an involution on class
diagrams too."""

import pytest
from hypothesis import given, settings, strategies as st

from growth.cylgrowth import _Completion, cgd_enumerate, cgd_from_path, \
    cgd_validate, row_path
from growth.decgd import restrict_cgd
from growth.moduli import (
    cross_cgd, cross_decgd, cross_facet, transport_cgd, walls,
)
from growth.partitions import Frame, covers
from test_decgd import decgd_validate


def reference_cross_cgd(g, wall):
    """The crossed diagram seeded with g on the whole triangle over the
    reversed interval and with g's short-diagonal reflection on the whole
    complementary triangle, then completed."""
    r = g.r
    a, b = wall.a, wall.b
    solver = _Completion(g.frame, r)
    for i in range(a, b + 2):
        for j in range(i, b + 2):
            solver.seed_point(i, j, g.get(i, j))
    for i in range(b + 1, a + r + 1):
        for j in range(i, a + r + 1):
            solver.seed_point(i, j, g.get(a + b + 1 - j, a + b + 1 - i))
    return solver.solve()


@pytest.mark.parametrize("frame", [Frame(2, 4), Frame(2, 5), Frame(2, 6),
                                   Frame(3, 5), Frame(3, 6)], ids=str)
def test_matches_reference(frame):
    for g in cgd_enumerate(frame):
        for w in walls(frame.size):
            assert cross_cgd(g, w) == reference_cross_cgd(g, w)


FRAMES = [Frame(2, 4), Frame(2, 5), Frame(2, 6), Frame(2, 7), Frame(3, 5),
          Frame(3, 6), Frame(3, 7)]


@st.composite
def crossings(draw):
    """A diagram grown from a random row-0 chain of a frame, and a wall."""
    frame = draw(st.sampled_from(FRAMES))
    chain = [()]
    while chain[-1] != frame.rectangle():
        chain.append(draw(st.sampled_from(covers(chain[-1], frame))))
    g = cgd_from_path(row_path(frame.size), chain, frame)
    return g, draw(st.sampled_from(walls(frame.size)))


@settings(max_examples=80, deadline=None)
@given(crossings())
def test_cross_cgd_properties(case):
    g, w = case
    crossed = cross_cgd(g, w)
    assert cross_cgd(crossed, w) == g
    # the two sides of the chord present the crossed diagram over orders
    # reflected from each other; both land on one node of the cover
    order = tuple(range(1, g.r + 1))
    facet, gmap = cross_facet(order, w.complementary())
    other_facet, other_gmap = cross_facet(order, w)
    assert other_facet == facet
    assert transport_cgd(cross_cgd(g, w.complementary()), other_gmap) == \
        transport_cgd(crossed, gmap)
    assert cgd_validate(crossed) == (True, [])
    assert crossed == reference_cross_cgd(g, w)


@settings(max_examples=80, deadline=None)
@given(crossings(), st.data())
def test_cross_decgd_properties(case, data):
    g, _ = case
    r = g.r
    # a composition of r into at least 4 blocks, by its cut points
    cuts = sorted(data.draw(st.sets(st.integers(1, r - 1), min_size=3)))
    sizes = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [r]))
    d = restrict_cgd(g, sizes)
    w = data.draw(st.sampled_from(walls(len(sizes))))
    crossed = cross_decgd(d, w)
    assert cross_decgd(crossed, w) == d
    ok, problems = decgd_validate(crossed)
    assert ok, problems
