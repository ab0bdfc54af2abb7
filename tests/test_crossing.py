"""Wall crossing against the triangle-seeded construction it replaced, its
regrow keys against the reflection-and-glide formulas they replaced, its
action on rows against the partial Schützenberger involution, and its
properties on random diagrams: an involution, the same node of the cover
from either side of the chord, valid, and an involution on class diagrams
too.  A class crossing is the restriction of the fine crossing of a lift,
so the walls act on class diagrams as xi too."""

from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from growth import moduli
from growth.cylgrowth import (
    CylGrowthDiagram, cgd_enumerate, cgd_from_path,
    cgd_validate, row_path,
)
from growth.decgd import decgd_enumerate, restrict_cgd
from growth.moduli import (
    Wall, _key_paths, cross_cgd, cross_decgd, cross_facet, transport_cgd,
    walls,
)
from growth.partitions import Frame, complement, covers
from growth.tableaux import DualClass, enumerate_chains, rectify, shuffle
from test_completion_oracle import RefCompletion
from test_decgd import decgd_validate, lift_decgd
from test_moduli import COVER_CASES


def reference_cross_cgd(g, wall):
    """The crossed diagram seeded with g on the whole triangle over the
    reversed interval and with g's short-diagonal reflection on the whole
    complementary triangle, then completed."""
    r = g.r
    a, b = wall.a, wall.b
    solver = RefCompletion(g.frame, r)
    for i in range(a, b + 2):
        for j in range(i, b + 2):
            solver.seed_point(i, j, g.get(i, j))
    for i in range(b + 1, a + r + 1):
        for j in range(i, a + r + 1):
            solver.seed_point(i, j, g.get(a + b + 1 - j, a + b + 1 - i))
    return solver.solve()


def presentations(r):
    """Every presentation Wall(a, b, r) of every wall, wrapped ones (b > r)
    included."""
    return [Wall(a, a + length - 1, r) for a in range(1, r + 1)
            for length in range(2, r - 1)]


@pytest.mark.parametrize("frame", [Frame(2, 4), Frame(2, 5), Frame(2, 6),
                                   Frame(3, 5), Frame(3, 6)], ids=str)
def test_matches_reference(frame):
    # the regrow key drops b, so every presentation is checked up to r = 6
    r = frame.size
    for g in cgd_enumerate(frame):
        for w in presentations(r) if r <= 6 else walls(r):
            assert cross_cgd(g, w) == reference_cross_cgd(g, w)


def reference_cross_chain(g, wall):
    """The reflection of g's column a along row b+1, then the glide images
    (complements) of g's row a up column a+r."""
    a, b, r = wall.a, wall.b, g.r
    return (tuple(g.get(a + b + 1 - j, a) for j in range(b + 1, a + r + 1))
            + tuple(complement(g.get(a, i), g.frame)
                    for i in range(b, a - 1, -1)))


def reference_cross_classes(d, wall):
    """The reflected column classes of column a along row b+1, then the
    classes of the complemented, reversed representatives of the row a
    classes up column a+r."""
    a, b, r = wall.a, wall.b, d.r
    glide = [tuple(complement(p, d.frame) for p in reversed(
        d.a[a % r][k - 1 - a].representative)) for k in range(b + 1, a, -1)]
    return (tuple(d.b[(a + b + 1 - l) % r][l - b - 1]
                  for l in range(b + 1, a + r))
            + tuple(map(DualClass.of, glide)))


def test_cross_chain_is_column_a():
    pairs = [(g, w) for frame in (Frame(2, 4), Frame(2, 5), Frame(2, 6),
                                  Frame(3, 6))
             for g in cgd_enumerate(frame) for w in presentations(frame.size)]
    assert len(pairs) == 2926
    for g, w in pairs:
        column, _ = _key_paths(w)
        assert g.along(column) == reference_cross_chain(g, w)


def test_cross_classes_is_column_a():
    pairs = [(d, w) for frame, shape in [
        (Frame(2, 5), ((2,), (1,), (1,), (1,), (1,))),
        (Frame(2, 6), ((2,), (2,), (1,), (1,), (1,), (1,))),
        (Frame(3, 6), ((2, 1), (1,), (2,), (1, 1), (2,))),
        (Frame(3, 6), ((2,), (1,), (2,), (1,), (2,), (1,)))]
        for d in decgd_enumerate(frame, shape)
        for w in presentations(len(shape))]
    assert len(pairs) == 246
    for d, w in pairs:
        column, _ = _key_paths(w)
        assert d.along(column) == reference_cross_classes(d, w)


def test_crossed_diagram_carries_column_a_along_the_crossing_path():
    # on every presentation of every wall, wrapped ones included
    pairs = 0
    for frame, shape in COVER_CASES:
        if all(part == (1,) for part in shape):
            sources, cross = cgd_enumerate(frame), cross_cgd
        else:
            sources, cross = decgd_enumerate(frame, shape), cross_decgd
        for g in sources:
            for w in presentations(len(shape)):
                column, path = _key_paths(w)
                assert cross(g, w).along(path) == g.along(column), (g, w)
                pairs += 1
    assert pairs == 454


@cache
def evacuation(c):
    """The evacuation of a straight tableau c: the evacuation of the first
    chain of shuffle(c[:2], c[1:]), which slides c's other boxes into its
    first one, followed by c's own shape."""
    if len(c) == 1:
        return c
    return evacuation(shuffle(c[:2], c[1:])[0]) + (c[-1],)


@cache
def xi(t):
    """The partial Schützenberger involution of a skew tableau t: the one
    tableau of t's skew shape that is dual equivalent to t and rectifies
    to the evacuation of t's rectification."""
    cls, target = DualClass.of(t), evacuation(rectify(t))
    (found,) = [c for c in enumerate_chains(t[-1], t[0])
                if DualClass.of(c) == cls and rectify(c) == target]
    return found


def xi_mismatches(frames):
    """(rows checked, rows that differ) over every diagram of the frames
    and every wall (a, b): row i of the crossed diagram, for i in
    a..b+1, must be row i of the diagram with its segment over columns
    b+1..a+r, chain indices b+1-i..a+r-i, replaced by xi of that segment
    (Henriques and Kamnitzer)."""
    rows = wrong = 0
    for frame in frames:
        r = frame.size
        for g in cgd_enumerate(frame):
            for w in walls(r):
                crossed = cross_cgd(g, w)
                for i in range(w.a, w.b + 2):
                    row, lo, hi = g.row(i), w.b + 1 - i, w.a + r - i
                    want = row[:lo] + xi(row[lo:hi + 1]) + row[hi + 1:]
                    rows += 1
                    wrong += crossed.row(i) != want
    return rows, wrong


# the frames of the cover tests, and (2,7)
XI_FRAMES = [Frame(2, 4), Frame(2, 5), Frame(2, 6), Frame(3, 5),
             Frame(3, 6), Frame(2, 7)]


def test_walls_act_as_xi():
    assert xi_mismatches(XI_FRAMES) == (14758, 0)


def test_identity_crossing_is_not_xi(monkeypatch):
    # regrown from the chain it already carries along the crossing path,
    # every diagram crosses to itself, which is no xi
    key_paths = moduli._key_paths
    monkeypatch.setattr(moduli, "_key_paths",
                        lambda wall: (key_paths(wall)[1],) * 2)
    g, w = cgd_enumerate(Frame(2, 5))[0], walls(6)[0]
    assert cross_cgd(g, w) == g
    rows, wrong = xi_mismatches(XI_FRAMES)
    assert rows == 14758 and wrong > 0


def test_class_crossing_restricts_the_fine_crossing():
    # coarse wall (a, b) of a class diagram d is the fine wall over blocks
    # a+1..b+1 of a lift of d; the crossing reverses the sizes of the
    # other blocks, so the crossed fine diagram, rotated to put the fine
    # start of block a of the crossed sizes at a, restricts to the
    # crossed class diagram
    pairs = 0
    for frame, shape in COVER_CASES:
        if all(part == (1,) for part in shape):
            continue
        r = frame.size
        for d in decgd_enumerate(frame, shape):
            fine = lift_decgd(d)
            for w in walls(d.r):
                c = cross_decgd(d, w)
                at = list(accumulate(d.sizes * 2, initial=0))
                at2 = list(accumulate(c.sizes * 2, initial=0))
                rows = cross_cgd(fine, Wall(at[w.a], at[w.b + 1] - 1, r)).rows
                shift = (at[w.a] - at2[w.a]) % r
                turned = CylGrowthDiagram(frame, r,
                                          rows[shift:] + rows[:shift])
                assert restrict_cgd(turned, c.sizes) == c, (d, w)
                pairs += 1
    assert pairs == 178


FRAMES = [Frame(2, 4), Frame(2, 5), Frame(2, 6), Frame(2, 7), Frame(3, 5),
          Frame(3, 6), Frame(3, 7)]


@st.composite
def diagrams(draw):
    """A diagram grown from a random row-0 chain of a frame."""
    frame = draw(st.sampled_from(FRAMES))
    chain = [()]
    while chain[-1] != frame.rectangle():
        chain.append(draw(st.sampled_from(covers(chain[-1], frame))))
    return cgd_from_path(row_path(frame.size), chain, frame)


@st.composite
def crossings(draw):
    """A diagram of :func:`diagrams`, and a wall."""
    g = draw(diagrams())
    return g, draw(st.sampled_from(walls(g.r)))


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
