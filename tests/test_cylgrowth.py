"""Tests for cylindrical growth diagrams: figure reproduction, uniqueness,
enumeration counts, symmetries, and the promotion and d=2 matching
bijection that growth.checks builds on them."""

import pytest
from hypothesis import given, settings, strategies as st

from growth.checks import (
    cgd_of_matching, golden_diagram, golden_figure_entries, load_golden,
    matching_of_cgd, noncrossing_matchings, promotion, rotate_matching,
)
from growth.cylgrowth import (
    cgd_enumerate, cgd_from_path, cgd_validate, row_path, CylGrowthDiagram,
)
from growth.decgd import decgd_from_first_row, restrict_cgd
from growth.partitions import Frame, complement, is_domino, normalize, syt_count
from growth.tableaux import enumerate_chains, other_middle
from test_crossing import diagrams

F24 = Frame(2, 4)
F25 = Frame(2, 5)


def figure_path_and_chain():
    data = load_golden("growth_example")
    path = [tuple(p) for p in data["path"]]
    chain = tuple(normalize(p) for p in data["chain"])
    return path, chain


class TestFigureReproduction:
    def test_marked_path_chain(self):
        g = golden_diagram("growth_example")
        path, chain = figure_path_and_chain()
        assert tuple(g.get(i, j) for i, j in path) == chain

    def test_rebuild_from_path(self):
        # the recursion recovers every printed entry from the marked path
        path, chain = figure_path_and_chain()
        g = cgd_from_path(path, chain, F25)
        for i, j, expected in golden_figure_entries("growth_example"):
            assert g.get(i, j) == expected

    def test_bottom_row_repeats_top(self):
        g = golden_diagram("growth_example")
        for j in range(g.r + 1):
            assert g.get(6, 6 + j) == g.get(0, j)

    def test_golden_validates(self):
        ok, problems = cgd_validate(golden_diagram("growth_example"))
        assert ok, problems

    def test_corrupted_entry_fails(self):
        g = golden_diagram("growth_example")
        rows = [list(r) for r in g.rows]
        rows[2][4] = (3, 1) if rows[2][4] == (2, 2) else (2, 2)
        bad = CylGrowthDiagram(g.frame, g.r, tuple(tuple(r) for r in rows))
        ok, problems = cgd_validate(bad)
        assert not ok and problems


class TestConstruction:
    def test_along_reads_entries(self):
        g = golden_diagram("growth_example")
        path = [(1, 1), (1, 2), (0, 2), (-1, 2)]
        assert g.along(path) == tuple(g.get(i, j) for i, j in path)

    @pytest.mark.parametrize("path,error", [
        ([(0, 5), (0, 6), (0, 7)], IndexError),  # past offset r = 6
        ([(1, 0), (0, 0)], IndexError),           # below the diagonal
        ([(0, 0), (0, 2)], ValueError),           # two boxes at once
        ([(0, 1), (1, 1)], ValueError),           # a step down
    ])
    def test_along_refuses_a_bad_path(self, path, error):
        with pytest.raises(error):
            golden_diagram("growth_example").along(path)

    def test_row_chain_round_trip(self):
        chain = ((), (1,), (2,), (2, 1), (2, 2))
        g = cgd_from_path(row_path(4), chain, F24)
        assert cgd_validate(g)[0]
        assert g.row(0) == chain
        assert g.get(0, 4) == (2, 2)

    def test_uniqueness_via_all_paths(self):
        # reading any path and rebuilding gives back the same diagram
        g = golden_diagram("growth_example")
        # the six row paths, (i, i) .. (i, i + 6)
        paths = [[(i, i + k) for k in range(7)] for i in range(6)]
        paths.append([(4, 4), (3, 4), (3, 5), (3, 6), (2, 6), (2, 7), (2, 8)])
        paths.append([(2, 2), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])
        for path in paths:
            rebuilt = cgd_from_path(
                path, tuple(g.get(i, j) for i, j in path), F25)
            assert rebuilt == g

    def test_rejects_bad_anchors(self):
        with pytest.raises(ValueError):
            cgd_from_path(row_path(4), ((), (1,), (2,), (2, 1), (2, 1)), F24)
        with pytest.raises(ValueError):
            cgd_from_path(row_path(4), ((), (1,), (2,), (2, 2)), F24)


class TestEnumeration:
    @pytest.mark.parametrize("frame,count",
                             [(F24, 2), (F25, 5), (Frame(3, 6), 42)])
    def test_counts(self, frame, count):
        diagrams = cgd_enumerate(frame)
        assert len(diagrams) == count == syt_count(frame.rectangle())
        assert len(set(diagrams)) == count

    def test_all_validate(self):
        for frame in (F24, F25):
            for g in cgd_enumerate(frame):
                ok, problems = cgd_validate(g)
                assert ok, problems

    def test_glide_reflect(self):
        for frame in (F24, F25):
            for g in cgd_enumerate(frame):
                for i in range(g.r):
                    for k in range(g.r + 1):
                        assert g.get(i, i + k) == \
                            complement(g.get(i + k, i + g.r), frame)

    def test_domino_lemma(self):
        # nonadjacent two-step rows force the short diagonal entry:
        # second box strictly northeast (earlier row) gives (2), else (1,1)
        for frame in (F24, F25):
            for g in cgd_enumerate(frame):
                for i in range(g.r):
                    for j in range(i, i + g.r - 1):
                        lam, mid, nu = (g.get(i, j), g.get(i, j + 1),
                                        g.get(i, j + 2))
                        if is_domino(lam, nu):
                            continue
                        first = [r for r in range(len(mid))
                                 if mid[r] > (lam[r] if r < len(lam) else 0)][0]
                        second = [r for r in range(len(nu))
                                  if nu[r] > (mid[r] if r < len(mid) else 0)][0]
                        expected = (2,) if second < first else (1, 1)
                        assert g.get(j, j + 2) == expected


class TestPromotion:
    def test_figure_rows(self):
        row1 = tuple(normalize(p) for p in
                     [[], [1], [2], [2, 1], [3, 1], [3, 2], [3, 3]])
        row2 = tuple(normalize(p) for p in
                     [[], [1], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3]])
        assert promotion(row1, F25) == row2

    @pytest.mark.parametrize("frame", [F24, F25])
    def test_order_divides_r(self, frame):
        for chain in enumerate_chains(frame.rectangle(), ()):
            t = chain
            for _ in range(frame.size):
                t = promotion(t, frame)
            assert t == chain


class TestMatchings:
    def test_figure_matching(self):
        g = golden_diagram("growth_example")
        expected = frozenset(frozenset(a) for a in
                             load_golden("growth_example")["matching"])
        assert matching_of_cgd(g) == expected

    @pytest.mark.parametrize("frame", [F24, F25])
    def test_bijection(self, frame):
        diagrams = cgd_enumerate(frame)
        matchings = noncrossing_matchings(frame.size)
        assert len(diagrams) == len(matchings)
        seen = set()
        for g in diagrams:
            m = matching_of_cgd(g)
            assert cgd_of_matching(m, frame) == g
            seen.add(m)
        assert seen == set(frozenset(m) for m in matchings)

    @pytest.mark.parametrize("frame", [F24, F25])
    def test_rotation_is_promotion(self, frame):
        for g in cgd_enumerate(frame):
            m = matching_of_cgd(g)
            promoted = promotion(g.row(0), frame)
            rotated = rotate_matching(m, frame.size, -1)
            assert matching_of_cgd(
                cgd_from_path(row_path(frame.size), promoted, frame)) == rotated

    def test_d3_rejected(self):
        with pytest.raises(ValueError):
            matching_of_cgd(cgd_enumerate(Frame(3, 6))[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(diagrams(), st.data())
def test_diagram_properties(g, data):
    frame, r = g.frame, g.r
    for i in range(r):
        # the local rule maps each middle of a unit square to the other
        for j in range(i, i + r - 1):
            bottom, top = g.get(i, j), g.get(i - 1, j + 1)
            right, left = g.get(i, j + 1), g.get(i - 1, j)
            assert other_middle(bottom, top, right) == left
            assert other_middle(bottom, top, left) == right
        for k in range(r + 1):
            assert g.get(i, i + k) == complement(g.get(i + k, i + r), frame)
    # growing from row t's chain gives the rotation by t
    for t in range(r):
        assert cgd_from_path(row_path(r), g.row(t), frame).rows == \
            g.rows[t:] + g.rows[:t]
    if frame.d == 2:
        assert cgd_of_matching(matching_of_cgd(g), frame) == g
    # a composition of r into at least 3 blocks, by its cut points:
    # lifting the restriction's row-0 classes and restricting again
    # gives the restriction back
    cuts = sorted(data.draw(st.sets(st.integers(1, r - 1), min_size=2)))
    sizes = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [r]))
    d = restrict_cgd(g, sizes)
    assert decgd_from_first_row(d.a[0], frame) == d
