"""Tests for facets, wall crossings, the monodromy graph, and tree
labelings with fiber counts."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from functools import cache
from itertools import combinations, permutations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from growth import moduli
from growth.checks import golden_diagram, golden_figure_entries, load_golden
from growth.cylgrowth import (
    CylGrowthDiagram, _Completion, cgd_enumerate, cgd_validate,
)
from growth.decgd import decgd_enumerate, restrict_cgd
from growth.jsonin import read_cgd
from growth.moduli import (
    MAX_COVER_EDGES, MonodromyGraph, Wall, _FiberTables, all_trees,
    build_cover_graph, canonical_order, cross_cgd, cross_decgd, cross_facet,
    export, facets, fiber_count, graph_components, node_labelings,
    transport_cgd, transport_decgd, walls,
)
from growth.partitions import (
    Frame, complement, lr_coefficient, normalize, partitions_in, syt_count,
)
from test_decgd import decgd_validate, lift_decgd

F24 = Frame(2, 4)
F25 = Frame(2, 5)
F26 = Frame(2, 6)
BOX = (1,)


def reference_facets(r):
    """Every circular order canonicalized, deduplicated and sorted."""
    return sorted({canonical_order((1,) + tail)[0]
                   for tail in permutations(range(2, r + 1))})


def reference_canonical_order(order):
    """Both dihedral candidates starting at 1 built in full; the smaller
    wins, ties to the rotation."""
    order = tuple(order)
    r = len(order)
    t = order.index(1)
    rot = tuple(order[(q + t) % r] for q in range(r))
    ref = tuple(order[(t - q) % r] for q in range(r))
    if rot <= ref:
        return rot, ("rot", t)
    return ref, ("ref", t)


def reference_cross_facet(order, wall):
    """The wall's positions reversed one by one, then canonicalized."""
    order = tuple(order)
    r = len(order)
    raw = list(order)
    span = [((x - 1) % r) for x in range(wall.a, wall.b + 1)]
    vals = [order[q] for q in span]
    for q, v in zip(span, reversed(vals)):
        raw[q] = v
    return reference_canonical_order(raw)


def positions(w):
    """The marked positions a..b of the wall, wrapped into [1, r]."""
    return frozenset((x - 1) % w.r + 1 for x in range(w.a, w.b + 1))


def reference_walls(r):
    """Every non-wrapping interval of length 2..r-2, keeping the smaller
    (a, b) of the two presentations of each chord, sorted."""
    seen = {}
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            if not (2 <= b - a + 1 <= r - 2):
                continue
            w = Wall(a, b, r)
            key = frozenset((positions(w),
                             frozenset(range(1, r + 1)) - positions(w)))
            if key not in seen or (w.a, w.b) < (seen[key].a, seen[key].b):
                seen[key] = w
    return sorted(seen.values(), key=lambda w: (w.a, w.b))


class TestFacets:
    @pytest.mark.parametrize("r", range(3, 10))
    def test_matches_reference(self, r):
        assert facets(r) == reference_facets(r)

    @pytest.mark.parametrize("r,count", [(3, 1), (4, 3), (5, 12), (6, 60)])
    def test_counts(self, r, count):
        assert len(facets(r)) == count

    def test_refuses_r_past_the_bound(self):
        # 15!/2 facets: refused before any is listed
        with pytest.raises(ValueError) as info:
            facets(16)
        assert str(info.value) == (
            f"16 marked points have {factorial(15) // 2} facets, over the "
            f"bound of {MAX_COVER_EDGES} edges of a cover graph")

    def test_canonical_form(self):
        for order in facets(5):
            assert order[0] == 1
            canon, gmap = canonical_order(order)
            assert canon == order and gmap == ("rot", 0)

    def test_reflection_identified(self):
        assert canonical_order((1, 3, 2))[0] == canonical_order((1, 2, 3))[0]

    @pytest.mark.parametrize("r", range(1, 9))
    def test_canonical_order_matches_reference(self, r):
        for order in permutations(range(1, r + 1)):
            assert canonical_order(order) == reference_canonical_order(order)

    @pytest.mark.parametrize("r", range(4, 9))
    def test_cross_facet_matches_reference(self, r):
        spans = [span for w in walls(r) for span in (w, w.complementary())]
        assert any(span.b > r for span in spans)  # a wrapped presentation
        for order in facets(r):
            for span in spans:
                assert cross_facet(order, span) == \
                    reference_cross_facet(order, span)


class TestWalls:
    @pytest.mark.parametrize("r", range(3, 10))
    def test_matches_reference(self, r):
        assert walls(r) == reference_walls(r)

    @pytest.mark.parametrize("r,count", [(4, 2), (5, 5), (6, 9)])
    def test_chord_counts(self, r, count):
        assert len(walls(r)) == count == r * (r - 3) // 2

    def test_interval_bounds(self):
        with pytest.raises(ValueError):
            Wall(1, 1, 4)
        with pytest.raises(ValueError):
            Wall(1, 3, 4)

    def test_complementary_same_positions(self):
        for w in walls(6):
            c = w.complementary()
            assert positions(c) == frozenset(range(1, 7)) - positions(w)


class TestCrossFacet:
    def test_r4_example(self):
        w = Wall(2, 3, 4)
        assert cross_facet((1, 2, 3, 4), w)[0] == (1, 3, 2, 4)

    def test_refuses_a_wall_of_another_r(self):
        with pytest.raises(ValueError, match="different numbers of points"):
            cross_facet((1, 2, 3, 4), Wall(3, 5, 6))

    def test_involution(self):
        # reversing the same positions twice restores the raw order
        for order in facets(5):
            for w in walls(5):
                raw = list(order)
                span = [((x - 1) % 5) for x in range(w.a, w.b + 1)]
                vals = [raw[q] for q in span]
                for q, v in zip(span, reversed(vals)):
                    raw[q] = v
                again = list(raw)
                vals = [again[q] for q in span]
                for q, v in zip(span, reversed(vals)):
                    again[q] = v
                assert tuple(again) == order

    def test_complement_interval_same_facet(self):
        for order in facets(5):
            for w in walls(5):
                assert cross_facet(order, w)[0] == \
                    cross_facet(order, w.complementary())[0]


class TestCrossCgd:
    def test_wall_figure(self):
        top = golden_diagram("growth_example")
        wall_data = load_golden("wall_example")
        a, b = wall_data["wall"]
        crossed = cross_cgd(top, Wall(a, b, 6))
        for i, j, expected in golden_figure_entries("wall_example"):
            assert crossed.get(i, j) == expected

    def test_triangle_conditions(self):
        top = golden_diagram("growth_example")
        w = Wall(4, 6, 6)
        crossed = cross_cgd(top, w)
        a, b = w.a, w.b
        for i in range(a, b + 2):
            for j in range(i, b + 2):
                assert crossed.get(i, j) == top.get(i, j)
        for i in range(b + 1, a + 7):
            for j in range(i, a + 7):
                assert crossed.get(i, j) == \
                    top.get(a + b + 1 - j, a + b + 1 - i)

    def test_reflection_interchanges_22_31(self):
        top = golden_diagram("growth_example")
        crossed = cross_cgd(top, Wall(4, 6, 6))
        assert top.get(3, 7) == (2, 2) and crossed.get(3, 7) == (3, 1) or \
            top.get(3, 7) == (3, 1) and crossed.get(3, 7) == (2, 2)

    def test_involution_everywhere(self):
        for frame in (F24, F25):
            for g in cgd_enumerate(frame):
                for w in walls(frame.size):
                    crossed = cross_cgd(g, w)
                    assert cgd_validate(crossed)[0]
                    assert cross_cgd(crossed, w) == g

    def test_complementary_wall_same_crossing(self):
        for g in cgd_enumerate(F24):
            for w in walls(4):
                assert cross_cgd(g, w) == cross_cgd(g, w.complementary())


class TestCrossDecgd:
    def test_all_box_matches_cgd(self):
        for d in decgd_enumerate(F24, [BOX] * 4):
            for w in walls(4):
                crossed = cross_decgd(d, w)
                fine = cross_cgd(lift_decgd(d), w)
                assert crossed.rows == fine.rows
                ok, problems = decgd_validate(crossed)
                assert ok, problems

    def test_involution(self):
        for d in decgd_enumerate(F24, [BOX] * 4):
            for w in walls(4):
                assert cross_decgd(cross_decgd(d, w), w) == d

    def test_lift_cross_restrict_two_blocks(self):
        # crossing the lifted diagram along one block of a two-block
        # restriction, then restricting, is an involution on restrictions
        w = Wall(3, 4, 4)
        for g in cgd_enumerate(F24):
            d = restrict_cgd(g, (2, 2))
            crossed = restrict_cgd(cross_cgd(lift_decgd(d), w), (2, 2))
            ok, problems = decgd_validate(crossed)
            assert ok, problems
            again = restrict_cgd(cross_cgd(lift_decgd(crossed), w), (2, 2))
            assert again == d

    def test_block_permutation(self):
        # the crossed diagram agrees with the original over the wall blocks
        # a+1 .. b+1 and reflects the complementary blocks, so the sizes of
        # blocks b+2 .. a+r reverse
        for shape in [((2,), BOX, BOX), ((2,), (1, 1), BOX, BOX)]:
            for d in decgd_enumerate(F25 if sum(map(sum, shape)) == 6 else F24,
                                     shape):
                for w in walls(d.r):
                    crossed = cross_decgd(d, w)
                    expect = list(d.sizes)
                    for m in range(w.b + 2, w.a + d.r + 1):
                        src = w.a + w.b + 2 - m
                        expect[(m - 1) % d.r] = d.sizes[(src - 1) % d.r]
                    assert list(crossed.sizes) == expect
                    ok, problems = decgd_validate(crossed)
                    assert ok, problems


def transporters(r):
    """Every transporter that crossing a wall of some facet produces."""
    return sorted({cross_facet(order, span)[1] for order in facets(r)
                   for w in walls(r) for span in (w, w.complementary())})


def reference_transport(g, gmap):
    """Entry by entry: a rotation by t reads entry (i + t, j + t), a
    reflection reads (e + 1 - j, e + 1 - i) with axis e = t + 2."""
    kind, t = gmap
    e = t + 2

    def entry(i, j):
        if kind == "rot":
            return g.get(i + t, j + t)
        return g.get(e + 1 - j, e + 1 - i)

    rows = tuple(tuple(entry(i, i + k) for k in range(g.r + 1))
                 for i in range(g.r))
    return CylGrowthDiagram(g.frame, g.r, rows)


def repeat(fn, x, gmap, times):
    for _ in range(times):
        x = fn(x, gmap)
    return x


class TestTransport:
    def test_cgd_matches_reference(self):
        gmaps = transporters(6)
        assert {kind for kind, _ in gmaps} == {"rot", "ref"}
        for g in cgd_enumerate(F25):
            for gmap in gmaps:
                moved = transport_cgd(g, gmap)
                assert moved == reference_transport(g, gmap)
                ok, problems = cgd_validate(moved)
                assert ok, problems

    def test_decgd_valid(self):
        shape = [(2,), (2,), (2,), BOX, BOX]
        diagrams = decgd_enumerate(Frame(2, 6), shape)
        assert diagrams
        for d in diagrams:
            for gmap in transporters(5):
                ok, problems = decgd_validate(transport_decgd(d, gmap))
                assert ok, problems

    def test_all_box_decgd_matches_cgd(self):
        for d in decgd_enumerate(F24, [BOX] * 4):
            for gmap in transporters(4):
                assert transport_decgd(d, gmap).rows == \
                    transport_cgd(lift_decgd(d), gmap).rows

    def test_dihedral_orders(self):
        cases = [(transport_cgd, cgd_enumerate(F25)),
                 (transport_decgd,
                  decgd_enumerate(F25, [(2,), (1, 1), BOX, BOX]))]
        for fn, diagrams in cases:
            assert diagrams
            for x in diagrams:
                for t in range(x.r):
                    assert repeat(fn, x, ("rot", t), x.r) == x
                    assert repeat(fn, x, ("ref", t), 2) == x


class TestCoverGraph:
    def test_empty_fiber_lists_no_facet(self):
        # h_10 e_2 fits no 2-row box, so no diagram lies over any of the
        # 9!/2 facets; the cover is empty before any facet is listed
        start = time.perf_counter()
        graph = build_cover_graph(Frame(2, 12), [(10,), (1, 1)] + [BOX] * 8)
        assert time.perf_counter() - start < 2
        assert graph.nodes == graph.edges == ()

    def test_r4_six_cycle(self):
        graph = build_cover_graph(F24, [BOX] * 4)
        assert len(graph.nodes) == 6
        assert len(graph.edges) == 6
        assert graph_components(graph) == 1
        degree = {i: 0 for i in range(6)}
        for u, v, _ in graph.edges:
            degree[u] += 1
            degree[v] += 1
        assert all(dg == 2 for dg in degree.values())
        # every facet carries the same fiber
        per_facet = {}
        for facet, _ in graph.nodes:
            per_facet[facet] = per_facet.get(facet, 0) + 1
        assert set(per_facet.values()) == {2}

    def test_six_cycle_label_sequence(self):
        # walking the cycle, the short-diagonal entry over each crossed
        # wall alternates between the two intermediate shapes
        graph = build_cover_graph(F24, [BOX] * 4)
        adj = {i: [] for i in range(6)}
        for u, v, wall in graph.edges:
            adj[u].append((v, wall))
            adj[v].append((u, wall))
        labels = []
        prev, cur = None, 0
        for _ in range(6):
            nxt, wall = [x for x in adj[cur] if x[0] != prev][0]
            a, b = wall
            _, diagram = graph.nodes[cur]
            labels.append(diagram.get(a, b + 1))
            prev, cur = cur, nxt
        assert cur == 0
        assert set(labels) == {(2,), (1, 1)}
        assert labels == labels[:2] * 3  # alternating period two

    def test_r5_decgd_cover(self):
        shape = ((2,), BOX, BOX)
        graph = build_cover_graph(F24, shape)
        c = lr_coefficient(F24.rectangle(), list(shape))
        assert len(graph.nodes) == len(facets(3)) * c
        # r=3 has no walls at all
        assert graph.edges == ()

    def test_fiber_constant_25(self):
        graph = build_cover_graph(F25, [BOX] * 6)
        assert len(graph.nodes) == 60 * 5
        per_facet = {}
        for facet, _ in graph.nodes:
            per_facet[facet] = per_facet.get(facet, 0) + 1
        assert set(per_facet.values()) == {5}
        assert len(graph.edges) == len(graph.nodes) * 9 // 2

    def test_r4_mixed_shape_cover(self):
        shape = ((2,), BOX, BOX, (1, 1))
        if lr_coefficient(F25.rectangle(), list(shape)) == 0:
            pytest.skip("empty cover")
        graph = build_cover_graph(F25, shape)
        per_facet = {}
        for facet, _ in graph.nodes:
            per_facet[facet] = per_facet.get(facet, 0) + 1
        assert len(set(per_facet.values())) == 1
        degree = {i: 0 for i in range(len(graph.nodes))}
        for u, v, _ in graph.edges:
            degree[u] += 1
            degree[v] += 1
        assert set(degree.values()) == {2}

    def test_size_mismatch_empty_graph(self):
        graph = build_cover_graph(F24, [BOX] * 3)
        assert graph.nodes == () and graph.edges == ()

    def test_work_bound(self):
        # refused in-process before the 55!/2 facets are listed: a fiber
        # of the rectangle's tableaux over each, 56 * 53 / 2 walls per node
        frame = Frame(2, 30)
        nodes = factorial(55) // 2 * syt_count(frame.rectangle())
        edges = nodes * (56 * 53 // 2) // 2
        with pytest.raises(ValueError) as info:
            build_cover_graph(frame, [BOX] * 56)
        assert str(info.value) == (
            f"the cover graph would have {nodes} nodes and {edges} edges, "
            f"over the bound of {MAX_COVER_EDGES} edges")

    def test_two_two_four_boxes(self):
        shape = ((2,), (2,), BOX, BOX, BOX, BOX)
        graph = build_cover_graph(F26, shape)
        c = lr_coefficient(F26.rectangle(), list(shape))
        assert len(graph.nodes) == 360 == len(facets(6)) * c
        assert graph_components(graph) == 1

    def test_all_box_r8(self):
        # 2520 facets, each over a fiber of Catalan(4) = 14 diagrams, and
        # 20 walls per node with every edge counted at both ends
        graph = build_cover_graph(F26, [BOX] * 8)
        assert len(graph.nodes) == 35280 == len(facets(8)) * 14
        assert len(graph.edges) == 352800 == len(graph.nodes) * 20 // 2
        assert graph_components(graph) == 1


@cache
def reference_cover(frame, shape):
    """The cover built node by node: enumerate the fiber again for every
    facet, cross every (node, wall) pair, transport the result and look it
    up by diagram.  Returns (nodes, edges) as build_cover_graph does."""
    r = len(shape)
    all_box = all(lam == BOX for lam in shape)
    nodes = []
    index = {}
    for facet in facets(r):
        if all_box:
            fiber = cgd_enumerate(frame)
        else:
            fiber = decgd_enumerate(
                frame, [shape[facet[(m - 1) % r] - 1] for m in range(r)])
        for diagram in fiber:
            index[(facet, diagram)] = len(nodes)
            nodes.append((facet, diagram))
    cross = cross_cgd if all_box else cross_decgd
    transport = transport_cgd if all_box else transport_decgd
    everyone = frozenset(range(1, r + 1))
    edges = {}
    for node_id, (facet, diagram) in enumerate(nodes):
        for wall in walls(r):
            new_facet, gmap = cross_facet(facet, wall.complementary())
            target = transport(cross(diagram, wall), gmap)
            target_id = index[(new_facet, target)]
            chord = frozenset(facet[(x - 1) % r]
                              for x in range(wall.a, wall.b + 1))
            chord = min(chord, everyone - chord, key=sorted)
            edges.setdefault((frozenset((node_id, target_id)), chord),
                             (node_id, target_id, (wall.a, wall.b)))
    return tuple(nodes), tuple(sorted(edges.values()))


COVER_CASES = [
    (F24, (BOX,) * 4),
    (F25, (BOX,) * 6),
    (F25, ((2,), BOX, BOX, BOX, BOX)),
    (F26, ((2,), (2,), (2,), BOX, BOX)),
    (F26, ((2,), BOX, (2,), BOX, (2,))),
    (Frame(3, 5), ((1, 1), BOX, BOX, BOX, BOX)),
    (Frame(3, 6), ((2,), BOX, (2,), BOX, (2,), BOX)),
    (F26, ((2,), (2,), BOX, BOX, BOX, BOX)),
]
COVER_IDS = ["24-1^4", "25-1^6", "25-2;1^4", "26-2;2;2;1;1", "26-2;1;2;1;2",
             "35-11;1^4", "36-2;1;2;1;2;1", "26-2;2;1^4"]


def chord(facet, wall):
    """The marked points on the side of the wall's chord without marked
    point 1."""
    r = len(facet)
    side = frozenset(facet[(x - 1) % r] for x in range(wall.a, wall.b + 1))
    return side if 1 not in side else frozenset(range(1, r + 1)) - side


def cross_chord(tables, facet, side):
    """Cross the chord with this side from the facet, through the wall
    that build_cover_graph gives it there; returns the new facet and the
    table of fiber indices."""
    (wall,) = [w for w in walls(len(facet)) if chord(facet, w) == side]
    new_facet, gmap = cross_facet(facet, wall.complementary())
    return new_facet, tables.move(facet, wall, new_facet, gmap)


def check_moves_are_involutions(tables, r):
    """Crossing a chord and crossing the same chord back from the new
    facet returns every fiber index to itself."""
    for facet in facets(r):
        size = len(tables.fiber(facet))
        for wall in walls(r):
            new_facet, table = cross_chord(tables, facet, chord(facet, wall))
            back_facet, back_table = cross_chord(tables, new_facet,
                                                 chord(facet, wall))
            assert back_facet == facet
            assert [back_table[j] for j in table] == list(range(size))


def codimension_two_loops(tables, orders):
    """Each facet G and pair of non-crossing chords S1, S2 of G (disjoint
    or nested sides) is a corner of a codimension-2 cell, where four top
    cells meet: crossing S1, S2, S1, S2 returns to G.  Over a covering it
    returns every sheet to itself.  Returns the number of (facet, pair)
    corners, over the given facets, and of sheets that their loops
    move."""
    corners = moved = 0
    for facet in orders:
        r = len(facet)
        sides = [chord(facet, wall) for wall in walls(r)]
        for pair in [(s, t) for s, t in combinations(sides, 2)
                     if s.isdisjoint(t) or s < t or t < s]:
            at, sheets = facet, range(len(tables.fiber(facet)))
            for side in pair * 2:
                at, table = cross_chord(tables, at, side)
                sheets = [table[i] for i in sheets]
            assert at == facet, (facet, pair)
            corners += 1
            moved += sum(i != j for i, j in enumerate(sheets))
    return corners, moved


def codimension_two_cells(r):
    """The codimension-2 cells of the real moduli space: trees with two
    internal edges and a dihedral order at each vertex, (deg v - 1)!/2 of
    them at a vertex v."""
    cells = 0
    for tree in all_trees(r):
        if sum(w < 0 for _, w in tree) == 2:
            degree = Counter(v for edge in tree for v in edge if v < 0)
            cells += prod(factorial(k - 1) // 2 for k in degree.values())
    return cells


class TestCoverTables:
    @pytest.mark.parametrize("frame,shape", COVER_CASES, ids=COVER_IDS)
    def test_matches_reference(self, frame, shape):
        graph = build_cover_graph(frame, shape)
        nodes, edges = reference_cover(frame, shape)
        assert graph.nodes == nodes
        assert graph.edges == edges

    @pytest.mark.parametrize("frame,shape", COVER_CASES, ids=COVER_IDS)
    def test_moves_are_involutions(self, frame, shape):
        tables = _FiberTables(frame, shape)
        check_moves_are_involutions(tables, len(shape))
        assert tables.moves

    @pytest.mark.parametrize("frame,shape", COVER_CASES, ids=COVER_IDS)
    def test_codimension_two_loops_are_trivial(self, frame, shape):
        # the cactus relations: disjoint chords commute, and nested ones
        # conjugate each other into the reflected chord
        r = len(shape)
        corners, moved = codimension_two_loops(_FiberTables(frame, shape),
                                               facets(r))
        assert moved == 0
        assert corners == 4 * codimension_two_cells(r)

    def test_codimension_two_loops_at_r8(self):
        # a slice of the r = 8 cover: the corners at the first 20 of its
        # 2520 facets, each over a fiber of Catalan(4) = 14 diagrams, 120
        # corners per facet
        corners, moved = codimension_two_loops(
            _FiberTables(F26, (BOX,) * 8), facets(8)[:20])
        assert (corners, moved) == (2400, 0)

    def test_codimension_two_cell_counts(self):
        assert [codimension_two_cells(r) for r in (4, 5, 6)] == [0, 15, 315]

    @pytest.mark.parametrize("frame,shape", [
        (F25, (BOX,) * 6), (F26, ((2,), (2,), BOX, BOX, BOX, BOX)),
        (F25, ((2,), BOX, BOX, BOX, BOX))],
        ids=["25-1^6", "26-2;2;1^4", "25-2;1^4"])
    def test_twisted_table_breaks_a_loop(self, frame, shape):
        # one table and the table of its crossing back, conjugated by the
        # transposition of fiber indices 0 and 1: both stay bijections and
        # the crossing an involution, but the cover is no longer one
        def swap(i):
            return 1 - i if i < 2 else i

        tables = _FiberTables(frame, shape)
        r = len(shape)
        facet = facets(r)[0]
        side = chord(facet, walls(r)[0])
        new_facet, table = cross_chord(tables, facet, side)
        _, back_table = cross_chord(tables, new_facet, side)
        # the two are one table when the crossing back has the same key
        for t in {id(table): table, id(back_table): back_table}.values():
            t[:] = [swap(t[swap(i)]) for i in range(len(t))]
            assert sorted(t) == list(range(len(t)))
        check_moves_are_involutions(tables, r)
        assert codimension_two_loops(tables, facets(r))[1] > 0

    @staticmethod
    def spy(monkeypatch, owner, name):
        """Count the calls of owner.name from now on."""
        calls = []
        fn = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_fiber_for_all_boxes(self, monkeypatch):
        # the two promotion-orbit solves of the (2,5) fiber are the only
        # solves: every crossing is found in the fiber, none is regrown
        solves = self.spy(monkeypatch, _Completion, "solve")
        crossings = self.spy(monkeypatch, moduli, "cross_cgd")
        tables = _FiberTables(F25, (BOX,) * 6)
        for facet in facets(6):
            for wall in walls(6):
                tables.move(facet, wall,
                            *cross_facet(facet, wall.complementary()))
        assert len(tables.fibers) == 1
        assert (len(solves), len(crossings)) == (2, 0)

    def test_one_solve_per_class_diagram(self, monkeypatch):
        # four contents tuples, each a fiber of four class diagrams with
        # one solve each, and no crossing regrown
        shape = (BOX, (2,), (2,), BOX, (2,))
        tables = _FiberTables(F26, shape)
        contents = {tables.contents(facet) for facet in facets(5)}
        solves = self.spy(monkeypatch, _Completion, "solve")
        crossings = self.spy(monkeypatch, moduli, "cross_decgd")
        graph = build_cover_graph(F26, shape)
        assert len(graph.nodes) == len(facets(5)) * 4
        assert (len(contents), len(solves), len(crossings)) == (4, 16, 0)

    @pytest.mark.parametrize("frame,shape", [
        (F25, (BOX,) * 6), (F26, ((2,), (2,), (2,), BOX, BOX))],
        ids=["25-1^6", "26-2;2;2;1;1"])
    def test_missing_diagram_raises(self, frame, shape, monkeypatch):
        # a fiber short of one diagram cannot hold every crossing once;
        # the build stops, naming the facet and the wall, before any graph
        tables = _FiberTables(frame, shape)
        first = tables.contents(facets(len(shape))[0])
        name = "cgd_enumerate" if tables.all_box else "decgd_enumerate"
        enumerate_fiber = getattr(moduli, name)

        def short_of_one(frame, *contents):
            # the one all-box fiber, or the class fiber over the first facet
            diagrams = enumerate_fiber(frame, *contents)
            return diagrams[1:] if contents in ((), (first,)) else diagrams

        monkeypatch.setattr(moduli, name, short_of_one)
        with pytest.raises(ValueError, match=r"^crossing wall \(\d+, \d+\) "
                           r"from facet \(1, [\d, ]+\) is no bijection onto "
                           r"the fiber over \(1, [\d, ]+\)$"):
            build_cover_graph(frame, shape)

    def test_class_covers_of_two_frames_in_one_process(self):
        # a (2,6) and a (3,6) cover share classes of equal representative
        # and rectification shape but not their glide images; each is built
        # in a fresh process after the other, and both equal the reference
        cases = [(F26, "2;2;2;1;1"), (Frame(3, 6), "2;1;2;1;2;1")]
        expected = []
        for frame, text in cases:
            shape = tuple((int(k),) for k in text.split(";"))
            graph = MonodromyGraph(frame, shape, *reference_cover(frame, shape))
            expected.append(hashlib.sha256(
                exported(graph, "json").encode()).hexdigest())
        code = (
            "import hashlib, io, sys\n"
            "from growth.moduli import build_cover_graph, export\n"
            "from growth.partitions import Frame\n"
            "for d, n, text in zip(*[iter(sys.argv[1:])] * 3):\n"
            "    shape = [(int(k),) for k in text.split(';')]\n"
            "    out = io.StringIO()\n"
            "    export(build_cover_graph(Frame(int(d), int(n)), shape),\n"
            "           'json', out)\n"
            "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                               / "src")}
        for order in (cases, cases[::-1]):
            argv = [str(x) for frame, text in order
                    for x in (frame.d, frame.n, text)]
            run = subprocess.run([sys.executable, "-c", code, *argv],
                                 env=env, capture_output=True, text=True,
                                 timeout=300)
            assert run.returncode == 0, run.stderr
            want = expected if order is cases else expected[::-1]
            assert run.stdout.split() == want


TABLE_FRAMES = [F24, F25, F26, Frame(3, 5), Frame(3, 6)]


@st.composite
def table_moves(draw):
    """A frame up to (3,6), a shape of 4 to 8 conditions with a non-empty
    fiber, a facet and a wall."""
    frame = draw(st.sampled_from(TABLE_FRAMES))
    total = frame.size
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=3,
                               max_size=min(7, total - 1))))
    sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    shape = tuple(draw(st.sampled_from([lam for lam in partitions_in(frame)
                                        if sum(lam) == size]))
                  for size in sizes)
    assume(lr_coefficient(frame.rectangle(), list(shape)) > 0)
    r = len(shape)
    return (frame, shape, draw(st.sampled_from(facets(r))),
            draw(st.sampled_from(walls(r))))


@settings(max_examples=60, deadline=None)
@given(table_moves())
def test_move_is_the_fiber_index_of_the_crossing(case):
    frame, shape, facet, wall = case
    tables = _FiberTables(frame, shape)
    new_facet, gmap = cross_facet(facet, wall.complementary())
    cross, transport = ((cross_cgd, transport_cgd) if tables.all_box
                        else (cross_decgd, transport_decgd))
    targets = tables.fiber(new_facet)
    assert tables.move(facet, wall, new_facet, gmap) == [
        targets.index(transport(cross(g, wall), gmap))
        for g in tables.fiber(facet)]


def exported(graph, fmt):
    out = io.StringIO()
    export(graph, fmt, out)
    return out.getvalue()


def graph_to_json(graph):
    """The graph as the JSON data the export writes."""
    return {
        "frame": {"d": graph.frame.d, "n": graph.frame.n},
        "shape": [list(lam) for lam in graph.shape],
        "nodes": [{"facet": list(facet), "diagram": diagram.to_json()}
                  for facet, diagram in graph.nodes],
        "edges": [{"from": u, "to": v, "wall": [a, b]}
                  for u, v, (a, b) in graph.edges],
    }


class TestExport:
    def test_json_schema_round_trip(self):
        graph = build_cover_graph(F24, [BOX] * 4)
        data = json.loads(exported(graph, "json"))
        assert len(data["nodes"]) == 6
        assert len(data["edges"]) == 6
        assert all(set(e) == {"from", "to", "wall"} for e in data["edges"])
        assert [read_cgd(node["diagram"])
                for node in data["nodes"]] == [g for _, g in graph.nodes]

    @pytest.mark.parametrize("frame,shape", COVER_CASES, ids=COVER_IDS)
    def test_json_is_json_dumps(self, frame, shape):
        # the streamed text is exactly json.dumps of the graph's data
        graph = build_cover_graph(frame, shape)
        assert exported(graph, "json") == json.dumps(
            graph_to_json(graph), indent=2, sort_keys=True) + "\n"

    def test_dot(self):
        graph = build_cover_graph(F24, [BOX] * 4)
        dot = exported(graph, "dot")
        assert dot.startswith("graph cover {")
        assert dot.count(" -- ") == 6
        assert exported(graph, "dot") == dot

    def test_empty_graph(self):
        graph = build_cover_graph(F24, [BOX] * 3)
        text = exported(graph, "json")
        data = json.loads(text)
        assert data["nodes"] == [] and data["edges"] == []
        assert text == json.dumps(graph_to_json(graph), indent=2,
                                  sort_keys=True) + "\n"

    def test_unknown_format(self):
        out = io.StringIO()
        with pytest.raises(ValueError):
            export(build_cover_graph(F24, [BOX] * 4), "yaml", out)
        assert out.getvalue() == ""


class TestTrees:
    @staticmethod
    def star_tree(r: int):
        return tuple((-1, leaf) for leaf in range(1, r + 1))

    @staticmethod
    def caterpillar_tree(r: int):
        """Internal path -1 .. -(r-2); leaf 1 on the first internal vertex,
        leaf r on the last, leaf k+1 on vertex -k."""
        if r < 4:
            return TestTrees.star_tree(r)
        path = [(-k - 1, -k) for k in range(1, r - 2)]
        leaves = [(-1, 1), (2 - r, r)] + [(-k, k + 1) for k in range(1, r - 1)]
        return tuple(sorted(path + leaves))

    def test_counts(self):
        assert len(all_trees(4)) == 4
        assert len(all_trees(5)) == 26

    def test_star_and_caterpillar_present(self):
        trees4 = all_trees(4)
        assert self.star_tree(4) in trees4
        # caterpillar on 4 leaves = one internal edge splitting {1,2}|{3,4}
        cat = self.caterpillar_tree(4)
        assert cat in trees4

    def test_caterpillar_labelings_all_box(self):
        # labelings of the path tree with all-box leaves are saturated chains
        for frame in (F24, F25):
            tree = self.caterpillar_tree(frame.size)
            shape = [BOX] * frame.size
            labelings = node_labelings(tree, shape, frame)
            assert len(labelings) == syt_count(frame.rectangle())

    def test_r4_internal_edge_labels(self):
        tree = self.caterpillar_tree(4)
        labelings = node_labelings(tree, [BOX] * 4, F24)
        edge_labels = set()
        for lab in labelings:
            for (v, w), nu in lab.items():
                if w < 0:
                    edge_labels.add(nu)
        assert edge_labels == {(2,), (1, 1)}

    def test_overbudget_vertex_empty(self):
        tree = self.star_tree(4)
        assert node_labelings(tree, [(2, 2), BOX, BOX, (1, 1)], F24) == [] \
            or fiber_count(tree, [(2, 2), BOX, BOX, (1, 1)], F24) == 0

    def test_fiber_counts_tree_independent(self):
        cases = [
            (F24, [BOX] * 4),
            (F24, [(2,), (1,), (1,)]),
            (F24, [(1, 1), BOX, BOX]),
            (F25, [(2,), BOX, BOX, BOX, BOX]),
            (F25, [(2,), (2,), BOX, BOX]),
        ]
        for frame, shape in cases:
            r = len(shape)
            expected = lr_coefficient(frame.rectangle(), shape)
            for tree in all_trees(r):
                assert fiber_count(tree, shape, frame) == expected, (shape, tree)


@pytest.mark.parametrize("shape,index", [
    ([(), (2,), BOX, BOX], 1), ([BOX, BOX, (2,), ()], 4),
    ([BOX] * 3 + [()] * 2, 4)])
def test_cover_graph_empty_condition(shape, index):
    with pytest.raises(ValueError, match=f"^condition {index} of .* is "
                       f"empty; each condition needs at least one box$"):
        build_cover_graph(F24, shape)


def reference_node_labelings(tree, shape, frame):
    """node_labelings as it was before the edge-size rule: every partition
    of the frame tried on every internal edge, pruned by the running
    vertex sums, and the Littlewood-Richardson test made on complete
    labelings through lr_coefficient."""
    shape = tuple(normalize(lam) for lam in shape)
    if sum(sum(lam) for lam in shape) != frame.size:
        return []
    adj = {}
    for v, w in tree:
        adj.setdefault(v, []).append(w)
        adj.setdefault(w, []).append(v)
    adj = {v: sorted(adj[v]) for v in sorted(adj)}
    internal = [v for v in adj if v < 0]
    all_parts = partitions_in(frame)
    internal_edges = [(v, w) for v, w in tree if w < 0]
    labelings = []

    def vertex_ok(assign, v, complete):
        total = 0
        for w in adj[v]:
            if w > 0:
                total += sum(shape[w - 1])
            else:
                e = (min(v, w), max(v, w))
                if e not in assign:
                    return not complete
                nu = assign[e] if v == e[0] else complement(assign[e], frame)
                total += sum(nu)
        return total == frame.size if complete else total <= frame.size

    def build(idx, assign):
        if idx == len(internal_edges):
            if all(vertex_ok(assign, v, True) for v in internal):
                out = {}
                for v in internal:
                    for w in adj[v]:
                        if w > 0:
                            out[(v, w)] = shape[w - 1]
                        else:
                            e = (min(v, w), max(v, w))
                            out[(v, w)] = (assign[e] if v == e[0]
                                           else complement(assign[e], frame))
                for v in internal:
                    incident = [out[(v, w)] for w in adj[v]]
                    if lr_coefficient(frame.rectangle(), incident) == 0:
                        return
                labelings.append(out)
            return
        e = internal_edges[idx]
        for nu in all_parts:
            assign[e] = nu
            if vertex_ok(assign, e[0], False) and \
                    vertex_ok(assign, e[1], False):
                build(idx + 1, assign)
            del assign[e]

    build(0, {})
    return labelings


# the shapes of check_properties' tree-independence cases, and mixed
# shapes in the (2,6) box
LABELING_CASES = [
    (F24, [BOX] * 4), (F24, [(2,), BOX, BOX]),
    (F25, [(2,), BOX, BOX, BOX, BOX]), (F25, [(2,), (2,), BOX, BOX]),
    (F25, [(1, 1), (2,), BOX, BOX]),
    (F26, [(3, 1), (2,), BOX, BOX]), (F26, [(2, 1), (2,), BOX, BOX, BOX]),
    (F26, [(2,), (1, 1), (2,), BOX, BOX]),
    (F26, [(2,), (2,), BOX, BOX, BOX, BOX]),
    (F26, [(1, 1), BOX, (2,), BOX, BOX, BOX]),
]


@pytest.mark.parametrize("frame,shape", LABELING_CASES,
                         ids=[f"{f.d}{f.n}-{s}" for f, s in LABELING_CASES])
def test_node_labelings_match_brute_force(frame, shape):
    # the same labelings, as ordered lists, on every tree
    expected = lr_coefficient(frame.rectangle(), shape)
    for tree in all_trees(len(shape)):
        got = node_labelings(tree, shape, frame)
        assert got == reference_node_labelings(tree, shape, frame), tree
        assert fiber_count(tree, shape, frame) == expected, tree


def test_node_labelings_size_mismatch_and_empty_fiber():
    tree = TestTrees.caterpillar_tree(4)
    for shape in ([(2, 2), BOX, BOX, (1, 1)], [BOX] * 3 + [(2,)],
                  [(2,), (2,), (2,), (2,)]):
        assert node_labelings(tree, shape, F24) == \
            reference_node_labelings(tree, shape, F24)
