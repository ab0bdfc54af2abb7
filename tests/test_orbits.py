"""Tests of enumeration by promotion orbits: the orbit path against the
per-chain list it replaced, validation of every output, rotation as
re-solving from another row, and the cyclic sieving phenomenon for
promotion on rectangles (Rhoades 2010) with the q-hook polynomial.  Class
diagrams are grown once per orbit of the rotations that keep their
contents; their fibers are checked against one construction per first
row."""

import cmath
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from growth.checks import (
    at_primitive_root, check_counts, q_hook, rotation_fixed,
)
from growth import checks
from growth.cylgrowth import (
    _Completion, cgd_enumerate, cgd_from_path, cgd_validate, row_path,
)
from growth.decgd import decgd_enumerate, decgd_from_first_row, restrict_cgd
from growth.partitions import Frame, added_box, syt_count
from growth.tableaux import DualClass, enumerate_chains
from test_decgd import decgd_validate
from test_walks import ref_decgd_enumerate

FRAMES = [Frame(d, n) for n in range(2, 8) for d in range(1, n)]
DIAGRAMS = {frame: cgd_enumerate(frame) for frame in FRAMES}


def per_chain(frame):
    """The enumeration the orbit path replaced: one solve per chain."""
    return [cgd_from_path(row_path(frame.size), chain, frame)
            for chain in enumerate_chains(frame.rectangle(), ())]


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_equals_per_chain_list(frame):
    assert DIAGRAMS[frame] == per_chain(frame)


@pytest.mark.parametrize("frame", FRAMES + [Frame(4, 8)], ids=str)
def test_every_output_validates(frame):
    diagrams = DIAGRAMS.get(frame) or cgd_enumerate(frame)
    assert len(diagrams) == syt_count(frame.rectangle())
    assert len(set(diagrams)) == len(diagrams)
    for g in diagrams:
        assert cgd_validate(g) == (True, [])


@pytest.mark.parametrize("frame,orbits", [
    (Frame(2, 5), 2), (Frame(3, 6), 6), (Frame(3, 7), 44), (Frame(3, 8), 406),
], ids=str)
def test_one_solve_per_orbit(frame, orbits, monkeypatch):
    # Burnside: the orbits of rotation are the average number of
    # diagrams each rotation fixes
    solves = []
    solve = _Completion.solve
    monkeypatch.setattr(_Completion, "solve",
                        lambda self: solves.append(self) or solve(self))
    diagrams = cgd_enumerate(frame)
    n = frame.size
    fixed = sum(rotation_fixed(diagrams, k) for k in range(n))
    assert fixed % n == 0
    assert len(solves) == fixed // n == orbits


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAMES), st.data())
def test_rotation_is_solving_from_another_row(frame, data):
    g = data.draw(st.sampled_from(DIAGRAMS[frame]))
    t = data.draw(st.integers(0, frame.size - 1))
    rebuilt = cgd_from_path(row_path(frame.size), g.row(t), frame)
    assert rebuilt.rows == g.rows[t:] + g.rows[:t]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FRAMES), st.data())
def test_cyclic_sieving(frame, data):
    n = frame.size
    k = data.draw(st.integers(0, n - 1))
    assert rotation_fixed(DIAGRAMS[frame], k) == \
        at_primitive_root(q_hook(frame), n // gcd(k, n))


def major_index(chain) -> int:
    """maj of a standard tableau: the i whose box i + 1 lies in a lower
    row than box i."""
    rows = [added_box(a, b)[0] for a, b in zip(chain, chain[1:])]
    return sum(i + 1 for i in range(len(rows) - 1) if rows[i + 1] > rows[i])


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_q_hook_is_the_major_index_generating_function(frame):
    # sum of q^maj(T) over standard tableaux T is q^b [N]_q! / prod [h]_q,
    # b the sum of (i - 1) lambda_i
    rect = frame.rectangle()
    shift = sum(i * part for i, part in enumerate(rect))
    counts = [0] * (frame.size * frame.size + 1)
    for chain in enumerate_chains(rect, ()):
        counts[major_index(chain) - shift] += 1
    poly = q_hook(frame)
    assert counts[:len(poly)] == poly
    assert not any(counts[len(poly):])


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_at_primitive_root_numerically(frame):
    poly = q_hook(frame)
    for m in range(1, frame.size + 1):
        if frame.size % m:
            continue
        w = cmath.exp(2j * cmath.pi / m)
        value = sum(c * w ** e for e, c in enumerate(poly))
        assert abs(value - at_primitive_root(poly, m)) < 1e-6


def test_at_primitive_root_refuses_an_irrational_value():
    # 1 + q at a primitive third root of unity is -w^2, not rational
    assert at_primitive_root([1, 1], 3) is None
    assert at_primitive_root([1, 1], 2) == 0


def test_sieve_failure_names_frame_and_k(monkeypatch):
    # five copies of a diagram fixed by rotation 2 keep the count at 5
    frame = Frame(2, 5)
    fixed_by_2 = next(g for g in DIAGRAMS[frame]
                      if g.rows[2:] + g.rows[:2] == g.rows)
    monkeypatch.setattr(checks, "cgd_enumerate",
                        lambda f: [fixed_by_2] * 5 if f == frame
                        else DIAGRAMS[f])
    assert check_counts() == (
        False, "Frame(d=2, n=5): rotation by 2 fixes 5 diagrams, the q-hook "
        "sieve gives 2")


BOX, DOMINO, COLUMN, HOOK = (1,), (2,), (1, 1), (2, 1)
# (frame, contents, diagrams, orbits of the rotations by multiples of the
# contents' period)
CLASS_FIBERS = [
    (Frame(2, 4), (BOX,) * 4, 2, 1),
    (Frame(3, 6), (DOMINO, BOX) * 3, 6, 4),
    (Frame(3, 6), (HOOK, BOX, DOMINO, COLUMN, BOX), 4, 4),
    (Frame(2, 7), (BOX,) * 10, 42, 6),
    (Frame(2, 8), (DOMINO, BOX) * 4, 30, 10),
    (Frame(3, 7), (BOX,) * 12, 462, 44),
    (Frame(3, 7), (DOMINO, DOMINO, BOX, BOX) * 2, 45, 27),
    (Frame(3, 8), (BOX,) * 15, 6006, 406),
]


def shape_id(frame, shape, *counts) -> str:
    return f"({frame.d},{frame.n}) " + ";".join(
        ",".join(map(str, lam)) for lam in shape)


@pytest.mark.parametrize("frame,shape,count,orbits", CLASS_FIBERS,
                         ids=[shape_id(*case) for case in CLASS_FIBERS])
def test_class_fiber_by_orbits(frame, shape, count, orbits, monkeypatch):
    solves = []
    solve = _Completion.solve
    monkeypatch.setattr(_Completion, "solve",
                        lambda self: solves.append(self) or solve(self))
    fiber = decgd_enumerate(frame, shape)
    assert len(fiber) == count
    # Burnside: the orbits of the rotations by multiples of the period p
    # are the average number of diagrams each of them fixes; row 0 fixes
    # a diagram, so a rotation fixes it when it fixes the row classes
    r = len(shape)
    p = next(t for t in range(1, r + 1) if shape[t:] + shape[:t] == shape)
    fixed = sum(d.a[t:] + d.a[:t] == d.a
                for t in range(0, r, p) for d in fiber)
    assert fixed * p % r == 0
    assert len(solves) == fixed * p // r == orbits
    for d in fiber:
        assert decgd_validate(d) == (True, [])
    if count <= 462:
        assert fiber == ref_decgd_enumerate(frame, shape)
    else:
        # the per-first-row list on every eleventh diagram; the first rows
        # are the row-0 chains in lexicographic order
        assert [d.a[0] for d in fiber] == [
            tuple(DualClass.of(chain[i:i + 2]) for i in range(r))
            for chain in enumerate_chains(frame.rectangle(), ())]
        for d in fiber[::11]:
            assert d == decgd_from_first_row(d.a[0], frame)


@pytest.mark.parametrize("frame", [
    Frame(2, 4), Frame(2, 5), Frame(2, 6), Frame(3, 6), Frame(2, 7),
    Frame(3, 7),
], ids=str)
def test_box_fiber_is_the_fine_enumeration_restricted(frame):
    r = frame.size
    assert decgd_enumerate(frame, (BOX,) * r) == [
        restrict_cgd(g, (1,) * r) for g in DIAGRAMS[frame]]
