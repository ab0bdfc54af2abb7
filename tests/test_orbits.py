"""Tests of enumeration by promotion orbits: the orbit path against the
per-chain list it replaced, validation of every output, rotation as
re-solving from another row, and the cyclic sieving phenomenon for
promotion on rectangles (Rhoades 2010) with the q-hook polynomial."""

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
from growth.partitions import Frame, added_box, syt_count
from growth.tableaux import enumerate_chains

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
