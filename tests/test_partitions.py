"""Tests for the partition layer: complement, index sets, covers, chain
counts, and brute-force Littlewood-Richardson coefficients; and the one
enumeration of the shapes between two partitions against the box walks
it replaced."""

import random
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from growth.partitions import (
    Frame, _shapes_between, complement, contains, covers, fiber_size,
    index_set, intermediates, is_domino, lr_coefficient, normalize,
    partitions_in, syt_count,
)


def all_partitions(frame: Frame):
    """Every partition fitting in the frame."""
    out = []

    def build(row, prev, acc):
        if row == frame.d:
            out.append(normalize(acc))
            return
        for v in range(min(prev, frame.cols) + 1):
            build(row + 1, v, acc + [v])

    build(0, frame.cols, [])
    return sorted(set(out))


def from_index_set(subset, frame: Frame) -> tuple[int, ...]:
    """The inverse of index_set: the round trips through it show that
    index_set is a bijection onto the d-subsets of [n]."""
    elems = sorted(subset)
    if len(elems) != frame.d or any(not (1 <= e <= frame.n) for e in elems):
        raise ValueError(f"{subset} is not a {frame.d}-subset of [1,{frame.n}]")
    if len(set(elems)) != frame.d:
        raise ValueError(f"repeated elements in {subset}")
    parts = [elems[k - 1] - k for k in range(frame.d, 0, -1)]
    return normalize(parts)


F24 = Frame(2, 4)
F25 = Frame(2, 5)


class TestComplement:
    def test_empty_gives_rectangle(self):
        assert complement((), F25) == (3, 3)

    def test_examples(self):
        assert complement((3, 1), F25) == (2,)
        assert complement((1,), F24) == (2, 1)

    def test_involution_and_size(self):
        for frame in (F24, F25, Frame(3, 6)):
            for lam in all_partitions(frame):
                assert complement(complement(lam, frame), frame) == lam
                assert sum(lam) + sum(complement(lam, frame)) == frame.size

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            complement((5,), F24)


class TestIndexSet:
    def test_examples(self):
        assert index_set((1,), F24) == {1, 3}
        assert index_set((), F24) == {1, 2}
        assert index_set((3, 1), Frame(2, 6)) == {2, 5}

    def test_round_trip(self):
        for frame in (F24, F25, Frame(3, 6)):
            for lam in all_partitions(frame):
                assert from_index_set(index_set(lam, frame), frame) == lam

    def test_all_subsets_hit(self):
        frame = F25
        from itertools import combinations
        for sub in combinations(range(1, frame.n + 1), frame.d):
            lam = from_index_set(set(sub), frame)
            assert index_set(lam, frame) == set(sub)

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            from_index_set({1}, F24)
        with pytest.raises(ValueError):
            from_index_set({0, 3}, F24)


class TestCovers:
    def test_examples(self):
        assert covers((1,), F24) == [(2,), (1, 1)]
        assert covers((2, 2), F24) == []
        # (3,1) is at the column bound in frame (2,5); only row 2 can grow
        assert covers((3, 1), F25) == [(3, 2)]
        assert covers((3, 1), Frame(2, 6)) == [(4, 1), (3, 2)]

    def test_cover_characterization(self):
        for lam in all_partitions(F25):
            cov = covers(lam, F25)
            for mu in all_partitions(F25):
                should = contains(mu, lam) and sum(mu) == sum(lam) + 1
                assert (mu in cov) == should

    def test_order_by_row(self):
        # ascending row of the added box
        assert covers((2, 1), F25) == [(3, 1), (2, 2)]
        assert covers((2, 1), F24) == [(2, 2)]


class TestIntermediates:
    def test_nonadjacent(self):
        assert intermediates((2,), (3, 1)) == [(3,), (2, 1)]
        assert intermediates((1,), (2, 1)) == [(2,), (1, 1)]
        assert not is_domino((1,), (2, 1))

    def test_dominoes(self):
        assert intermediates((), (2,)) == [(1,)]
        assert intermediates((), (1, 1)) == [(1,)]
        assert is_domino((), (2,)) and is_domino((), (1, 1))
        # vertical domino in columns > 1
        assert intermediates((1, 1), (2, 2)) == [(2, 1)]


class TestSytCount:
    def test_examples(self):
        assert syt_count((3, 3)) == 5
        assert syt_count((2, 2), (1,)) == 2
        for lam in all_partitions(F24):
            assert syt_count(lam, lam) == 1

    def test_rectangle_formula(self):
        # the hook-length count of the all-box fiber against the chains
        for frame in (F24, F25, Frame(3, 6), Frame(2, 6)):
            assert syt_count(frame.rectangle()) == \
                fiber_size(frame, [(1,)] * frame.size)

    def test_non_contained(self):
        with pytest.raises(ValueError):
            syt_count((1, 1), (2,))


# The box walks that covers, intermediates and the chain count ran
# before all three read _shapes_between, and that function's walk before
# it was pruned by size: references for the differential tests below.

def ref_add_box(lam, row):
    parts = list(lam) + [0] * (row + 1 - len(lam))
    parts[row] += 1
    return normalize(parts)


def ref_covers(lam, frame):
    if not (len(lam) <= frame.d and (not lam or lam[0] <= frame.cols)):
        raise ValueError(f"{lam} does not fit in {frame}")
    out = []
    for row in range(frame.d):
        cur = lam[row] if row < len(lam) else 0
        above = (lam[row - 1] if row - 1 < len(lam) else 0) if row >= 1 \
            else frame.cols
        if cur < frame.cols and cur < above:
            out.append(ref_add_box(lam, row))
    return out


def ref_down_covers(lam):
    out = []
    for row in range(len(lam)):
        below = lam[row + 1] if row + 1 < len(lam) else 0
        if lam[row] > below:
            parts = list(lam)
            parts[row] -= 1
            out.append(normalize(parts))
    return out


def ref_intermediates(bottom, top):
    if sum(top) != sum(bottom) + 2 or not contains(top, bottom):
        raise ValueError(f"{top}/{bottom} is not a two-box skew shape")
    rows = []
    for row in range(len(top)):
        b = bottom[row] if row < len(bottom) else 0
        rows.extend([row] * (top[row] - b))
    out = []
    for row in rows[:1] if rows[0] == rows[1] else rows:
        above = (bottom[row - 1] if row - 1 < len(bottom) else 0) \
            if row else None
        if row and (bottom[row] if row < len(bottom) else 0) >= above:
            continue
        cand = ref_add_box(bottom, row)
        if contains(top, cand) and cand not in out:
            out.append(cand)
    return out


def ref_walk(inner, outer):
    """The unpruned walk: every partition between inner and outer, of any
    size, in its order.  It kept those of the target size."""
    out = []

    def build2(row, prev, acc):
        if row == len(outer):
            out.append(normalize(acc))
            return
        lo = inner[row] if row < len(inner) else 0
        hi = min(outer[row], prev)
        for v in range(lo, hi + 1):
            build2(row + 1, v, acc + [v])

    build2(0, outer[0] if outer else 0, [])
    return out


@cache
def ref_chain_count(inner, outer):
    if inner == outer:
        return 1
    return sum(ref_chain_count(inner, mu) for mu in ref_down_covers(outer)
               if contains(mu, inner))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


DIFF_FRAMES = [Frame(d, n) for d in range(5) for n in range(d, d + 7)]


@pytest.mark.parametrize("frame", DIFF_FRAMES, ids=str)
class TestOneEnumeration:
    def test_shapes_between(self, frame):
        # every inner <= outer of the frame and every size from 0 to one
        # past the rectangle: the same shapes in the same order, and the
        # down covers of outer above inner, in ascending row of the
        # removed box, are the shapes one box smaller; a pair that is not
        # nested has no shapes at any size
        parts = partitions_in(frame)
        for inner, outer in product(parts, repeat=2):
            if not contains(outer, inner):
                for size in range(frame.size + 2):
                    assert _shapes_between.__wrapped__(
                        inner, outer, size) == (), (inner, outer, size)
                continue
            by_size = [[] for _ in range(frame.size + 2)]
            for nu in ref_walk(inner, outer):
                by_size[sum(nu)].append(nu)
            for size, want in enumerate(by_size):
                assert _shapes_between.__wrapped__(inner, outer, size) == \
                    tuple(want), (inner, outer, size)
            assert _shapes_between.__wrapped__(
                inner, outer, sum(outer) - 1) == tuple(
                    mu for mu in ref_down_covers(outer)
                    if contains(mu, inner))

    def test_covers_intermediates_and_chain_counts(self, frame):
        parts = partitions_in(frame)
        for lam in parts:
            assert covers(lam, frame) == ref_covers(lam, frame)
        for bottom, top in product(parts, repeat=2):
            assert outcome(intermediates, bottom, top) == \
                outcome(ref_intermediates, bottom, top), (bottom, top)
            if contains(top, bottom):
                assert syt_count(top, bottom) == \
                    ref_chain_count(bottom, top), (bottom, top)
            else:
                with pytest.raises(ValueError):
                    syt_count(top, bottom)

    def test_covers_outside_the_frame(self, frame):
        for lam in [(frame.cols + 1,), (1,) * (frame.d + 1)]:
            assert outcome(covers, lam, frame) == outcome(ref_covers, lam,
                                                          frame)


class TestLR:
    def test_examples(self):
        box = (1,)
        assert lr_coefficient((2, 2), [box] * 4) == 2
        assert lr_coefficient((3, 2), [(3, 1), box]) == 1
        assert lr_coefficient((4, 2), [(3, 1), box, box]) == 2

    def test_size_mismatch_is_zero(self):
        assert lr_coefficient((2, 2), [(1,)]) == 0

    def test_pieri(self):
        for frame in (F24, F25):
            for lam in all_partitions(frame):
                for mu in all_partitions(frame):
                    if sum(mu) == sum(lam) + 1:
                        c = lr_coefficient(mu, [lam, (1,)])
                        assert c in (0, 1)
                        assert (c == 1) == (mu in covers(lam, frame))

    @pytest.mark.parametrize("frame", [F24, F25])
    def test_complement_identity(self, frame):
        rect = frame.rectangle()
        parts = all_partitions(frame)
        shapes = []
        for a in parts:
            for b in parts:
                for c in parts:
                    if sum(a) + sum(b) + sum(c) == frame.size:
                        shapes.append((a, b, c))
        for a, b, c in shapes:
            assert lr_coefficient(rect, [a, b, c]) == \
                lr_coefficient(complement(c, frame), [a, b])

    def test_permutation_invariance(self):
        frame = F24
        rect = frame.rectangle()
        parts = all_partitions(frame)
        for a in parts:
            for b in parts:
                for c in parts:
                    if sum(a) + sum(b) + sum(c) != frame.size:
                        continue
                    vals = {lr_coefficient(rect, list(p))
                            for p in permutations((a, b, c))}
                    assert len(vals) == 1

    def test_single_factor(self):
        assert lr_coefficient((2, 1), [(2, 1)]) == 1
        assert lr_coefficient((2, 1), [(3,)]) == 0

    def test_rectangle_of_single_boxes(self):
        # the walk between two shapes enters only shapes that leave a
        # completion of the target size, so 50 factors over the 5 x 10
        # box take a fraction of a second
        frame = Frame(5, 15)
        assert lr_coefficient(frame.rectangle(), [(1,)] * 50) == \
            fiber_size(frame, [(1,)] * 50)

    def test_against_chain_count_for_boxes(self):
        # all-box products count standard tableaux
        for frame in (F24, F25):
            for lam in all_partitions(frame):
                k = sum(lam)
                assert lr_coefficient(lam, [(1,)] * k) == syt_count(lam)


def random_conditions(frame: Frame, rng: random.Random):
    """Conditions of at most four boxes filling the frame's size, single
    boxes among them, in a random order.  In some draws one condition is
    a row or a column that does not fit the box, and in others there is
    one box too many or too few."""
    small = [lam for lam in partitions_in(Frame(4, 8)) if 0 < sum(lam) <= 4]
    change = rng.randrange(8)
    shape = {2: [(frame.cols + 1,)], 3: [(1,) * (frame.d + 1)]}.get(change, [])
    left = frame.size - sum(map(sum, shape))
    while left:
        lam = rng.choice([(1,)] + [mu for mu in small if sum(mu) <= left])
        shape.append(lam)
        left -= sum(lam)
    rng.shuffle(shape)
    if change == 0:
        shape.append((1,))
    elif change == 1:
        shape.pop()
    return shape


@pytest.mark.parametrize("frame", [F25, Frame(3, 7), Frame(4, 8),
                                   Frame(3, 8)],
                         ids=lambda frame: f"({frame.d},{frame.n})")
def test_fiber_size_is_the_lr_coefficient(frame):
    # the boxes-last sum against the all-factor chain sum, on shapes that
    # fill the box, miss its size and hold a condition that does not fit
    rng = random.Random(f"{frame.d},{frame.n}")
    rect = frame.rectangle()
    for _ in range(100):
        shape = random_conditions(frame, rng)
        assert fiber_size(frame, shape) == lr_coefficient(rect, shape), shape
    mismatched = [(1,)] * (frame.size - 1)
    assert fiber_size(frame, mismatched) == 0
    assert fiber_size(frame, mismatched + [(2,)]) == 0


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3))
def test_normalize_idempotent(parts):
    parts = sorted(parts, reverse=True)
    assert normalize(normalize(parts)) == normalize(parts)


def normalize_reference(parts):
    """The three-pass body normalize had before its one-pass rewrite: strip
    trailing zeros, then check the order, then the signs."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not weakly decreasing: {parts}")
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part: {parts}")
    return parts


def normalize_outcome(fn, parts):
    try:
        return fn(parts)
    except ValueError as exc:
        return ValueError, str(exc)


@given(st.lists(st.integers(min_value=-2, max_value=3), max_size=5))
def test_normalize_matches_reference(parts):
    # the same value or the same error, message included
    assert normalize_outcome(normalize, parts) == \
        normalize_outcome(normalize_reference, parts)


def test_normalize_reference_cases():
    for parts in [(), (0,), (0, 0), (2, 1, 0), (1, 2, 0), (0, -1),
                  (-1, 0), (3, -1), (1, 0, 1), (-1, -2), [2, 2]]:
        assert normalize_outcome(normalize, parts) == \
            normalize_outcome(normalize_reference, parts)
