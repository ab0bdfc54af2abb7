"""Tests for chains, shuffling, rectification, and dual equivalence.

The small d x (n-d) boxes are exhaustively enumerable, so most properties
are checked over every tableau in frame (2,4)."""

import pytest
from hypothesis import given, strategies as st

from growth.partitions import (
    Frame, contains, lr_coefficient, normalize, partitions_in, syt_count,
)
from growth.tableaux import (
    DualClass, canonical_rep, dual_classes, enumerate_chains, other_middle,
    rectify, rshape, shuffle, shuffle_classes, superstandard, validate_chain,
)
from test_partitions import all_partitions

F24 = Frame(2, 4)


def consecutive_pairs(frame):
    """All (lower, upper) tableau pairs with matching middle shape."""
    parts = all_partitions(frame)
    for mu in parts:
        for nu in parts:
            for lower in enumerate_chains(nu, mu):
                for pi in parts:
                    for upper in enumerate_chains(pi, nu):
                        yield lower, upper


def all_skew_chains(frame):
    parts = all_partitions(frame)
    for mu in parts:
        for nu in parts:
            yield from enumerate_chains(nu, mu)


def reference_chains(outer, inner):
    """enumerate_chains by the earlier recursion: every step pads the
    shape to a list, normalizes it and checks containment in outer."""
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner):
        return []
    out = []

    def build(acc):
        cur = acc[-1]
        if cur == outer:
            out.append(tuple(acc))
            return
        for row in range(len(outer)):
            c = cur[row] if row < len(cur) else 0
            above = (cur[row - 1] if row - 1 < len(cur) else 0) if row else None
            if c >= outer[row]:
                continue
            if row and c >= above:
                continue
            nxt = list(cur) + [0] * (row + 1 - len(cur))
            nxt[row] += 1
            nxt = normalize(nxt)
            if contains(outer, nxt):
                build(acc + [nxt])

    build([inner])
    return sorted(out)


def reference_dual_classes(outer, inner, target_rshape=None):
    """dual_classes by the earlier list scan: a class is kept when it is
    not yet in the list and has the target shape."""
    outer, inner = normalize(outer), normalize(inner)
    if target_rshape is not None:
        target_rshape = normalize(target_rshape)
        if sum(outer) - sum(inner) != sum(target_rshape):
            return []
    seen = []
    for t in enumerate_chains(outer, inner):
        cls = DualClass.of(t)
        if cls not in seen and (target_rshape is None
                                or cls.rshape == target_rshape):
            seen.append(cls)
    return seen


class TestEnumerateChains:
    # (4,8) holds 465,210 chains over all its pairs, which the reference
    # takes seconds to build, so there only skews of at most 8 boxes
    @pytest.mark.parametrize("frame,most", [
        (F24, 4), (Frame(2, 6), 8), (Frame(3, 6), 9), (Frame(3, 7), 12),
        (Frame(4, 8), 8)], ids=str)
    def test_matches_reference(self, frame, most):
        # every (outer, inner) pair of the box, contained or not
        parts = partitions_in(frame)
        for outer in parts:
            for inner in parts:
                if sum(outer) - sum(inner) <= most:
                    assert enumerate_chains(outer, inner) == \
                        reference_chains(outer, inner), (outer, inner)

    def test_unnormalized_and_empty(self):
        assert enumerate_chains([2, 1, 0], [1, 0]) == \
            [((1,), (1, 1), (2, 1)), ((1,), (2,), (2, 1))]
        assert enumerate_chains((2,), (2,)) == [((2,),)]
        assert enumerate_chains((), ()) == [((),)]
        assert enumerate_chains((1,), (1, 1)) == []

    @given(st.lists(st.integers(0, 4), max_size=4),
           st.lists(st.integers(0, 4), max_size=4))
    def test_count_is_syt_count(self, a, b):
        outer = normalize(sorted(a, reverse=True))
        inner = normalize(sorted(b, reverse=True))
        if contains(outer, inner):
            assert len(enumerate_chains(outer, inner)) == \
                syt_count(outer, inner)
        else:
            assert enumerate_chains(outer, inner) == []


class TestLocalRule:
    def test_printed_example(self):
        # bottom (4,2,1), one middle (4,2,2), top (4,3,2): other middle forced
        assert other_middle((4, 2, 1), (4, 3, 2), (4, 2, 2)) == (4, 3, 1)

    def test_unique_choice(self):
        assert other_middle((4, 2, 1), (4, 4, 1), (4, 3, 1)) == (4, 3, 1)

    def test_domino_square_is_rigid(self):
        assert other_middle((), (2,), (1,)) == (1,)
        assert other_middle((), (1, 1), (1,)) == (1,)

    def test_nonadjacent_swaps(self):
        assert other_middle((1,), (2, 1), (2,)) == (1, 1)
        assert other_middle((1,), (2, 1), (1, 1)) == (2,)


class TestSuperstandard:
    def test_row_reading(self):
        assert superstandard((2, 1)) == ((), (1,), (2,), (2, 1))
        assert superstandard((2, 2)) == ((), (1,), (2,), (2, 1), (2, 2))
        assert superstandard(()) == ((),)


class TestShuffle:
    def test_rigid_single_boxes(self):
        assert shuffle(((), (1,)), ((1,), (2,))) == (((), (1,)), ((1,), (2,)))
        assert shuffle(((), (1,)), ((1,), (1, 1))) == \
            (((), (1,)), ((1,), (1, 1)))

    def test_nonadjacent_single_boxes_flip(self):
        lower = ((1,), (1, 1))
        upper = ((1, 1), (2, 1))
        new_lower, new_upper = shuffle(lower, upper)
        assert new_lower == ((1,), (2,))
        assert new_upper == ((2,), (2, 1))

    def test_involution_exhaustive(self):
        for lower, upper in consecutive_pairs(F24):
            new_lower, new_upper = shuffle(lower, upper)
            assert shuffle(new_lower, new_upper) == (lower, upper)

    def test_slide_classes_swap(self):
        # new_lower is slide equivalent to upper and vice versa
        for lower, upper in consecutive_pairs(F24):
            new_lower, new_upper = shuffle(lower, upper)
            assert rectify(new_lower) == rectify(upper)
            assert rectify(new_upper) == rectify(lower)

    def test_not_consecutive(self):
        with pytest.raises(ValueError):
            shuffle(((), (1,)), ((2,), (2, 1)))


class TestRectify:
    def test_straight_fixed(self):
        for lam in all_partitions(F24):
            for t in enumerate_chains(lam, ()):
                assert rectify(t) == t
                assert rshape(t) == lam

    def test_two_cell_example(self):
        # skew tableau with 1 above 2 in adjacent columns rectifies to a column
        t = ((1,), (2,), (2, 1))
        assert rectify(t) == ((), (1,), (1, 1))

    def test_path_independence(self):
        # shuffling any straight tableau of the inner shape gives one answer
        for t in all_skew_chains(F24):
            if not t[0]:
                continue
            results = {shuffle(alpha, t)[0]
                       for alpha in enumerate_chains(t[0], ())}
            assert len(results) == 1
            assert results.pop() == rectify(t)


class TestCanonicalRep:
    def test_straight_goes_to_superstandard(self):
        for lam in all_partitions(F24):
            for t in enumerate_chains(lam, ()):
                assert canonical_rep(t) == superstandard(lam)

    def test_same_shape_and_idempotent(self):
        for t in all_skew_chains(F24):
            rep = canonical_rep(t)
            assert rep[0] == t[0] and rep[-1] == t[-1]
            assert canonical_rep(rep) == rep

    def test_rep_is_dual_equivalent_to_input(self):
        # the representative lies in the class it represents
        for t in all_skew_chains(F24):
            assert DualClass.of(t) == DualClass.of(canonical_rep(t))


class TestDualClassOf:
    @pytest.mark.parametrize("frame", [F24, Frame(3, 6)], ids=str)
    def test_rshape_is_rectification_shape(self, frame):
        # the class reads its shape off the canonical representative, so
        # it must agree with rectifying the tableau itself
        for t in all_skew_chains(frame):
            assert DualClass.of(t).rshape == rectify(t)[-1]


class TestDualEquivalence:
    def test_straight_all_equivalent(self):
        for lam in all_partitions(F24):
            chains = enumerate_chains(lam, ())
            for t1 in chains:
                for t2 in chains:
                    assert DualClass.of(t1) == DualClass.of(t2)

    def test_different_shapes(self):
        assert DualClass.of(((), (1,))) != DualClass.of(((1,), (2,)))

    def test_disconnected_two_cells(self):
        chains = enumerate_chains((2, 1), (1,))
        assert len(chains) == 2
        assert DualClass.of(chains[0]) != DualClass.of(chains[1])
        assert {rshape(t) for t in chains} == {(2,), (1, 1)}

    def test_class_counts_match_lr(self):
        parts = all_partitions(F24)
        for mu in parts:
            for nu in parts:
                classes = dual_classes(nu, mu)
                for lam in parts:
                    got = [c for c in classes if c.rshape == lam]
                    assert len(got) == lr_coefficient(nu, [mu, lam])
                    assert got == dual_classes(nu, mu, lam)

    def test_size_mismatch_empty(self):
        assert dual_classes((2, 2), (1,), (1,)) == []

    @pytest.mark.parametrize("frame", [Frame(2, 6), Frame(3, 6)], ids=str)
    def test_matches_list_scan(self, frame):
        # every skew of the box, with no target and with each partition
        # of the box as the target: the same classes in the same order
        parts = partitions_in(frame)
        for outer in parts:
            for inner in parts:
                if contains(outer, inner):
                    for target in (None,) + parts:
                        assert dual_classes(outer, inner, target) == \
                            reference_dual_classes(outer, inner, target), \
                            (outer, inner, target)

    def test_brute_force_oracle(self):
        # Two tableaux are dual equivalent iff shuffling past every
        # extension within the box has the same effect on the partner.
        parts = all_partitions(F24)

        def oracle(t1, t2):
            if t1[0] != t2[0] or t1[-1] != t2[-1] or len(t1) != len(t2):
                return False
            for kappa in parts:
                for eps in enumerate_chains(kappa, t1[-1]):
                    if shuffle(t1, eps)[0] != shuffle(t2, eps)[0]:
                        return False
                for alpha in enumerate_chains(t1[0], kappa):
                    if shuffle(alpha, t1)[1] != shuffle(alpha, t2)[1]:
                        return False
            return True

        chains = list(all_skew_chains(F24))
        for t1 in chains:
            for t2 in chains:
                if t1[0] == t2[0] and t1[-1] == t2[-1]:
                    same = DualClass.of(t1) == DualClass.of(t2)
                    assert same == oracle(t1, t2)


class TestShuffleClasses:
    def test_representative_independence(self):
        parts = all_partitions(F24)
        for mu in parts:
            for nu in parts:
                for pi in parts:
                    lows = dual_classes(nu, mu)
                    ups = dual_classes(pi, nu)
                    for a in lows:
                        for b in ups:
                            expected = None
                            for t1 in enumerate_chains(nu, mu):
                                if DualClass.of(t1) != a:
                                    continue
                                for t2 in enumerate_chains(pi, nu):
                                    if DualClass.of(t2) != b:
                                        continue
                                    nl, nu_ = shuffle(t1, t2)
                                    got = (DualClass.of(nl), DualClass.of(nu_))
                                    if expected is None:
                                        expected = got
                                    assert got == expected
                            assert expected == shuffle_classes(a, b)

    def test_involution_on_classes(self):
        parts = all_partitions(F24)
        for mu in parts:
            for nu in parts:
                for pi in parts:
                    for a in dual_classes(nu, mu):
                        for b in dual_classes(pi, nu):
                            x, y = shuffle_classes(a, b)
                            assert shuffle_classes(x, y) == (a, b)


def test_validate_chain_rejects_bad_steps():
    with pytest.raises(ValueError):
        validate_chain([(), (2,)])
    with pytest.raises(ValueError):
        validate_chain([])
