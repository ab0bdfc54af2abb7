"""Differential tests of the lattice walks: the loops that go level by
level (``_shapes_between``, ``_chain_count``, ``_lr_multi``,
``enumerate_chains`` and ``decgd_enumerate``) and ``_lr2``'s depth-first
loop against the recursive versions they replaced, kept here as oracles.
``fiber_size``, which reads the last layer of one weighted walk, is
checked against the sum over the shapes of the other conditions, one
coefficient per shape, that it replaced.  The recursive versions cannot
reach the thin shapes at the end, whose walks are a thousand levels deep;
closed forms check those."""

import random
import tracemalloc
from functools import cache
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

from growth.decgd import check_shape, decgd_enumerate, decgd_from_first_row
from growth.partitions import (
    Frame, _chain_count, _lr2, _lr_multi, _shapes_between, complement,
    contains, fiber_size, hook_lengths, normalize, partitions_in,
)
from growth.tableaux import dual_classes, enumerate_chains
from test_partitions import DIFF_FRAMES


@cache
def ref_shapes_between(inner, outer, target_size):
    if not contains(outer, inner):
        return ()
    rows = len(outer)
    inner = (inner + (0,) * rows)[:rows]
    below = [sum(inner[row + 1:]) for row in range(rows)]
    out = []

    def walk(row, prev, left, acc):
        if row == rows:
            if not left:
                out.append(normalize(acc))
            return
        lo = max(inner[row], -(-left // (rows - row)))
        hi = min(outer[row], prev, left - below[row])
        for v in range(lo, hi + 1):
            walk(row + 1, v, left - v, acc + [v])

    walk(0, outer[0] if outer else 0, target_size, [])
    return tuple(out)


@cache
def ref_chain_count(inner, outer):
    if inner == outer:
        return 1
    return sum(ref_chain_count(inner, mu)
               for mu in ref_shapes_between(inner, outer, sum(outer) - 1))


def ref_lr2(outer, inner, content):
    if sum(outer) != sum(inner) + sum(content) or not contains(outer, inner):
        return 0
    rows = len(outer)
    inner_full = list(inner) + [0] * (rows - len(inner))
    maxval = len(content)
    cells = [(i, j) for i in range(rows)
             for j in range(outer[i] - 1, inner_full[i] - 1, -1)]
    grid = {}
    cnt = [0] * (maxval + 2)
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        lo = 1
        if i > 0 and j < (outer[i - 1] if i - 1 < rows else 0) \
                and j >= inner_full[i - 1]:
            lo = grid[(i - 1, j)] + 1
        hi = maxval
        if (i, j + 1) in grid:
            hi = grid[(i, j + 1)]
        for v in range(lo, hi + 1):
            if cnt[v] >= content[v - 1]:
                continue
            if v > 1 and cnt[v - 1] < cnt[v] + 1:
                continue
            grid[(i, j)] = v
            cnt[v] += 1
            place(idx + 1)
            cnt[v] -= 1
            del grid[(i, j)]

    place(0)
    return total


@cache
def ref_lr_multi(inner, factors, outer):
    if not factors:
        return 1 if inner == outer else 0
    head, rest = factors[0], factors[1:]
    if not rest:
        return ref_lr2(outer, inner, head)
    total = 0
    for nu in ref_shapes_between(inner, outer, sum(inner) + sum(head)):
        c = ref_lr2(nu, inner, head)
        if c:
            total += c * ref_lr_multi(nu, rest, outer)
    return total


def ref_fiber_size(frame, shape):
    """The fiber as a sum over each shape mu that the conditions other than
    single boxes fill: their coefficient on mu, one walk per mu, times the
    hook-length count of the tableaux of complement(mu)."""
    others = tuple(lam for lam in shape if lam != (1,))
    size = sum(map(sum, others))
    boxes = len(shape) - len(others)
    if size + boxes != frame.size:
        return 0
    return sum(c * factorial(boxes)
               // prod(hook_lengths(complement(mu, frame)))
               for mu in ref_shapes_between((), frame.rectangle(), size)
               if (c := ref_lr_multi((), others, mu)))


def ref_enumerate_chains(outer, inner):
    outer, inner = normalize(outer), normalize(inner)
    out = []
    acc = []

    def build(shapes, size):
        for nu in shapes:
            acc.append(nu)
            if nu == outer:
                out.append(tuple(acc))
            else:
                build(ref_shapes_between(nu, outer, size + 1), size + 1)
            acc.pop()

    build(ref_shapes_between(inner, outer, sum(inner)), sum(inner))
    return out


def ref_decgd_enumerate(frame, shape):
    shape = check_shape(shape)
    r = len(shape)
    if sum(sum(lam) for lam in shape) != frame.size:
        return []
    results = []

    def build(classes):
        m = len(classes)
        if m == r:
            results.append(decgd_from_first_row(classes, frame))
            return
        mu = classes[-1].outer if classes else ()
        target = sum(sum(lam) for lam in shape[:m + 1])
        for nu in ref_shapes_between(mu, frame.rectangle(), target):
            for cls in dual_classes(nu, mu, shape[m]):
                build(classes + [cls])

    build([])
    return results


SMALL_FRAMES = [Frame(d, n) for d in range(4) for n in range(d, d + 6)]


@pytest.mark.parametrize("frame", SMALL_FRAMES, ids=str)
def test_shapes_between_and_chain_count(frame):
    # every pair of partitions of the frame, nested or not, at every size
    # from one below the empty shape to one past the rectangle
    parts = partitions_in(frame)
    for inner, outer in product(parts, repeat=2):
        for size in range(-1, frame.size + 2):
            assert _shapes_between.__wrapped__(inner, outer, size) == \
                ref_shapes_between(inner, outer, size), (inner, outer, size)
        assert _chain_count.__wrapped__(inner, outer) == \
            ref_chain_count(inner, outer), (inner, outer)


def test_lr2():
    # every pair of partitions of the 3 x 4 box, and every content of at
    # most four boxes
    parts = partitions_in(Frame(3, 7))
    contents = [lam for lam in partitions_in(Frame(4, 8)) if sum(lam) <= 4]
    nonzero = 0
    for outer, inner, content in product(parts, parts, contents):
        want = ref_lr2(outer, inner, content)
        assert _lr2.__wrapped__(outer, inner, content) == want, \
            (outer, inner, content)
        nonzero += want > 0
    assert nonzero > 400


def test_lr2_holds_one_filling():
    # a wide search: 1,488 fillings of 40 cells, and more partial ones,
    # which a walk holding a level at a time would keep all at once
    tracemalloc.start()
    try:
        assert _lr2.__wrapped__(tuple(range(10, 0, -1)), (5, 4, 3, 2, 1),
                                (8, 7, 6, 5, 4, 3, 3, 2, 1, 1)) == 1488
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000, peak


@pytest.mark.parametrize("seed", range(4))
def test_lr_multi(seed):
    # random factor lists on random frames, the outer shape mostly of the
    # size the factors fill
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(250):
        parts = partitions_in(Frame(rng.randint(1, 4), rng.randint(5, 8)))
        inner = rng.choice(parts)
        factors = tuple(rng.choice(parts) for _ in range(rng.randint(0, 4)))
        size = sum(inner) + sum(map(sum, factors))
        fitting = [lam for lam in parts if sum(lam) == size]
        outer = rng.choice(fitting if fitting and rng.random() < 0.8
                           else parts)
        want = ref_lr_multi(inner, factors, outer)
        assert _lr_multi.__wrapped__(inner, factors, outer) == want, \
            (inner, factors, outer)
        nonzero += want > 0
    assert nonzero > 20


@pytest.mark.parametrize("frame", [Frame(2, 6), Frame(3, 6)], ids=str)
@pytest.mark.parametrize("r", [3, 4])
def test_fiber_size_on_every_shape(frame, r):
    # every multiset of r nonempty conditions of the frame; most miss its
    # size, and those that fill it mix single boxes with other shapes
    parts = partitions_in(frame)[1:]
    filled = 0
    for shape in combinations_with_replacement(parts, r):
        want = ref_fiber_size(frame, shape)
        assert fiber_size(frame, shape) == want, shape
        filled += want > 0
    assert filled > 10


@pytest.mark.parametrize("seed", range(3))
def test_fiber_size_on_mixed_shapes(seed):
    # random conditions filling frames up to (4,8), about half of them
    # single boxes, in a random order
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(40):
        frame = Frame(rng.randint(2, 4), rng.randint(6, 8))
        parts = [lam for lam in partitions_in(frame) if 0 < sum(lam) <= 6]
        shape, left = [], frame.size
        while left:
            lam = (1,) if rng.random() < 0.5 else \
                rng.choice([lam for lam in parts if sum(lam) <= left])
            shape.append(lam)
            left -= sum(lam)
        want = ref_fiber_size(frame, shape)
        assert fiber_size(frame, shape) == want, (frame, shape)
        nonzero += want > 0
    assert nonzero > 20


def shapes_of(frame, rng, count=4, most=40):
    """Up to count random shapes of at least three conditions of at most
    four boxes that fill the frame, each with at most most diagrams."""
    parts = [lam for lam in partitions_in(frame) if 0 < sum(lam) <= 4]
    shapes = []
    for _ in range(20 * count):
        shape, left = [], frame.size
        while left:
            shape.append(rng.choice([lam for lam in parts
                                     if sum(lam) <= left]))
            left -= sum(shape[-1])
        if len(shape) >= 3 and fiber_size(frame, shape) <= most:
            shapes.append(tuple(shape))
        if len(shapes) == count:
            break
    return shapes


@pytest.mark.parametrize("frame", DIFF_FRAMES, ids=str)
def test_enumerations(frame):
    # the tableaux between every nested pair of the frame at most five
    # boxes apart, and none for a pair that is not nested
    parts = partitions_in(frame)
    for inner, outer in product(parts, repeat=2):
        if sum(outer) - sum(inner) <= 5:
            assert enumerate_chains(outer, inner) == \
                ref_enumerate_chains(outer, inner), (outer, inner)
    if frame.size <= 8:
        assert enumerate_chains(frame.rectangle(), ()) == \
            ref_enumerate_chains(frame.rectangle(), ())
    for shape in shapes_of(frame, random.Random(str(frame))):
        assert decgd_enumerate(frame, shape) == \
            ref_decgd_enumerate(frame, shape), shape


def test_thin_walks():
    # a thousand levels deep, past the recursion limit of the oracles
    column = (1,) * 800
    for k in (0, 1, 400, 800):
        assert _shapes_between((), column, k) == ((1,) * k,)
    assert _shapes_between((), column, 801) == ()
    assert _chain_count((), column) == 1
    assert _lr2((1000,), (), (1000,)) == 1
    assert enumerate_chains((1000,), ()) == [
        ((),) + tuple((k,) for k in range(1, 1001))]
    assert _lr_multi((), ((2,),) * 999, (1998,)) == 1
