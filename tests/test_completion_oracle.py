"""Differential tests of the growth solver and of diagram validation
against a slow reference: the dict-keyed fixpoint solver and the
accessor-based validator that the row-indexed ones replaced.  The
reference solver takes any seeds and applies the same local rule, a
square's other middle, and nothing else.  Seeded along the same path
with the same chain, both must give the same diagram, and both
validators the same list of problems on every diagram below."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from growth import cylgrowth, moduli
from growth.cylgrowth import (
    CylGrowthDiagram, _Completion, cgd_enumerate, cgd_from_path,
    cgd_validate, row_path,
)
from growth.partitions import (
    Frame, _shapes_between, added_box, complement, covers, is_domino,
    normalize, partitions_in,
)
from growth.tableaux import enumerate_chains, other_middle


class RefCompletion:
    """The reference solver: entries in a {(i mod r, j - i): value} dict,
    one _square call per unit square."""

    def __init__(self, frame: Frame, r: int):
        self.frame = frame
        self.r = r
        self.known: dict[tuple[int, int], tuple[int, ...]] = {}
        box_c = complement((1,), frame)
        rect = frame.rectangle()
        for a in range(r):
            self.set(a, 0, ())
            self.set(a, 1, (1,))
            self.set(a, r - 1, box_c)
            self.set(a, r, rect)

    def set(self, a: int, k: int, value):
        value = normalize(value)
        old = self.known.get((a % self.r, k))
        if old is not None and old != value:
            raise ValueError(
                f"inconsistent entry at row {a % self.r}, offset {k}: "
                f"{old} vs {value}")
        self.known[(a % self.r, k)] = value

    def seed_point(self, i: int, j: int, value):
        self.set(i % self.r, j - i, value)

    def solve(self) -> CylGrowthDiagram:
        r = self.r
        total = r * (r + 1)
        progress = True
        while progress and len(self.known) < total:
            progress = False
            for a in range(r):
                for k in range(r - 1):
                    if self._square(a, k):
                        progress = True
            if self._glide():
                progress = True
        if len(self.known) < total:
            raise ValueError("reference solver stalled")
        rows = tuple(tuple(self.known[(a, k)] for k in range(r + 1))
                     for a in range(r))
        diagram = CylGrowthDiagram(self.frame, r, rows)
        ok, problems = ref_cgd_validate(diagram)
        if not ok:
            raise ValueError(f"completed diagram invalid: {problems[0]}")
        return diagram

    def _glide(self) -> bool:
        r = self.r
        progress = False
        for (a, k), value in list(self.known.items()):
            image = ((a + k) % r, r - k)
            if image not in self.known:
                self.known[image] = complement(value, self.frame)
                progress = True
        return progress

    def _square(self, a: int, k: int) -> bool:
        r = self.r
        keys = [(a, k), (a, k + 1), ((a - 1) % r, k + 1), ((a - 1) % r, k + 2)]
        vals = [self.known.get(key) for key in keys]
        missing = [idx for idx, v in enumerate(vals) if v is None]
        if len(missing) != 1:
            return False
        bottom, mid_r, mid_l, top = vals
        idx = missing[0]
        if idx == 1:
            self.known[keys[1]] = other_middle(bottom, top, mid_l)
        elif idx == 2:
            self.known[keys[2]] = other_middle(bottom, top, mid_r)
        else:
            return False
        return True


def ref_cgd_validate(g: CylGrowthDiagram) -> tuple[bool, list[str]]:
    """The reference validator, reading entries through g.get."""
    problems = []
    r = g.r
    frame = g.frame
    box_c = complement((1,), frame)
    for a in range(r):
        row = g.rows[a]
        if row[0] != ():
            problems.append(f"row {a}: diagonal entry not empty")
        if row[1] != (1,):
            problems.append(f"row {a}: offset 1 is not a single box")
        if row[r - 1] != box_c:
            problems.append(f"row {a}: offset {r - 1} is not the box complement")
        if row[r] != frame.rectangle():
            problems.append(f"row {a}: offset {r} is not the rectangle")
        for k in range(r):
            if added_box(row[k], row[k + 1]) is None:
                problems.append(f"row {a}, offset {k}: step does not add a box")
        for k in range(r):
            below = g.rows[(a + 1) % r][k]
            if added_box(below, row[k + 1]) is None:
                problems.append(
                    f"column step into row {a}, offset {k + 1}: not one box")
    for a in range(r):
        for k in range(r - 1):
            bottom = g.rows[a][k]
            mid_r = g.rows[a][k + 1]
            mid_l = g.rows[(a - 1) % r][k + 1]
            top = g.rows[(a - 1) % r][k + 2]
            try:
                if not is_domino(bottom, top) and mid_l == mid_r:
                    problems.append(
                        f"square at row {a}, offset {k}: equal middles under "
                        f"a nonadjacent skew")
            except ValueError:
                problems.append(f"square at row {a}, offset {k}: malformed")
    for a in range(r):
        for k in range(r + 1):
            expect = complement(g.get(a + k, a + r), frame)
            if g.rows[a][k] != expect:
                problems.append(
                    f"glide-reflect fails at row {a}, offset {k}")
    return (not problems, problems)


def ref_completion(frame: Frame, path, chain) -> RefCompletion:
    """The reference solver seeded with the chain along the path, called
    as ``cylgrowth._Completion`` is."""
    ref = RefCompletion(frame, frame.size)
    for (i, j), value in zip(path, chain):
        ref.seed_point(i, j, value)
    return ref


def assert_same_growth(frame: Frame, path, chain) -> CylGrowthDiagram:
    g = cgd_from_path(path, chain, frame)
    assert g == ref_completion(frame, path, chain).solve()
    return g


FRAMES = [Frame(2, 4), Frame(2, 5), Frame(2, 6), Frame(2, 7), Frame(3, 5),
          Frame(3, 6), Frame(3, 7)]


@pytest.mark.parametrize("frame", FRAMES, ids=str)
def test_row_path_chains(frame):
    r = frame.size
    for chain in enumerate_chains(frame.rectangle(), ()):
        g = assert_same_growth(frame, row_path(r), chain)
        assert cgd_validate(g) == ref_cgd_validate(g) == (True, [])


@pytest.mark.parametrize("frame", [Frame(2, 5), Frame(2, 6), Frame(3, 5)],
                         ids=str)
def test_cross_cgd(frame, monkeypatch):
    diagrams = cgd_enumerate(frame)
    cases = [(g, w) for g in diagrams for w in moduli.walls(frame.size)]
    crossed = [moduli.cross_cgd(g, w) for g, w in cases]
    monkeypatch.setattr(cylgrowth, "_Completion", ref_completion)
    assert crossed == [moduli.cross_cgd(g, w) for g, w in cases]


DIAGRAMS = {frame: cgd_enumerate(frame) for frame in FRAMES}


def neighbours(value, frame: Frame) -> list[tuple[int, ...]]:
    """The partitions of the frame one box above value, in ascending row
    of the added box, then those one box below, in ascending row of the
    removed box."""
    return covers(value, frame) + list(
        _shapes_between((), value, sum(value) - 1))


def walk(i: int, ups) -> list[tuple[int, int]]:
    """The path from (i, i) taking one step up (True) or right (False)
    for each of ups; each step widens the window by one."""
    point, path = (i, i), [(i, i)]
    for up in ups:
        point = (point[0] - 1, point[1]) if up else (point[0], point[1] + 1)
        path.append(point)
    return path


@st.composite
def paths(draw):
    """A frame, one of its diagrams, and a path through the band."""
    frame = draw(st.sampled_from(FRAMES))
    g = draw(st.sampled_from(DIAGRAMS[frame]))
    r = frame.size
    i = draw(st.integers(-r, 2 * r))
    return frame, g, walk(i, draw(st.lists(st.booleans(), min_size=r,
                                           max_size=r)))


@settings(max_examples=60, deadline=None)
@given(paths())
def test_hypothesis_paths(case):
    frame, g, path = case
    assert assert_same_growth(frame, path, g.along(path)) == g


@pytest.mark.parametrize("frame", [Frame(2, 4), Frame(2, 5), Frame(3, 5),
                                   Frame(2, 6), Frame(3, 6)], ids=str)
def test_every_path_grows_its_diagram(frame):
    # the local rule is all that growth out of a path needs: each of the
    # 2^r right/up paths from (0, 0) grows the diagram it is read from,
    # entry by entry or along the path
    r = frame.size
    diagrams = DIAGRAMS[frame]
    for g in diagrams[::max(1, len(diagrams) // 12)]:
        for ups in product((False, True), repeat=r):
            path = walk(0, ups)
            assert cgd_from_path(path, [g.get(i, j) for i, j in path],
                                 frame) == g
            assert cgd_from_path(path, g.along(path), frame) == g


def corrupted(g: CylGrowthDiagram, a: int, k: int, value) -> CylGrowthDiagram:
    rows = [list(row) for row in g.rows]
    rows[a][k] = value
    return CylGrowthDiagram(g.frame, g.r, tuple(map(tuple, rows)))


class TestErrors:
    def test_invalid_completion(self, monkeypatch):
        # a checked path and chain grow a valid diagram, so the one error
        # a solve raises, validation rejecting the result, is reached
        # through a validator that sees one entry changed
        frame = Frame(2, 5)
        g = DIAGRAMS[frame][2]
        problems = ref_cgd_validate(corrupted(g, 2, 3, (2, 1)))[1]
        monkeypatch.setattr(cylgrowth, "cgd_validate",
                            lambda diagram: (False, problems))
        with pytest.raises(ValueError) as exc:
            cgd_from_path(row_path(frame.size), g.row(0), frame)
        assert str(exc.value) == f"completed diagram invalid: {problems[0]}"


VALIDATE_CASES = [(frame, g) for frame in (Frame(2, 4), Frame(2, 5))
                  for g in DIAGRAMS[frame]] + \
    [(Frame(3, 6), g) for g in DIAGRAMS[Frame(3, 6)][::10]]


@pytest.mark.parametrize("frame,g", VALIDATE_CASES)
def test_validate_neighbouring_entry(frame, g):
    for a in range(g.r):
        for k in range(g.r + 1):
            value = g.rows[a][k]
            for other in neighbours(value, frame):
                bad = corrupted(g, a, k, other)
                ok, problems = cgd_validate(bad)
                assert not ok
                assert (ok, problems) == ref_cgd_validate(bad)


@pytest.mark.parametrize("frame,g", VALIDATE_CASES)
def test_validate_rows_exchanged(frame, g):
    for a in range(g.r):
        for b in range(a + 1, g.r):
            rows = list(g.rows)
            rows[a], rows[b] = rows[b], rows[a]
            bad = CylGrowthDiagram(frame, g.r, tuple(rows))
            assert cgd_validate(bad) == ref_cgd_validate(bad)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FRAMES), st.data())
def test_hypothesis_validate(frame, data):
    # one to three entries replaced by any partition of the frame, or two
    # entries of a row swapped: the fast acceptance and the problem walk
    # agree with the reference
    g = data.draw(st.sampled_from(DIAGRAMS[frame]))
    r = frame.size
    rows = [list(row) for row in g.rows]
    if data.draw(st.booleans()):
        for a, k in data.draw(st.lists(st.tuples(
                st.integers(0, r - 1), st.integers(0, r)),
                min_size=1, max_size=3)):
            rows[a][k] = data.draw(st.sampled_from(partitions_in(frame)))
    else:
        a = data.draw(st.integers(0, r - 1))
        k1, k2 = data.draw(st.lists(st.integers(0, r), min_size=2,
                                    max_size=2, unique=True))
        rows[a][k1], rows[a][k2] = rows[a][k2], rows[a][k1]
    bad = CylGrowthDiagram(frame, r, tuple(map(tuple, rows)))
    assert cgd_validate(bad) == ref_cgd_validate(bad)


def test_validation_runs_on_every_solve(monkeypatch):
    # one solve per promotion orbit, each validated: 44 orbits of the
    # 462 tableaux of the 3 x 4 rectangle
    solves, validations = [], []
    solve, validate = _Completion.solve, cylgrowth.cgd_validate
    monkeypatch.setattr(_Completion, "solve",
                        lambda self: solves.append(self) or solve(self))
    monkeypatch.setattr(cylgrowth, "cgd_validate",
                        lambda g: validations.append(g) or validate(g))
    assert len(cgd_enumerate(Frame(3, 7))) == 462
    assert len(solves) == len(validations) == 44
    # one local-rule result made wrong, still a partition of the frame:
    # the other middle of (1,) < (2,) < (2, 1) read as (2,), not (1, 1)
    frame = Frame(2, 4)
    table = cylgrowth._numbering(frame)
    num = table.index.__getitem__
    wrong = (num((1,)), num((2, 1)), num((2,)))
    other = table.other
    monkeypatch.setattr(table, "other", lambda *key: (
        num((2,)) if key == wrong else other(*key)))
    chain = ((), (1,), (2,), (2, 1), (2, 2))
    with pytest.raises(ValueError, match="^completed diagram invalid: "):
        cgd_from_path(row_path(frame.size), chain, frame)


@pytest.mark.parametrize("frame,g", VALIDATE_CASES)
def test_validate_entry_outside_the_frame(frame, g):
    outside = [(frame.cols + 1,), (1,) * (frame.d + 1)]
    for a in range(g.r):
        for k in range(g.r + 1):
            for value in outside:
                bad = corrupted(g, a, k, value)
                with pytest.raises(ValueError) as new:
                    cgd_validate(bad)
                with pytest.raises(ValueError) as ref:
                    ref_cgd_validate(bad)
                assert str(new.value) == str(ref.value)
