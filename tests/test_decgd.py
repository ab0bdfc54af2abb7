"""Tests for growth diagrams of dual-equivalence classes: restriction,
lifting, first-row construction, counts against the Littlewood-Richardson
oracle, and the cellwise shuffle condition."""

import json

import pytest

from growth.cylgrowth import cgd_enumerate, cgd_from_path, row_path
from growth.decgd import (
    Decgd, _concatenate, check_shape, decgd_enumerate, decgd_from_first_row,
    restrict_cgd,
)
from growth.jsonin import read_decgd
from growth.partitions import Frame, lr_coefficient
from growth.tableaux import (
    DualClass, dual_classes, enumerate_chains, shuffle_classes,
    validate_chain,
)
from test_partitions import all_partitions

F24 = Frame(2, 4)
F25 = Frame(2, 5)
BOX = (1,)


def lift_decgd(d: Decgd, reps=None):
    """A fine diagram restricting to d: concatenate representatives of the
    row-0 classes (canonical ones unless reps are given) along row 0 and
    extend."""
    if reps is None:
        reps = [d.a[0][m].representative for m in range(d.r)]
    else:
        reps = [validate_chain(t) for t in reps]
        for m, t in enumerate(reps):
            if DualClass.of(t) != d.a[0][m]:
                raise ValueError(
                    f"representative {m} is not in the stated class")
    return cgd_from_path(row_path(d.frame.size), _concatenate(reps), d.frame)


def decgd_validate(d: Decgd) -> tuple[bool, list[str]]:
    """Check that the classes meet along rows and columns and that each
    row runs from the empty shape to the rectangle, then the shuffle
    condition on every unit cell."""
    problems = []
    r = d.r
    rows = d.rows
    for k in range(r):
        if rows[k][0] != ():
            problems.append(f"row {k}: diagonal entry not empty")
        if rows[k][r] != d.frame.rectangle():
            problems.append(f"row {k}: offset {r} is not the rectangle")
        for m in range(r):
            if d.a[k][m].outer != rows[k][m + 1]:
                problems.append(f"a({k},{k + m}) has the wrong shape")
            b = d.b[k][m]
            if b.inner != rows[k][m] or b.outer != rows[k - 1][m + 1]:
                problems.append(f"b({k},{k + m}) has the wrong shape")
    if problems:
        # the shuffle condition is defined only on consecutive classes
        return (False, problems)
    for k in range(r):
        for m in range(r - 1):
            l = k + m
            got = shuffle_classes(d.a[k][m], d.b[k][m + 1])
            want = (d.b[k][m], d.a[k - 1][m + 1])
            if got != want:
                problems.append(f"shuffle condition fails at ({k},{l})")
    return (not problems, problems)


def shapes_of_total(frame, r):
    """All r-tuples of nonempty partitions in the frame whose sizes sum to
    the box size."""
    parts = [p for p in all_partitions(frame) if p]
    out = []

    def build(acc, left):
        if len(acc) == r:
            if left == 0:
                out.append(tuple(acc))
            return
        for p in parts:
            if sum(p) <= left - (r - len(acc) - 1):
                build(acc + [p], left - sum(p))

    build([], frame.size)
    return out


class TestRestrict:
    def test_unit_sizes_mirror_fine_diagram(self):
        for g in cgd_enumerate(F24):
            d = restrict_cgd(g, (1, 1, 1, 1))
            assert d.shape == (BOX,) * 4
            assert d.rows == g.rows
            ok, problems = decgd_validate(d)
            assert ok, problems

    def test_pair_sizes(self):
        seen = set()
        for g in cgd_enumerate(F24):
            d = restrict_cgd(g, (2, 2))
            # diagrams of two conditions are below the r >= 3 regime, but
            # restriction itself is still well defined
            assert d.sizes == (2, 2)
            assert lr_coefficient(F24.rectangle(), list(d.shape)) >= 1
            seen.add(d)
        # both fine diagrams restrict to distinct class data
        assert len(seen) == 2

    def test_bad_sizes(self):
        g = cgd_enumerate(F24)[0]
        with pytest.raises(ValueError):
            restrict_cgd(g, (2, 1))
        with pytest.raises(ValueError):
            restrict_cgd(g, (4, 0))


def reference_restrict_cgd(fine, sizes):
    """restrict_cgd as it was before it read rows by slices: every entry
    through fine.get at indices from a cumulative index closure.  The
    coarse entries and contents it computes must be those the classes
    give."""
    r = len(sizes)
    total = fine.frame.size
    prefix = [0]
    for s in sizes:
        prefix.append(prefix[-1] + s)

    def iota(m):
        return (m // r) * total + prefix[m % r]

    rows = tuple(
        tuple(fine.get(iota(k), iota(k + m)) for m in range(r + 1))
        for k in range(r))
    a_rows, b_rows = [], []
    for k in range(r):
        a_row, b_row = [], []
        for m in range(r):
            l = k + m
            a_row.append(DualClass.of(tuple(
                fine.get(iota(k), j)
                for j in range(iota(l), iota(l + 1) + 1))))
            b_row.append(DualClass.of(tuple(
                fine.get(i, iota(l))
                for i in range(iota(k), iota(k - 1) - 1, -1))))
        a_rows.append(tuple(a_row))
        b_rows.append(tuple(b_row))
    shape = tuple(a_rows[0][m].rshape for m in range(r))
    d = Decgd(fine.frame, r, tuple(a_rows), tuple(b_rows))
    assert d.rows == rows and d.shape == shape
    return d


def compositions(total, parts):
    """The compositions of total with parts drawn from parts."""
    if total == 0:
        return [()]
    return [(p,) + rest for p in parts if p <= total
            for rest in compositions(total - p, parts)]


RESTRICT_SIZES = [
    (F25, compositions(6, (1, 2, 3))),
    (Frame(2, 6), compositions(8, (1, 2, 3)) + [(4, 4), (5, 3)]),
    (Frame(3, 6), [(1,) * 9, (3, 3, 3), (2, 3, 4), (4, 3, 2), (1, 2, 6),
                   (5, 1, 1, 1, 1), (2, 2, 2, 2, 1), (1, 4, 1, 3)]),
]


@pytest.mark.parametrize("frame,sizes_list", RESTRICT_SIZES,
                         ids=[str(f) for f, _ in RESTRICT_SIZES])
def test_restrict_matches_reference(frame, sizes_list):
    for g in cgd_enumerate(frame):
        for sizes in sizes_list:
            d = restrict_cgd(g, sizes)
            assert d == reference_restrict_cgd(g, sizes), (g, sizes)
            # one class object per class
            for rows in (d.a, d.b):
                for row in rows:
                    for cls in row:
                        assert DualClass.of(cls.representative) is cls


class TestAlong:
    D = decgd_enumerate(F25, ((2,), BOX, BOX, BOX, BOX))[0]

    def test_classes_of_the_steps(self):
        # a right step out of (k, l) reads a(k, l), an up step b(k, l)
        d = self.D
        path = [(1, 1), (1, 2), (0, 2), (-1, 2), (-1, 3)]
        assert d.along(path) == (d.a[1][0], d.b[1][1], d.b[0][2], d.a[4][3])

    @pytest.mark.parametrize("path,error", [
        ([(0, 4), (0, 5), (0, 6)], IndexError),  # past offset r = 5
        ([(1, 0), (1, 1)], IndexError),          # below the diagonal
        ([(0, 0), (0, 2)], ValueError),          # two steps at once
        ([(0, 1), (1, 1)], ValueError),          # a step down
    ])
    def test_refuses_a_bad_path(self, path, error):
        with pytest.raises(error):
            self.D.along(path)


class TestLift:
    def test_round_trip_with_actual_subchains(self):
        for g in cgd_enumerate(F24):
            for sizes in [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2), (1, 3)]:
                d = restrict_cgd(g, sizes)
                bounds = [0]
                for s in sizes:
                    bounds.append(bounds[-1] + s)
                reps = [tuple(g.get(0, j) for j in range(bounds[m],
                                                         bounds[m + 1] + 1))
                        for m in range(len(sizes))]
                assert lift_decgd(d, reps) == g

    def test_restrict_lift_restrict(self):
        for g in cgd_enumerate(F25):
            for sizes in [(2, 2, 2), (1, 2, 3), (3, 2, 1), (2, 1, 1, 2)]:
                d = restrict_cgd(g, sizes)
                assert restrict_cgd(lift_decgd(d), sizes) == d

    def test_all_lifts_restrict_back(self):
        for g in cgd_enumerate(F24):
            d = restrict_cgd(g, (2, 2))
            classes = [d.a[0][0], d.a[0][1]]
            reps0 = [t for t in enumerate_chains(classes[0].outer, ())
                     if DualClass.of(t) == classes[0]]
            reps1 = [t for t in enumerate_chains(classes[1].outer,
                                                 classes[1].inner)
                     if DualClass.of(t) == classes[1]]
            for t0 in reps0:
                for t1 in reps1:
                    lifted = lift_decgd(d, [t0, t1])
                    assert restrict_cgd(lifted, (2, 2)) == d

    def test_rejects_wrong_class(self):
        g = cgd_enumerate(F24)[0]
        d = restrict_cgd(g, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            other = [c.representative for c in
                     dual_classes((1, 1), (1,))]  # wrong shape entirely
            lift_decgd(d, [other[0]] * 4)


class TestFirstRow:
    def test_all_box_chains(self):
        chains = enumerate_chains(F24.rectangle(), ())
        built = set()
        for chain in chains:
            classes = [dual_classes(chain[m + 1], chain[m], BOX)[0]
                       for m in range(4)]
            d = decgd_from_first_row(classes, F24)
            assert d.shape == (BOX,) * 4
            ok, problems = decgd_validate(d)
            assert ok, problems
            built.add(d)
        assert len(built) == 2

    def test_unique_when_lr_is_one(self):
        # r=3 with multiplicity-one content admits exactly one diagram
        shape = ((2,), (1,), (1,))
        assert lr_coefficient(F24.rectangle(), list(shape)) == 1
        assert len(decgd_enumerate(F24, shape)) == 1

    def test_rejects_bad_anchors(self):
        chain = enumerate_chains(F24.rectangle(), ())[0]
        classes = [dual_classes(chain[m + 1], chain[m], BOX)[0]
                   for m in range(4)]
        # classes that stop short of the rectangle, or do not meet
        with pytest.raises(ValueError):
            decgd_from_first_row(classes[:-1], F24)
        with pytest.raises(ValueError):
            decgd_from_first_row(classes[1:] + classes[:1], F24)


class TestEnumerate:
    def test_examples(self):
        assert len(decgd_enumerate(F24, [BOX] * 4)) == 2
        assert len(decgd_enumerate(F24, [(2, 2), BOX, BOX])) == 0
        assert len(decgd_enumerate(F24, [(1, 1), BOX, BOX])) == 1

    def test_counts_match_lr_all_shapes_r3_r4(self):
        rect = F24.rectangle()
        for r in (3, 4):
            for shape in shapes_of_total(F24, r):
                got = decgd_enumerate(F24, shape)
                assert len(got) == lr_coefficient(rect, list(shape)), shape
                for d in got:
                    ok, problems = decgd_validate(d)
                    assert ok, problems
                assert len(set(got)) == len(got)

    def test_sampled_shapes_25(self):
        rect = F25.rectangle()
        samples = [
            ((2, 2), BOX, BOX),
            ((2, 1), (2,), BOX),
            ((3, 1), BOX, BOX),
            ((1, 1), (2,), (2,)),
            ((2,), (2,), BOX, BOX),
        ]
        for shape in samples:
            got = decgd_enumerate(F25, shape)
            assert len(got) == lr_coefficient(rect, list(shape)), shape

    def test_size_mismatch_is_empty(self):
        assert decgd_enumerate(F24, [BOX] * 3) == []
        with pytest.raises(ValueError):
            decgd_enumerate(F24, [(2, 2), (1, 1)])  # fewer than 3 conditions

    @pytest.mark.parametrize("shape,index", [
        ([(), (2,), BOX, BOX], 1), ([(2,), BOX, BOX, (0, 0)], 4),
        ([(2,), (), (), (2,)], 2), ([(), BOX, BOX], 1)])
    def test_empty_condition_named(self, shape, index):
        # checked before the sizes, so a mismatched sum is refused too
        with pytest.raises(ValueError, match=f"^condition {index} of .* is "
                           f"empty; each condition needs at least one box$"):
            decgd_enumerate(F24, shape)


def test_check_shape():
    assert check_shape([[2, 0], (1,), [1]]) == ((2,), BOX, BOX)
    with pytest.raises(ValueError, match="^need at least 3 conditions$"):
        check_shape([(2, 2), (2, 2)])
    with pytest.raises(ValueError, match=r"^condition 2 of \(\(1,\), \(\), "):
        check_shape([BOX, (0,), BOX])
    # the text the caller read names the shape when given
    with pytest.raises(ValueError, match="^condition 2 of '1;0;1' is empty"):
        check_shape([BOX, (), BOX], "1;0;1")


def test_json_round_trip():
    # through JSON text: to_json holds the stored tuples, and read_decgd
    # takes JSON lists only
    for d in (decgd_enumerate(F24, [BOX] * 4)[0],
              *decgd_enumerate(F25, [(2,), BOX, BOX, BOX, BOX])):
        assert read_decgd(json.loads(json.dumps(d.to_json()))) == d
        with pytest.raises(ValueError):
            read_decgd(d.to_json())


def test_fibers_ordered_by_first_row():
    # the cover numbers its nodes in this order: each fiber lists its
    # diagrams by their row-0 representatives, with none repeated
    shapes = [(frame, shape)
              for frame in (F25, Frame(2, 6), Frame(3, 6))
              for r in (3, 4, 5) for shape in shapes_of_total(frame, r)
              if max(sum(lam) for lam in shape) <= 3]
    assert len(shapes) == 1263
    for frame, shape in shapes:
        keys = [tuple(cls.representative for cls in d.a[0])
                for d in decgd_enumerate(frame, shape)]
        assert keys == sorted(set(keys)), (frame, shape)


def substitutions(d: Decgd):
    """Each diagram that d becomes when one of its classes is replaced by
    another class of the same skew shape, with the table it was made in.
    The rows stay those of d, and the contents change only with a row-0
    class."""
    for name in ("a", "b"):
        for k, row in enumerate(getattr(d, name)):
            for m, cls in enumerate(row):
                for other in dual_classes(cls.outer, cls.inner):
                    if other != cls:
                        tables = {"a": d.a, "b": d.b}
                        tables[name] = (
                            tables[name][:k]
                            + (row[:m] + (other,) + row[m + 1:],)
                            + tables[name][k + 1:])
                        yield name, Decgd(d.frame, d.r, tables["a"],
                                          tables["b"])


def test_from_json_agrees_with_validate():
    # a file is read as the diagram its row-0 classes grow; the earlier
    # reader, decgd_validate with the content and rows checks, accepts
    # and refuses exactly the same files
    cases = 0
    for frame in (F24, F25, Frame(3, 5)):
        for r in range(3, frame.size + 1):
            for shape in shapes_of_total(frame, r):
                for d in decgd_enumerate(frame, shape):
                    base = json.loads(json.dumps(d.to_json()))
                    assert read_decgd(base) == d
                    for name, sub in substitutions(d):
                        data = dict(base)
                        data[name] = json.loads(json.dumps(
                            sub.to_json()[name]))
                        assert sub.rows == d.rows
                        accepted = (decgd_validate(sub)[0]
                                    and sub.shape == d.shape)
                        try:
                            got = read_decgd(data)
                        except ValueError:
                            got = None
                        assert got == (sub if accepted else None), \
                            (d, name, sub)
                        cases += 1
    assert cases == 740
