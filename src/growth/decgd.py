"""Cylindrical growth diagrams of dual-equivalence classes: restriction
from fine diagrams, first-row construction (lift the row-0 classes'
representatives to a fine diagram and restrict it), enumeration by
rotation orbits, and JSON data; files are read by :mod:`growth.jsonin`.

A diagram of r conditions stores only its classes: the class a(k, l) of
the row step from the entry at (k, l) to the one at (k, l+1) and the class
b(k, l) of the column step from (k, l) to (k-1, l), both for
0 <= l - k < r.  The coarse entries at (k, l) for 0 <= l - k <= r, its
``rows`` as for a fine diagram, are the shapes the row classes run
between, and the contents are the rectification shapes of the row-0
classes.  Everything is periodic under (k, l) -> (k+r, l+r) and stored on
residues of k."""

from functools import partial
from itertools import accumulate

from growth.cylgrowth import (
    CylGrowthDiagram, _check_steps, _orbits, cgd_from_path, row_path,
)
from growth.partitions import Frame, _shapes_between, _Value, normalize
from growth.tableaux import DualClass, dual_classes


class Decgd(_Value):
    """Growth diagram of dual-equivalence classes, stored as its classes.

    a[k][m] and b[k][m] are the classes at (k, k+m) for k, m in [0, r);
    the entries and the contents are read off them."""

    __slots__ = ("frame", "r", "a", "b")

    @property
    def shape(self) -> tuple[tuple[int, ...], ...]:
        """The contents: the rectification shape of each row-0 class."""
        return tuple(cls.rshape for cls in self.a[0])

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """rows[k][m], the entry at (k, k+m) for m in [0, r]: the inner
        shape of each class of row k, then the outer shape of the last."""
        return tuple(tuple(cls.inner for cls in row) + (row[-1].outer,)
                     for row in self.a)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sum(lam) for lam in self.shape)

    def along(self, path) -> tuple[DualClass, ...]:
        """The class of each step of a path of up and right steps: a(k, l)
        for a right step out of (k, l), b(k, l) for an up step."""
        _check_steps(path)
        r = self.r
        for k, l in path[:-1]:
            if not 0 <= l - k < r:
                raise IndexError(f"the step out of ({k},{l}) leaves the band")
        return tuple((self.a if l2 > l else self.b)[k % r][l - k]
                     for (k, l), (_, l2) in zip(path, path[1:]))

    def to_json(self) -> dict:
        """The diagram as JSON data, with its tuples as arrays and each
        class as its representative chain."""
        return {
            "frame": {"d": self.frame.d, "n": self.frame.n},
            "r": self.r,
            "shape": self.shape,
            "rows": self.rows,
            "a": tuple(tuple(cls.representative for cls in row)
                       for row in self.a),
            "b": tuple(tuple(cls.representative for cls in row)
                       for row in self.b),
        }


def restrict_cgd(fine: CylGrowthDiagram, sizes) -> Decgd:
    """Restrict a fine diagram to the sublattice marked off by sizes: the
    classes are the dual-equivalence classes of the fine sub-chains along
    rows and columns between the cumulative indices.

    Block boundary x of the coarse diagram sits at fine index at[x + 1],
    for x from -1 to 2r.  Row k of the coarse diagram lies in fine row
    at[k + 1] < d(n-d), so its row classes are slices of that row.  The
    column class at (k, l) is read along fine column at[l + 1], up from
    row at[k + 1] to row at[k]."""
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive")
    total = fine.frame.size
    if sum(sizes) != total:
        raise ValueError(
            f"sizes {sizes} must sum to d(n-d) = {total}")
    r = len(sizes)
    at = list(accumulate(sizes[-1:] + sizes * 2, initial=-sizes[-1]))
    of = DualClass.of
    a_rows = []
    b_rows = []
    for k in range(r):
        start = at[k + 1]
        below = at[k]
        row = fine.row(start)
        cuts = [x - start for x in at[k + 1:k + r + 2]]
        a_rows.append(tuple(of(row[lo:hi + 1])
                            for lo, hi in zip(cuts, cuts[1:])))
        b_rows.append(tuple(
            of(fine.along([(i, col) for i in range(start, below - 1, -1)]))
            for col in at[k + 1:k + r + 1]))
    return Decgd(fine.frame, r, tuple(a_rows), tuple(b_rows))


def _concatenate(reps) -> tuple:
    """The chain that runs through the representatives in turn."""
    chain = list(reps[0])
    for k, t in enumerate(reps[1:], 1):
        if t[0] != chain[-1]:
            raise ValueError(f"representatives {k - 1} and {k} do not meet")
        chain.extend(t[1:])
    return tuple(chain)


def _lift(path, classes, sizes, frame: Frame) -> Decgd:
    """The diagram of blocks of the given sizes that takes the classes
    along a fine path: the fine diagram grown along the path from their
    representatives, concatenated, restricted."""
    chain = _concatenate([cls.representative for cls in classes])
    return restrict_cgd(cgd_from_path(path, chain, frame), sizes)


def decgd_from_first_row(classes, frame: Frame) -> Decgd:
    """The unique diagram whose row 0 has the given classes: lift along
    row 0 and restrict.  The classes must meet end to end and run from the
    empty shape to the rectangle."""
    return _lift(row_path(frame.size), classes,
                 tuple(sum(c.rshape) for c in classes), frame)


def check_shape(shape, written=None) -> tuple[tuple[int, ...], ...]:
    """The conditions of a class diagram, normalized: at least three, and
    each of at least one box.  An empty condition is named by its 1-based
    index in the shape as written, which is the normalized shape unless
    the caller passes the text it read."""
    shape = tuple(normalize(lam) for lam in shape)
    if len(shape) < 3:
        raise ValueError("need at least 3 conditions")
    for m, lam in enumerate(shape, 1):
        if not lam:
            if written is None:
                written = shape
            raise ValueError(f"condition {m} of {written!r} is empty; "
                             f"each condition needs at least one box")
    return shape


def decgd_enumerate(frame: Frame, shape) -> list[Decgd]:
    """All diagrams with the given sequence of contents, one per choice of
    row-0 classes, ordered by the first row.  The shape is checked by
    :func:`check_shape`.  The row-0 classes grow block by block, each
    tuple extended by the classes of the next condition that start where
    it ends; a diagram is grown from them once per orbit of the rotations
    by multiples of the contents' period, which keep the contents."""
    shape = check_shape(shape)
    if sum(sum(lam) for lam in shape) != frame.size:
        # no diagram can exist unless the sizes sum to d(n-d)
        return []
    rect = frame.rectangle()
    firsts = [()]
    for target, lam in zip(accumulate(map(sum, shape)), shape):
        firsts = [classes + (cls,) for classes in firsts
                  for mu in [classes[-1].outer if classes else ()]
                  for nu in _shapes_between(mu, rect, target)
                  for cls in dual_classes(nu, mu, lam)]
    period = next(t for t in range(1, len(shape) + 1)
                  if shape[t:] + shape[:t] == shape)
    return _orbits(firsts, partial(decgd_from_first_row, frame=frame), period)
