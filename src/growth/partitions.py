"""Partitions in a d x (n-d) box: complementation, index sets,
covers, brute-force Littlewood-Richardson coefficients, and the one count
of a fiber, by hook lengths where the conditions are single boxes.

A partition is a tuple of weakly decreasing positive integers; trailing
zeros are stripped, so () is the empty partition.  The box is a
:class:`Frame` passed explicitly to every operation that needs it.

:func:`_shapes_between` is the one enumeration of the partitions between
two shapes, by size: covers, the middles of a two-box skew, the
partitions of a frame, standard tableaux, the growth solver's unit
squares and :func:`_lr_layer` read it.  It is total, and enters only
shapes that can reach the size asked for.  :func:`_lr_layer` is the one
weighted walk, a factor a step: chain counts, Littlewood-Richardson
coefficients and fiber sizes read its last layer.  Both go a row or a
factor at a time in loops, and ``_lr2`` fills one cell at a time in a
depth-first loop, so no input size sets a recursion depth.

The box kernels (containment, complement, the middles of a two-box
skew, the shapes between two partitions) are memoized: a frame holds few
partitions, and these are called for the same pairs many times over.
Their caches are keyed by value, so they take tuples of ``int`` only;
a float or bool part would hash like an int and its cached result would
be served for the int input.  Diagram files are checked for this in
``growth.jsonin``.  The growth solver and diagram validation do not call
them per entry: ``growth.cylgrowth`` numbers each frame's partitions once
and builds its tables over those numbers from these kernels.  Tuples
stay the public representation of a partition.

The package's value classes (:class:`Frame` here, the diagrams, classes,
walls, graphs and conic reports elsewhere) derive from
:class:`_Value`, defined here because every other module imports this one.
It builds every value and gives them what a frozen dataclass would: a
constructor taking the fields by position or by name, equality within one
class, the hash of the field tuple, the dataclass repr, pickling and
immutability.  Only :class:`Frame` and ``Wall`` check their arguments.
They are not dataclasses, for start-up time: importing ``dataclasses``
brings ``inspect``, ``ast`` and ``dis`` (about 10 of the 35 ms of
``import growth.cli`` on CPython 3.11), and every dataclass compiles its
generated methods with ``exec`` when it is created, on every run, about
1 ms each.  The base's methods are compiled once, with this
module, and not at all where its ``.pyc`` is cached.  A fresh checkout run
with ``PYTHONDONTWRITEBYTECODE=1`` has no cache and compiles the package
from source on every start.
"""

from functools import cache
from itertools import accumulate
from math import factorial, prod
from operator import attrgetter

_set = object.__setattr__


class _Value:
    """Base of an immutable value class.  A subclass names its fields in
    ``__slots__``; the constructor takes them in that order, by position
    or by name, and raises TypeError on a missing, extra or unknown field,
    as a frozen dataclass would.  A subclass that checks its arguments
    does so in its own ``__init__`` and then calls this one.  A value
    compares, hashes, prints and pickles by the tuple of its field values,
    in slot order."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or sorted(kwargs) != sorted(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes the fields "
                    f"{', '.join(names)}; got {len(args)} by position and "
                    f"{sorted(kwargs)} by name")
            args += tuple(kwargs[name] for name in rest)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            # attrgetter of one name returns the value, not a 1-tuple
            raise TypeError(f"{cls.__name__} needs at least two fields")
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Frame(_Value):
    """The d x (n-d) box: d rows available, n-d columns available."""

    __slots__ = ("d", "n")

    def __init__(self, d: int, n: int):
        if not (0 <= d <= n):
            raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
        _Value.__init__(self, d, n)

    @property
    def cols(self) -> int:
        return self.n - self.d

    @property
    def size(self) -> int:
        """Number of boxes in the full rectangle."""
        return self.d * (self.n - self.d)

    def rectangle(self) -> tuple[int, ...]:
        return (self.cols,) * self.d if self.cols else ()


def normalize(parts) -> tuple[int, ...]:
    """Canonical form: tuple with trailing zeros removed.  Raises on a
    part above its predecessor first, and then on a negative part, which
    in a weakly decreasing tuple shows in the last part."""
    parts = tuple(parts)
    if parts:
        if parts[-1] == 0:
            n = len(parts) - 1
            while n and parts[n - 1] == 0:
                n -= 1
            parts = parts[:n]
        prev = parts[0] if parts else 0
        for p in parts:
            if p > prev:
                raise ValueError(f"not weakly decreasing: {parts}")
            prev = p
        if prev < 0:
            raise ValueError(f"negative part: {parts}")
    return parts


def fits(lam: tuple[int, ...], frame: Frame) -> bool:
    """True if lam fits inside the frame's box."""
    return len(lam) <= frame.d and (not lam or lam[0] <= frame.cols)


@cache
def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """True if inner is contained in outer as Young diagrams."""
    return all((inner[i] if i < len(inner) else 0) <= (outer[i] if i < len(outer) else 0)
               for i in range(max(len(inner), len(outer))))


@cache
def complement(lam: tuple[int, ...], frame: Frame) -> tuple[int, ...]:
    """The complementary partition in the frame: rotate the box 180 degrees."""
    if not fits(lam, frame):
        raise ValueError(f"{lam} does not fit in {frame}")
    full = list(lam) + [0] * (frame.d - len(lam))
    return normalize(frame.cols - full[i] for i in reversed(range(frame.d)))


def index_set(lam: tuple[int, ...], frame: Frame) -> frozenset[int]:
    """The d-subset of [n] attached to lam: k-th smallest element is
    lam_{d+1-k} + k (missing parts count as zero)."""
    if not fits(lam, frame):
        raise ValueError(f"{lam} does not fit in {frame}")
    full = list(lam) + [0] * (frame.d - len(lam))
    return frozenset(full[frame.d - k] + k for k in range(1, frame.d + 1))


def covers(lam: tuple[int, ...], frame: Frame) -> list[tuple[int, ...]]:
    """All partitions in the frame obtained from lam by adding one box,
    ordered by ascending row of the added box."""
    if not fits(lam, frame):
        raise ValueError(f"{lam} does not fit in {frame}")
    return list(_shapes_between(lam, frame.rectangle(), sum(lam) + 1)[::-1])


@cache
def added_box(small: tuple[int, ...], big: tuple[int, ...]) -> tuple[int, int] | None:
    """If big = small plus one box, return that box as 0-based (row, col);
    otherwise None."""
    if sum(big) != sum(small) + 1 or not contains(big, small):
        return None
    for row in range(len(big)):
        s = small[row] if row < len(small) else 0
        if big[row] == s + 1:
            return (row, s)
    return None


def intermediates(bottom: tuple[int, ...], top: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions mu with bottom < mu < top when top/bottom has two
    boxes: two if the boxes are nonadjacent, one if they form a domino."""
    return list(_intermediates(bottom, top))


@cache
def _intermediates(bottom: tuple[int, ...],
                   top: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """:func:`intermediates` as a tuple, so the cached value is immutable."""
    if sum(top) != sum(bottom) + 2 or not contains(top, bottom):
        raise ValueError(f"{top}/{bottom} is not a two-box skew shape")
    return _shapes_between(bottom, top, sum(bottom) + 1)[::-1]


@cache
def is_domino(bottom: tuple[int, ...], top: tuple[int, ...]) -> bool:
    """True if the two boxes of top/bottom are adjacent (share an edge)."""
    return len(_intermediates(bottom, top)) == 1


@cache
def _chain_count(inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    """Number of saturated chains from inner to outer in Young's lattice:
    outer's weight in the last layer of :func:`_lr_layer`, a box a step."""
    steps = ((1,),) * (sum(outer) - sum(inner))
    return _lr_layer(inner, steps, outer).get(outer, 0)


def syt_count(outer: tuple[int, ...], inner: tuple[int, ...] = ()) -> int:
    """Number of standard tableaux of skew shape outer/inner, counted as
    saturated chains in Young's lattice."""
    if not contains(outer, inner):
        raise ValueError(f"{inner} is not contained in {outer}")
    return _chain_count(normalize(inner), normalize(outer))


@cache
def _lr2(outer: tuple[int, ...], inner: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Two-factor Littlewood-Richardson coefficient: count semistandard
    fillings of outer/inner with content whose reverse reading word is a
    lattice word, filled cell by cell in that order (rows top to bottom,
    right to left).  The search is depth first, in a loop over one list of
    values and one of counts, so it holds O(cells) however many fillings
    it tries."""
    if sum(outer) != sum(inner) + sum(content) or not contains(outer, inner):
        return 0
    inner = inner + (0,) * (len(outer) - len(inner))
    cells = [(i, j) for i in range(len(outer))
             for j in range(outer[i] - 1, inner[i] - 1, -1)]
    at = {cell: idx for idx, cell in enumerate(cells)}
    bounds = [(at.get((i - 1, j), -1), at.get((i, j + 1), -2))
              for i, j in cells]
    # values[k] is 0 while cell k is unfilled; the last two bound a cell
    # with no cell of the skew shape to its right or above it, and
    # counts[0] counts nothing
    values = [0] * len(cells) + [len(content), 0]
    counts = [0] * (len(content) + 1)
    total, k = 0, 0  # k: the cell being filled, len(cells) once all are
    while k >= 0:
        if k == len(cells):
            total, k = total + 1, k - 1
            continue
        above, right = bounds[k]
        counts[values[k]] -= 1
        # the next value: strict down columns, weak along rows, the
        # content, lattice words
        v = max(values[k], values[above]) + 1
        while v <= values[right] and (counts[v] >= content[v - 1] or
                                      v > 1 and counts[v - 1] <= counts[v]):
            v += 1
        if v > values[right]:
            values[k] = 0
            k -= 1
        else:
            values[k] = v
            counts[v] += 1
            k += 1
    return total


def _lr_layer(inner: tuple[int, ...], factors: tuple[tuple[int, ...], ...],
              outer: tuple[int, ...]) -> dict:
    """The last layer of chains from inner below outer, a step per factor
    weighted by its two-factor coefficient: each shape reached, mapped to
    its weight.  Not cached, so no caller can change a cached layer."""
    layer = {inner: 1}
    for head in factors:
        weights = {}
        for mu, weight in layer.items():
            for nu in _shapes_between(mu, outer, sum(mu) + sum(head)):
                if c := _lr2(nu, mu, head):
                    weights[nu] = weights.get(nu, 0) + weight * c
        layer = weights
    return layer


@cache
def _lr_multi(inner: tuple[int, ...], factors: tuple[tuple[int, ...], ...],
              outer: tuple[int, ...]) -> int:
    """Outer's weight in the last layer of :func:`_lr_layer`."""
    return _lr_layer(inner, factors, outer).get(outer, 0)


@cache
def _shapes_between(inner: tuple[int, ...], outer: tuple[int, ...],
                    target_size: int) -> tuple[tuple[int, ...], ...]:
    """All partitions nu with inner <= nu <= outer and |nu| = target_size,
    in lexicographic order.  The walk fills the rows of outer from the
    top, a level per row, carrying the boxes left to place, and enters
    only parts that leave a completion: the rows below must still take
    what inner puts in them, and each holds at most the part just placed."""
    if not contains(outer, inner):
        return ()
    rows = len(outer)
    inner = (inner + (0,) * rows)[:rows]
    below = list(accumulate(reversed(inner), initial=0))[-2::-1]
    level = [((), outer[0] if outer else 0, target_size)]
    for row in range(rows):
        # the parts after a zero are zeros, which a partition drops
        level = [(acc + (v,) if v else acc, v, left - v)
                 for acc, prev, left in level
                 for v in range(max(inner[row], -(-left // (rows - row))),
                                min(outer[row], prev, left - below[row]) + 1)]
    return tuple(acc for acc, _, left in level if not left)


def partitions_in(frame: Frame):
    """Every partition that fits in the frame's box, by size and then in
    the order of :func:`_shapes_between`."""
    rect = frame.rectangle()
    return tuple(nu for s in range(frame.size + 1)
                 for nu in _shapes_between((), rect, s))


def lr_coefficient(target: tuple[int, ...], factors) -> int:
    """Multi-factor Littlewood-Richardson coefficient: the multiplicity of
    the product of the factors on the target shape.  Returns 0 on size
    mismatch.  Satisfies the complement identity
    lr(rectangle, [l1..lr]) = lr(lr_last^C, [l1..l_{r-1}])."""
    target = normalize(target)
    factors = tuple(normalize(f) for f in factors)
    if sum(map(sum, factors)) != sum(target):
        return 0
    return _lr_multi((), factors, target)


def hook_lengths(lam: tuple[int, ...]) -> list[int]:
    """The hook length of each box of lam, row by row: the box, the boxes
    right of it and the boxes below it."""
    return [lam[i] - j + sum(1 for p in lam[i + 1:] if p > j)
            for i in range(len(lam)) for j in range(lam[i])]


def fiber_size(frame: Frame, shape) -> int:
    """The fiber over a point of M_{0,r} of normalized conditions: their
    Littlewood-Richardson coefficient on the rectangle, 0 when the sizes
    do not sum to d(n-d).

    The coefficient is symmetric in its factors, so the single boxes go
    last: it sums, over the last layer of one :func:`_lr_layer` walk of
    the other conditions in the rectangle, each mu's coefficient times the
    tableaux of rect/mu, which turned by 180 degrees is the straight shape
    complement(mu), counted by the hook-length formula.  So no walk visits
    the shapes that only the single boxes reach."""
    return _fiber_size(frame, tuple(shape))


@cache
def _fiber_size(frame: Frame, shape: tuple[tuple[int, ...], ...]) -> int:
    """:func:`fiber_size` on a tuple of conditions, memoized: the tree sums
    ask for the fiber of each vertex labeling twice."""
    others = tuple(lam for lam in shape if lam != (1,))
    boxes = len(shape) - len(others)
    if sum(map(sum, others)) + boxes != frame.size:
        return 0
    return sum(c * factorial(boxes) // prod(hook_lengths(complement(mu, frame)))
               for mu, c in _lr_layer((), others, frame.rectangle()).items())
