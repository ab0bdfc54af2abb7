"""Cylindrical growth diagrams: construction from the chain along a
right/up path (every chain from the empty shape to the rectangle fixes
one diagram), validation, enumeration by promotion orbits (one solve per
orbit, its rotations added), and their JSON data; files are read by
:mod:`growth.jsonin`.
Promotion as a function on tableaux and the d=2 noncrossing matching
bijection check these diagrams, so they live in :mod:`growth.checks`.

The index set is {(i, j) : i <= j <= i + r} with the glide symmetry
(i, j) -> (i + r, j + r); an entry therefore depends only on
(i mod r, j - i), which is how the fundamental domain is stored.

Diagrams hold their partitions as tuples, as the rest of the package does.
Only inside this module, the growth solver and :func:`cgd_validate` work
on the numbers of a frame's partitions (:class:`_Numbering`), with tables
built once per frame from the tuple kernels of :mod:`growth.partitions`."""

from functools import cache

from growth.partitions import (
    Frame, _shapes_between, _Value, complement, covers, intermediates,
    partitions_in,
)
from growth.tableaux import (
    Chain, enumerate_chains, other_middle, validate_chain,
)


class CylGrowthDiagram(_Value):
    """A cylindrical growth diagram on the fundamental domain rows
    i in [0, r); rows[i][k] holds the entry at (i, i + k) for k in [0, r]."""

    __slots__ = ("frame", "r", "rows")

    def get(self, i: int, j: int) -> tuple[int, ...]:
        """Entry at (i, j) for any integers with 0 <= j - i <= r."""
        k = j - i
        if not (0 <= k <= self.r):
            raise IndexError(f"({i},{j}) outside the diagram band")
        return self.rows[i % self.r][k]

    def row(self, i: int) -> Chain:
        """The chain along row i, from (i, i) to (i, i + r)."""
        return self.rows[i % self.r]

    def along(self, path) -> Chain:
        """The entries at the points of a path of up and right steps."""
        _check_steps(path)
        return tuple(self.get(i, j) for i, j in path)

    def to_json(self) -> dict:
        """The diagram as JSON data, with the stored tuples as arrays."""
        return {
            "frame": {"d": self.frame.d, "n": self.frame.n},
            "r": self.r,
            "rows": self.rows,
        }


def row_path(r: int) -> list[tuple[int, int]]:
    """The path along row 0: (0, 0), (0, 1), ..., (0, r)."""
    return [(0, k) for k in range(r + 1)]


def validate_path(path, r: int) -> list[tuple[int, int]]:
    """A path is a sequence of r+1 lattice points starting on the diagonal,
    each step moving up (i-1, j) or right (i, j+1), ending at width r."""
    path = [tuple(p) for p in path]
    if len(path) != r + 1:
        raise ValueError(f"path must have {r + 1} points, got {len(path)}")
    if path[0][0] != path[0][1]:
        raise ValueError("path must start on the diagonal")
    _check_steps(path)
    if path[-1][1] - path[-1][0] != r:
        raise ValueError("path must end at the opposite boundary")
    return path


def _check_steps(path) -> None:
    """Raise unless every step of the path is up or right."""
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        if (i2, j2) not in ((i1 - 1, j1), (i1, j1 + 1)):
            raise ValueError(f"bad step ({i1},{j1}) -> ({i2},{j2})")


class _Numbering:
    """The partitions of one frame numbered in :func:`partitions_in` order,
    and the tables over those numbers that the solver and the validator
    read, each built from the tuple kernels: the complement of each number,
    the one-box steps, the valid unit squares (bottom, right middle, left
    middle, top), and the local rule."""

    def __init__(self, frame: Frame):
        self.parts = partitions_in(frame)
        self.index = {p: n for n, p in enumerate(self.parts)}
        num = self.index.__getitem__
        self.comp = [num(complement(p, frame)) for p in self.parts]
        # the entries at offsets 0, 1, r - 1 and r of every row
        self.anchors = tuple(map(num, ((), (1,), complement((1,), frame),
                                       frame.rectangle())))
        self.steps = frozenset((num(p), num(q)) for p in self.parts
                               for q in covers(p, frame))
        squares = []
        rect = frame.rectangle()
        for bottom in self.parts:
            for top in _shapes_between(bottom, rect, sum(bottom) + 2):
                mids = [num(m) for m in intermediates(bottom, top)]
                # equal middles only under a domino
                squares += [(num(bottom), x, y, num(top)) for x in mids
                            for y in mids if x != y or len(mids) == 1]
        self.squares = frozenset(squares)
        # the local rule on numbers, memoized; a miss runs the tuple kernel,
        # so its errors keep their text
        self.other = cache(lambda *nums: self.index[
            other_middle(*map(self.parts.__getitem__, nums))])
        # the glide image (a + k, a + r) of each entry (a, a + k), as
        # positions in the rows of a diagram laid end to end; a diagram
        # with another r fails its row steps before these are read
        r = frame.size
        self.images = [((a + k) % r) * (r + 1) + r - k
                       for a in range(r) for k in range(r + 1)]


_numbering = cache(_Numbering)


class _Completion:
    """Fixpoint solver growing the fundamental domain from a checked path
    and its chain (:func:`cgd_from_path`, :func:`cgd_enumerate`).

    The entries are stored as rows[a][k] for the entry at (a, a + k), with
    a = i mod r and k = j - i, each as its number in the frame's
    :class:`_Numbering`; an unknown entry is None.  Every row starts with
    the four boundary offsets 0, 1, r - 1 and r, which a valid chain holds
    too, and the chain is written at the path's points, one per offset.
    Unit squares have corners bottom rows[a][k], right middle rows[a][k+1],
    left middle rows[a-1][k+1] and top rows[a-1][k+2].  The one deduction
    is the local rule: a square whose bottom, top and one middle are known
    gets its other middle (:func:`other_middle`).  Growth out of a path
    only meets squares whose bottom and top are known, and from a valid
    chain it only deduces entries of the one diagram that chain fixes.
    The solved diagram holds tuples."""

    def __init__(self, frame: Frame, path, chain):
        self.frame = frame
        self.r = r = frame.size
        self.table = _numbering(frame)
        template = [None] * (r + 1)
        for k, n in zip((0, 1, r - 1, r), self.table.anchors):
            template[k] = n
        self.rows = [template.copy() for _ in range(r)]
        for (i, j), value in zip(path, chain):
            self.rows[i % r][j - i] = self.table.index[value]

    def solve(self) -> CylGrowthDiagram:
        progress = True
        while progress and any(None in row for row in self.rows):
            progress = self._square()
            if self._glide():
                progress = True
        part = self.table.parts.__getitem__
        diagram = CylGrowthDiagram(self.frame, self.r, tuple(
            tuple(map(part, row)) for row in self.rows))
        ok, problems = cgd_validate(diagram)
        if not ok:
            raise ValueError(f"completed diagram invalid: {problems[0]}")
        return diagram

    def _glide(self) -> bool:
        # every diagram satisfies gamma(i, j) = gamma(j, i + r)^C, so a
        # known entry also determines its glide-reflect image
        r, rows, comp = self.r, self.rows, self.table.comp
        filled = False
        for a, row in enumerate(rows):
            for k, value in enumerate(row):
                if value is not None:
                    image = rows[(a + k) % r]
                    if image[r - k] is None:
                        image[r - k] = comp[value]
                        filled = True
        return filled

    def _square(self) -> bool:
        # one pass over the unit squares, in (a, k) order, each deduction
        # written in place before the next square is read
        rows, other = self.rows, self.table.other
        filled = False
        for a, below in enumerate(rows):
            above = rows[a - 1]
            for k in range(self.r - 1):
                bottom, mid_r = below[k], below[k + 1]
                mid_l, top = above[k + 1], above[k + 2]
                if bottom is None or top is None \
                        or (mid_r is None) == (mid_l is None):
                    continue
                if mid_r is None:
                    below[k + 1] = other(bottom, top, mid_l)
                else:
                    above[k + 1] = other(bottom, top, mid_r)
                filled = True
        return filled


def cgd_from_path(path, chain, frame: Frame) -> CylGrowthDiagram:
    """The unique cylindrical growth diagram taking the given chain along
    the given path.  The chain must run from the empty shape to the full
    rectangle."""
    r = frame.size
    path = validate_path(path, r)
    chain = validate_chain(chain)
    if len(chain) != r + 1:
        raise ValueError(f"chain must have {r + 1} shapes, got {len(chain)}")
    if chain[0] != () or chain[-1] != frame.rectangle():
        raise ValueError("chain must run from the empty shape to the rectangle")
    return _Completion(frame, path, chain).solve()


def cgd_validate(g: CylGrowthDiagram) -> tuple[bool, list[str]]:
    """Check boundary anchors, single-box growth, the local condition on
    every unit square, and the glide-reflect symmetry.  An entry outside
    the frame raises complement's ValueError."""
    table = _numbering(g.frame)
    r = g.r
    try:
        flat = [table.index[p] for row in g.rows for p in row]
    except KeyError as exc:
        # complement's error for the first such entry in glide order
        for a in range(r):
            for k in range(r + 1):
                complement(g.rows[(a + k) % r][r - k], g.frame)
        raise ValueError(
            f"{exc.args[0]} is not a partition in normal form") from None
    rows = [flat[a * (r + 1):(a + 1) * (r + 1)] for a in range(r)]
    empty, box, box_c, rect = table.anchors
    steps, squares, comp = table.steps, table.squares, table.comp
    # Offsets 1 and r - 1 follow from the steps out of the empty shape and
    # into the rectangle.  The column steps up to offset r - 1 are sides
    # of unit squares, and the one into offset r is the glide image of a
    # row step out of offset 0.
    if all(row[0] == empty and row[r] == rect
           and steps.issuperset(zip(row, row[1:])) for row in rows) \
            and all(squares.issuperset(zip(below, below[1:], above[1:],
                                           above[2:]))
                    for below, above in zip(rows, rows[-1:] + rows[:-1])) \
            and [comp[flat[q]] for q in table.images] == flat:
        return (True, [])
    problems = []
    for a, row in enumerate(rows):
        problems += [f"row {a}: {text}" for ok, text in (
            (row[0] == empty, "diagonal entry not empty"),
            (row[1] == box, "offset 1 is not a single box"),
            (row[r - 1] == box_c, f"offset {r - 1} is not the box complement"),
            (row[r] == rect, f"offset {r} is not the rectangle")) if not ok]
        problems += [f"row {a}, offset {k}: step does not add a box"
                     for k in range(r) if (row[k], row[k + 1]) not in steps]
        below = rows[(a + 1) % r]
        problems += [f"column step into row {a}, offset {k + 1}: not one box"
                     for k in range(r) if (below[k], row[k + 1]) not in steps]
    # (bottom, top) of a two-box skew -> whether it is a domino
    skews = {(b, t): x == y for b, x, y, t in squares}
    for a, below in enumerate(rows):
        above = rows[a - 1]
        for k in range(r - 1):
            domino = skews.get((below[k], above[k + 2]))
            if domino is None:
                problems.append(f"square at row {a}, offset {k}: malformed")
            elif not domino and below[k + 1] == above[k + 1]:
                problems.append(
                    f"square at row {a}, offset {k}: equal middles under "
                    f"a nonadjacent skew")
    problems += [f"glide-reflect fails at row {a}, offset {k}"
                 for a, row in enumerate(rows) for k in range(r + 1)
                 if row[k] != comp[rows[(a + k) % r][r - k]]]
    return (False, problems)


def _orbits(firsts, grow, step: int) -> list:
    """The diagram of each row-0 value in firsts, in order, grown once per
    orbit of the rotations by multiples of step.  Rotating every stored
    table (the fields after frame and r) by t gives the diagram grown from
    its row t, and each condition a diagram meets holds on every row
    alike, so a rotation needs no new solve or validation."""
    found = {}
    for first in firsts:
        if first in found:
            continue
        g = grow(first)
        tables = [getattr(g, name) for name in g.__slots__[2:]]
        # an orbit closes when its row 0 comes round again
        for t in range(0, g.r, step):
            if tables[0][t] in found:
                break
            found[tables[0][t]] = type(g)(g.frame, g.r, *(
                table[t:] + table[:t] for table in tables))
    return [found[first] for first in firsts]


def cgd_enumerate(frame: Frame) -> list[CylGrowthDiagram]:
    """One diagram per standard tableau of the full rectangle, in
    lexicographic order of the row-0 chain.  Row t of a diagram is the
    t-th promotion of its row-0 tableau, so one solve along row 0 gives a
    whole promotion orbit."""
    path = row_path(frame.size)
    # enumerate_chains gives only chains of normalized one-box steps from
    # the empty shape to the rectangle, so they are not checked again
    return _orbits(enumerate_chains(frame.rectangle(), ()),
                   lambda chain: _Completion(frame, path, chain).solve(), 1)
