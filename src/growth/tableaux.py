"""Standard skew tableaux as partition chains, the growth-diagram local
rule, shuffling, rectification, and dual-equivalence canonical forms.
Two tableaux are dual equivalent exactly when their classes
:meth:`DualClass.of` are equal: the canonical representative keeps its
tableau's shape, so equal classes have equal shapes.

A tableau is a tuple of partitions, each adding one box to the previous;
entry k is the box added at step k.  :func:`enumerate_chains` grows them
a box at a time, in a loop over the levels of
``growth.partitions._shapes_between``.  All jeu de taquin is done
through the local rule on unit squares of a growth rectangle.

Only :func:`validate_chain` and the public :func:`shuffle` check their
chains.  Rectification, canonical forms and class shuffles take chains
that are already valid (the package's own, or read through
``validate_chain``), and :meth:`DualClass.of` returns one shared object
per class.
"""

from functools import cache

from growth.partitions import (
    _intermediates, _shapes_between, _Value, added_box, normalize,
)

Chain = tuple[tuple[int, ...], ...]


def validate_chain(chain) -> Chain:
    """Check single-box growth and return the normalized chain."""
    chain = tuple(normalize(p) for p in chain)
    if not chain:
        raise ValueError("empty chain")
    for a, b in zip(chain, chain[1:]):
        if added_box(a, b) is None:
            raise ValueError(f"step {a} -> {b} does not add one box")
    return chain


@cache
def superstandard(lam: tuple[int, ...]) -> Chain:
    """The row-reading straight tableau of the partition lam: 1..lam_1 in
    row one, then continuing row by row; returned as a chain from the
    empty shape.  The rows below the current one are still empty, so each
    step rewrites the last part."""
    chain = [()]
    cur = ()
    for row, length in enumerate(lam):
        for c in range(1, length + 1):
            cur = cur[:row] + (c,)
            chain.append(cur)
    return tuple(chain)


@cache
def other_middle(bottom, top, middle):
    """Given a unit square's bottom, top and one middle, the unique other
    middle: the second intermediate when the skew is two nonadjacent boxes,
    the same one when it is a domino."""
    mids = _intermediates(bottom, top)
    if middle not in mids:
        raise ValueError(f"{middle} is not between {bottom} and {top}")
    if len(mids) == 1:
        return mids[0]
    return mids[0] if middle == mids[1] else mids[1]


def shuffle(lower: Chain, upper: Chain) -> tuple[Chain, Chain]:
    """Shuffle two consecutive tableaux by filling the growth rectangle
    with lower along the bottom edge and upper up the right edge; returns
    (new_lower, new_upper) read off the left and top edges.  An involution;
    new_lower is slide equivalent to upper and dual equivalent to lower
    pushed through, and symmetrically."""
    lower = validate_chain(lower)
    upper = validate_chain(upper)
    if lower[-1] != upper[0]:
        raise ValueError(
            f"chains not consecutive: {lower[-1]} != {upper[0]}")
    return _shuffle(lower, upper)


def _shuffle(lower: Chain, upper: Chain) -> tuple[Chain, Chain]:
    """:func:`shuffle` of two chains already known to be valid and
    consecutive.  The rectangle is filled one row at a time, right to
    left, in a single list: entry j of the row above comes from the old
    entries j and j + 1 and the new entry j + 1."""
    row = list(lower)
    w = len(row) - 1
    firsts = [row[0]]
    for top in upper[1:]:
        old_right = row[w]
        row[w] = top
        for j in range(w - 1, -1, -1):
            old = row[j]
            row[j] = other_middle(old, row[j + 1], old_right)
            old_right = old
        firsts.append(row[0])
    return tuple(firsts), tuple(row)


def rectify(t: Chain) -> Chain:
    """The unique straight-shape tableau slide equivalent to t, obtained by
    shuffling a straight tableau of the inner shape past t.  t must be a
    valid chain (see :func:`validate_chain`)."""
    if not t[0]:
        return t
    return _shuffle(superstandard(t[0]), t)[0]


@cache
def rshape(t: Chain) -> tuple[int, ...]:
    """Rectification shape of t."""
    return rectify(t)[-1]


@cache
def canonical_rep(t: Chain) -> Chain:
    """The unique tableau dual equivalent to t and slide equivalent to the
    superstandard tableau of t's rectification shape.  Computed by two
    shuffles: push the superstandard tableau of the inner shape through t,
    then push the superstandard tableau of the rectification shape back.
    t must be a valid chain (see :func:`validate_chain`)."""
    rect, beta = _shuffle(superstandard(t[0]), t)
    return _shuffle(superstandard(rect[-1]), beta)[1]


def enumerate_chains(outer, inner) -> list[Chain]:
    """All standard tableaux of shape outer/inner, as chains, in
    lexicographic order of the chain; none unless outer contains inner.
    The chains grow one box at a time, each prefix extended by the shapes
    one box larger that :func:`_shapes_between` lists, in that order."""
    outer, inner = normalize(outer), normalize(inner)
    # inner alone, or nothing unless outer contains it
    chains = [(nu,) for nu in _shapes_between(inner, outer, sum(inner))]
    for size in range(sum(inner) + 1, sum(outer) + 1):
        chains = [chain + (nu,) for chain in chains
                  for nu in _shapes_between(chain[-1], outer, size)]
    return chains


class DualClass(_Value):
    """A dual-equivalence class of skew standard tableaux, stored by its
    canonical representative and rectification shape."""

    __slots__ = ("representative", "rshape")

    @staticmethod
    def of(t: Chain) -> "DualClass":
        """The class of the valid chain t; equal chains, and dual
        equivalent ones, give the same object."""
        return _class_of(canonical_rep(t))

    @property
    def inner(self) -> tuple[int, ...]:
        return self.representative[0]

    @property
    def outer(self) -> tuple[int, ...]:
        return self.representative[-1]


@cache
def _class_of(rep: Chain) -> DualClass:
    return DualClass(rep, rshape(rep))


def dual_classes(outer, inner, target_rshape=None) -> list[DualClass]:
    """All dual-equivalence classes of tableaux of shape outer/inner, in
    the order their first tableaux have in :func:`enumerate_chains`,
    optionally filtered by rectification shape.  Empty on size mismatch."""
    outer, inner = normalize(outer), normalize(inner)
    if target_rshape is not None:
        target_rshape = normalize(target_rshape)
        if sum(outer) - sum(inner) != sum(target_rshape):
            return []
    classes = dict.fromkeys(map(DualClass.of, enumerate_chains(outer, inner)))
    return [cls for cls in classes
            if target_rshape is None or cls.rshape == target_rshape]


def shuffle_classes(a: DualClass, b: DualClass) -> tuple[DualClass, DualClass]:
    """Shuffle two dual-equivalence classes of consecutive shapes; the
    result is independent of the representatives used."""
    if a.outer != b.inner:
        raise ValueError(f"classes not consecutive: {a.outer} != {b.inner}")
    new_lower, new_upper = _shuffle(a.representative, b.representative)
    return DualClass.of(new_lower), DualClass.of(new_upper)
