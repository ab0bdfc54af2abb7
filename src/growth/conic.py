"""Exact rational analysis of four-point problems with two single-box
conditions: the explicit conic through the solutions with its four
nonzero Pluecker coordinates, the circular order of the six boundary
points, and the six-step flag example with real branch points.

All arithmetic is exact over the integers and rationals.  The flag
example's branch points are the real roots of an integer quartic: a Sturm
sequence isolates them into exact intervals with dyadic ends, each
certified by its Sturm count to hold one root, and halving in integers
narrows each to a float that is for display only."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

from growth.cylgrowth import cgd_enumerate
from growth.partitions import (
    Frame, _intermediates, _Value, added_box, complement, contains,
    index_set, is_domino, normalize,
)


def delta(subset) -> int:
    """Product of the positive differences of the elements."""
    elems = sorted(subset)
    out = 1
    for a, b in combinations(elems, 2):
        out *= b - a
    return out


class Monomial(_Value):
    """Exact monomial c * tau^s * u^t with rational coefficient."""

    __slots__ = ("coeff", "tau_pow", "u_pow")


class EmptyReport(_Value):
    """The two conditions are incompatible: the complement of one does not
    contain the other, so there are no solutions."""

    __slots__ = ("lam", "mu")


class DegenerateReport(_Value):
    """The skew shape between the conditions is a domino: the solution
    family maps isomorphically to the base, degree one, no monodromy."""

    __slots__ = ("lam", "mu")


class ConicReport(_Value):
    """The generic case: two nonadjacent boxes between the conditions.

    The solutions are parametrized by the conic
    a u^2 - b u - c tau u + d' tau = 0 with conic = (a, b, c, d') =
    (j-i-1, j-i, j-i, j-i+1), and only four Pluecker coordinates are
    nonzero.  The index sets of lam and of mu's complement are
    s + {i, j} and s + {i+1, j+1}; pluecker holds the four (index set,
    :class:`Monomial`) pairs, and labels the six boundary labels in
    circular order."""

    __slots__ = ("frame", "lam", "mu", "s", "i", "j", "conic", "pluecker",
                 "labels")


def _split_indices(left, right):
    """Write the index sets as S+{i,j} and S+{i+1,j+1} with
    i < i+1 < j < j+1 all outside S."""
    left, right = set(left), set(right)
    shared = left & right
    low = sorted(left - shared)
    high = sorted(right - shared)
    if len(low) != 2 or len(high) != 2:
        raise ValueError("index sets do not differ in exactly two places")
    i, j = low
    if high != [i + 1, j + 1] or j <= i + 1:
        raise ValueError("index sets are not in the nonadjacent-box form")
    if {i, i + 1, j, j + 1} & shared:
        raise ValueError("shifted indices collide with the shared part")
    return tuple(sorted(shared)), i, j


def four_point_solve(lam, mu, frame: Frame):
    """Solve the problem with conditions lam, mu and two single boxes.

    Returns an EmptyReport when the complement of mu does not contain lam,
    a DegenerateReport when the skew difference is a domino, and otherwise
    the ConicReport with the conic, the four nonzero Pluecker coordinates,
    and the six boundary labels."""
    lam = normalize(lam)
    mu = normalize(mu)
    if sum(lam) + sum(mu) != frame.size - 2:
        raise ValueError("codimensions must sum to d(n-d) - 2")
    muc = complement(mu, frame)
    if not contains(muc, lam):
        return EmptyReport(lam, mu)
    if is_domino(lam, muc):
        return DegenerateReport(lam, mu)
    left = index_set(lam, frame)
    right = index_set(muc, frame)
    s, i, j = _split_indices(left, right)
    q = j - i
    shared = frozenset(s)
    sub_l = shared | {i, j}
    sub_k1 = shared | {i + 1, j}
    sub_k2 = shared | {i, j + 1}
    sub_m = shared | {i + 1, j + 1}
    pluecker = (
        (sub_l, Monomial(Fraction(1, delta(sub_l)), 0, 0)),
        (sub_k1, Monomial(Fraction(q - 1, q * delta(sub_k1)), 0, 1)),
        (sub_k2, Monomial(Fraction(q + 1, q * delta(sub_k2)), 1, -1)),
        (sub_m, Monomial(Fraction(1, delta(sub_m)), 1, 0)),
    )
    return ConicReport(frame, lam, mu, s, i, j, (q - 1, q, q, q + 1),
                       pluecker, _cycle_labels(lam, muc, q))


def _tau_over_u(q: int, u: Fraction) -> Fraction:
    """The exact value of tau/u on the conic at the given u; the conic
    gives tau = u (q - (q-1) u) / ((q+1) - q u)."""
    den = (q + 1) - q * u
    if den == 0:
        raise ValueError("u lies on the vertical tangent")
    return (q - (q - 1) * u) / den


def boundary_points(q: int):
    """The six boundary points in circular order along the real conic,
    as (tau, u) pairs; the two asymptote ends are tagged by name.

    The slant asymptote is u = (q/(q-1)) tau + 1/(q(q-1)) and the
    horizontal asymptote is u = (q+1)/q; travelling with increasing u the
    points appear in this order."""
    return (
        ("slant_end",),
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        ("horizontal_end",),
        (Fraction(0), Fraction(q, q - 1)),
        (Fraction(1), Fraction(q + 1, q - 1)),
    )


@cache
def _boundary_labels(q: int):
    """The six-point cycle of the conic for q, each label an index into
    (southwest intermediate, northeast intermediate, (1, 1), (2,)): which
    of the four Pluecker coordinates vanish at each boundary point depends
    only on q, so it is evaluated once per q, exactly.  Vanishing of the u
    coordinate picks the northeast intermediate, vanishing of tau/u the
    southwest one.  The two points where all four survive sit between
    equal flanking labels and carry the column pair or the row pair
    accordingly."""
    labels = []
    for point in boundary_points(q):
        if point == ("slant_end",):
            # u grows linearly in tau, so after rescaling by u the
            # coordinate carrying tau/u dies and the southwest label shows
            labels.append(0)
        elif point == ("horizontal_end",):
            # tau alone grows, killing the plain-u coordinate
            labels.append(1)
        else:
            tau, u = point
            k1_value = u
            # at u = 0 the ratio tau/u is read off the conic as a limit
            k2_value = _tau_over_u(q, u) if u == 0 else tau / u
            if k1_value == 0 and k2_value == 0:
                raise ValueError("both intermediate coordinates vanish")
            if k1_value == 0:
                labels.append(1)
            elif k2_value == 0:
                labels.append(0)
            else:
                labels.append(None)
    for pos in (2, 5):
        before = labels[pos - 1]
        after = labels[(pos + 1) % 6]
        if labels[pos] is not None or before != after:
            raise ValueError("boundary labels do not follow the pattern")
        labels[pos] = 2 if before == 1 else 3
    return tuple(labels)


def six_point_cycle(lam, mu, frame: Frame):
    """Labels of the six boundary points in circular order, read off
    :func:`_boundary_labels`."""
    lam = normalize(lam)
    mu = normalize(mu)
    muc = complement(mu, frame)
    if not contains(muc, lam) or sum(muc) - sum(lam) != 2 or \
            is_domino(lam, muc):
        raise ValueError("the skew difference must be two nonadjacent boxes")
    _, i, j = _split_indices(index_set(lam, frame), index_set(muc, frame))
    return _cycle_labels(lam, muc, j - i)


def _cycle_labels(lam, muc, q: int):
    """The six-point cycle between lam and muc, two nonadjacent boxes
    apart with q = j - i."""
    middles = _intermediates(lam, muc)
    boxes = {kappa: added_box(lam, kappa) for kappa in middles}
    # the southwest box has the larger row index
    kappa1, kappa2 = sorted(middles, key=lambda k: -boxes[k][0])
    labels = (kappa1, kappa2, (1, 1), (2,))
    return tuple(labels[x] for x in _boundary_labels(q))


def consistency_with_growth(frame: Frame) -> bool:
    """Check the six-point cycle against every enumerated growth diagram.

    For each two-step horizontal segment from gamma(i,j) to gamma(i,j+2)
    adding two nonadjacent boxes, the entry gamma(j,j+2) is the pair shape
    that the cycle places after the intermediate gamma(i,j+1)."""
    r = frame.size
    for g in cgd_enumerate(frame):
        for i in range(r):
            for m in range(r - 1):
                j = i + m
                lam = g.get(i, j)
                top = g.get(i, j + 2)
                if is_domino(lam, top):
                    continue
                cycle = six_point_cycle(lam, complement(top, frame), frame)
                middle = g.get(i, j + 1)
                if middle == cycle[1]:
                    predicted = cycle[2]
                elif middle == cycle[0]:
                    predicted = cycle[5]
                else:
                    return False
                if g.get(j, j + 2) != predicted:
                    return False
    return True


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] += x * y
    return out


def _poly_add(*polys):
    out = [0] * max(map(len, polys))
    for p in polys:
        for k, x in enumerate(p):
            out[k] += x
    return out


def _trim(p):
    """p without its leading zero coefficients (lowest degree first)."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """p divided by the gcd of its coefficients, a positive number, so the
    sign of p is kept everywhere."""
    g = gcd(*p)
    return [x // g for x in p]


def _pseudo_divide(a, b):
    """(q, rem) with |lc(b)|^(deg a - deg b + 1) * a = q * b + rem and
    deg rem < deg b: integer polynomials, positive multiples of the
    quotient and remainder over the rationals."""
    m = len(a) - len(b) + 1
    a = [abs(b[-1]) ** m * x for x in a]
    q = [0] * m
    while len(a) >= len(b):
        f = a[-1] // b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for k, y in enumerate(b):
            a[shift + k] -= f * y
        a = _trim(a)
    return q, a


def sturm_sequence(poly):
    """The Sturm sequence of the square-free part of a nonconstant integer
    polynomial (coefficients lowest degree first): p, p', and then the
    negated remainders, each a positive multiple of the field version, so
    sign counts are exact."""
    p = _primitive(_trim(poly))
    if len(p) < 2:
        raise ValueError("need a nonconstant polynomial")
    seq = [p, _primitive([k * x for k, x in enumerate(p)][1:])]
    while len(seq[-1]) > 1:
        rem = _pseudo_divide(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(_primitive([-x for x in rem]))
    if len(seq[-1]) > 1:
        # p has repeated roots: restart from p divided by gcd(p, p')
        return sturm_sequence(_pseudo_divide(p, seq[-1])[0])
    return tuple(tuple(q) for q in seq)


def _sign_at(poly, num: int, den: int) -> int:
    """The sign of poly at num/den, den > 0, from the integer
    den^deg * poly(num/den) by Horner's rule."""
    acc = 0
    scale = 1
    for x in reversed(poly):
        acc = acc * num + x * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations(seq, num: int, den: int) -> int:
    """Sign changes along seq at num/den, zeros skipped."""
    signs = [s for s in (_sign_at(q, num, den) for q in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_count(seq, lo: Fraction, hi: Fraction) -> int:
    """The number of distinct real roots in (lo, hi] of the polynomial
    whose Sturm sequence is seq."""
    return (_variations(seq, lo.numerator, lo.denominator)
            - _variations(seq, hi.numerator, hi.denominator))


def isolate_real_roots(seq):
    """Disjoint intervals (lo, hi] with dyadic ends, in increasing order,
    each holding exactly one real root of the polynomial whose Sturm
    sequence is seq; every root lies in one of them.  Found by halving
    from the Cauchy bound, in integers: at level k the ends are m / 2^k."""
    p = seq[0]
    bound = 2 + max(abs(x) for x in p[:-1]) // abs(p[-1])
    top = 1
    while top < bound:
        top *= 2
    out = []
    pending = [(-top, top, 0)]
    while pending:
        lo, hi, k = pending.pop()
        ends = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
        n = sturm_count(seq, *ends)
        if n == 1:
            out.append(ends)
        elif n > 1:
            # the upper half first, so the pop order is increasing
            pending.append((lo + hi, 2 * hi, k + 1))
            pending.append((2 * lo, lo + hi, k + 1))
    return out


def _approximate(p, lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """A dyadic point within 2^-bits of the one root of the square-free p
    in the interval (lo, hi] with dyadic ends, by halving on the sign of
    p in integers: the root is at or left of a midpoint exactly where p
    has hi's sign there."""
    scale = max(lo.denominator, hi.denominator)
    k = scale.bit_length() - 1
    lo, hi = int(lo * scale), int(hi * scale)
    top = _sign_at(p, hi, 1 << k)
    if top == 0:
        return Fraction(hi, 1 << k)
    while (hi - lo) << bits > 1 << k:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = _sign_at(p, mid, 1 << k)
        if s == 0:
            return Fraction(mid, 1 << k)
        if s == top:
            hi = mid
        else:
            lo = mid
    return Fraction(lo + hi, 2 << k)


def flag6_example() -> dict:
    """The six-step flag example with four real branch points.

    Two bilinear equations in (u, v) with a parameter tau are reduced by
    eliminating u; the resulting quadratic in v has a quartic discriminant
    in tau.  Its real roots are isolated by a Sturm sequence into exact
    intervals with dyadic ends, each certified to hold one root; the
    floats in "roots" are for display only, each within 2^-64 of its
    root."""
    # each equation lists its coefficients of (1, u, v, uv) by the power
    # of tau: 4 - 3u - 5v + 4uv = 0 and
    # 16 - 6 tau u - 30 tau v + 12 tau^2 uv = 0
    system = (((4, -3, -5, 4),),
              ((16, 0, 0, 0), (0, -6, -30, 0), (0, 0, 0, 12)))
    # the first equation gives u = (5v - 4)/(4v - 3); the second times
    # 4v - 3 is a quadratic in v whose coefficients are polynomials in
    # tau, and dividing by their content gives the eliminant
    (a, b, c, e), = system[0]
    num, den = (-a, -c), (b, e)
    # row t of the second equation times den(v), as a polynomial in v
    rows = [_poly_add([one * x for x in den], [u * x for x in num],
                      [0] + [v * x for x in den], [0] + [uv * x for x in num])
            for one, u, v, uv in system[1]]
    coeffs = [tuple(row[k] if k < len(row) else 0 for row in rows)
              for k in range(3)]
    g = gcd(*(x for c in coeffs for x in c))
    c0, c1, c2 = (tuple(_trim(x // g for x in c)) for c in coeffs)
    disc = _poly_add(_poly_mul(c1, c1),
                     [-4 * x for x in _poly_mul(c0, c2)])
    quartic = tuple(disc)
    seq = sturm_sequence(quartic)
    intervals = tuple(isolate_real_roots(seq))
    return {
        "system": system,
        "eliminant": (c0, c1, c2),
        "quartic": quartic,
        "intervals": intervals,
        "roots": tuple(float(_approximate(seq[0], lo, hi, 64))
                       for lo, hi in intervals),
    }
