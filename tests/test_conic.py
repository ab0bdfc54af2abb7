"""Tests for the exact four-point analysis: the conic reports, checked
against the hypersurface polynomial, the six boundary labels,
consistency with the growth diagrams, and the flag example quartic."""

import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from growth.conic import (
    ConicReport, DegenerateReport, EmptyReport, Monomial, _split_indices,
    _tau_over_u, boundary_points, consistency_with_growth, delta,
    flag6_example, four_point_solve, isolate_real_roots, six_point_cycle,
    sturm_count, sturm_sequence,
)
from growth.cylgrowth import cgd_enumerate
from growth.partitions import (
    Frame, _intermediates, added_box, complement, contains, index_set,
    is_domino,
)
from test_partitions import all_partitions

F24 = Frame(2, 4)
F25 = Frame(2, 5)
F26 = Frame(2, 6)
BOX = (1,)


def ell(subset, d: int) -> int:
    """Sum of the elements minus the triangular offset for d rows."""
    return sum(subset) - comb(d, 2)


def wronski_polynomial(pluecker, frame: Frame):
    """Coefficients in z of the single-box condition at the point z: the
    sum over d-subsets I of delta(I) * p_I * (-z)^(d(n-d) - ell(I)).

    pluecker maps d-subsets (any iterable of ints) to coefficients; missing
    subsets count as zero.  Returns a sparse map from the power of z to the
    coefficient; powers may be negative, so the result is a polynomial only
    up to a global power of z."""
    d, n = frame.d, frame.n
    total = frame.size
    table = {}
    for subset, value in pluecker.items():
        key = frozenset(subset)
        if len(key) != d or any(not 1 <= x <= n for x in key):
            raise ValueError(f"{subset} is not a {d}-subset of [1,{n}]")
        if key in table:
            raise ValueError(f"duplicate subset {subset}")
        table[key] = value
    if all(v == 0 for v in table.values()) or not table:
        raise ValueError("all Pluecker coordinates are zero")
    coeffs = {}
    for key, value in table.items():
        power = total - ell(key, d)
        sign = -1 if power % 2 else 1
        coeffs[power] = coeffs.get(power, 0) + sign * delta(key) * value
    return {k: v for k, v in sorted(coeffs.items()) if v != 0}


class TestWronski:
    def test_single_term_13(self):
        coeffs = wronski_polynomial({(1, 3): 1}, F24)
        assert coeffs == {1: -2}

    def test_single_term_12(self):
        coeffs = wronski_polynomial({(1, 2): 1}, F24)
        assert coeffs == {2: 1}

    def test_scaling(self):
        base = wronski_polynomial({(1, 3): 1, (2, 4): 2}, F24)
        scaled = wronski_polynomial({(1, 3): 3, (2, 4): 6}, F24)
        assert scaled == {k: 3 * v for k, v in base.items()}

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            wronski_polynomial({(1, 3): 0}, F24)

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            wronski_polynomial({(1, 2, 3): 1}, F24)


class TestFourPointSolve:
    def test_two_boxes_two_by_two(self):
        report = four_point_solve(BOX, BOX, F24)
        assert isinstance(report, ConicReport)
        assert report.s == () and (report.i, report.j) == (1, 3)
        assert report.conic == (1, 2, 2, 3)
        values = {tuple(sorted(k)): m for k, m in report.pluecker}
        assert values[(1, 3)] == Monomial(Fraction(1, 2), 0, 0)
        assert values[(2, 3)] == Monomial(Fraction(1, 2), 0, 1)
        assert values[(1, 4)] == Monomial(Fraction(1, 2), 1, -1)
        assert values[(2, 4)] == Monomial(Fraction(1, 2), 1, 0)

    def test_u_discriminant(self):
        # a u^2 - (b + c tau) u + d' tau has discriminant 4(tau^2 - tau + 1)
        a, b, c, d = four_point_solve(BOX, BOX, F24).conic
        tau = sympy.symbols("tau")
        disc = sympy.expand((b + c * tau) ** 2 - 4 * a * d * tau)
        assert disc == sympy.expand(4 * (tau ** 2 - tau + 1))

    def test_wider_frame(self):
        report = four_point_solve((3, 1), complement((4, 2), F26), F26)
        assert (report.i, report.j) == (2, 5)
        assert report.conic == (2, 3, 3, 4)
        subsets = {tuple(sorted(k)) for k, _ in report.pluecker}
        assert (2, 5) in subsets and (3, 6) in subsets

    def test_empty(self):
        report = four_point_solve((4,), (1, 1), F26)
        assert isinstance(report, EmptyReport)

    def test_degenerate_domino(self):
        report = four_point_solve((2,), (), F24)
        assert isinstance(report, DegenerateReport)

    def test_codimension_mismatch(self):
        with pytest.raises(ValueError):
            four_point_solve((2,), (2,), F24)


class TestSixPointCycle:
    def test_two_by_two(self):
        assert six_point_cycle(BOX, BOX, F24) == \
            ((1, 1), (2,), (1, 1), (2,), (1, 1), (2,))

    def test_paper_frame_26(self):
        cycle = six_point_cycle((3, 1), complement((4, 2), F26), F26)
        assert cycle == ((3, 2), (4, 1), (1, 1), (4, 1), (3, 2), (2,))

    def test_symmetric_positions(self):
        for frame in (F24, F25, F26):
            for lam, mu in _conic_pairs(frame):
                cycle = six_point_cycle(lam, mu, frame)
                assert cycle[0] == cycle[4] and cycle[1] == cycle[3]
                assert cycle[2] == (1, 1) and cycle[5] == (2,)

    def test_wrong_skew_rejected(self):
        with pytest.raises(ValueError):
            six_point_cycle((2,), (), F24)  # domino skew
        with pytest.raises(ValueError):
            six_point_cycle((2,), (1, 1), F24)  # empty problem


def reference_six_point_cycle(lam, mu, frame):
    """six_point_cycle as it was before its vanishing pattern was cached:
    the Pluecker coordinates evaluated at the six boundary points on every
    call, and the labels filled in with the intermediate partitions."""
    muc = complement(mu, frame)
    middles = _intermediates(lam, muc)
    boxes = {kappa: added_box(lam, kappa) for kappa in middles}
    kappa1, kappa2 = sorted(middles, key=lambda k: -boxes[k][0])
    _, i, j = _split_indices(index_set(lam, frame), index_set(muc, frame))
    q = j - i
    labels = []
    for point in boundary_points(q):
        if point == ("slant_end",):
            labels.append(kappa1)
        elif point == ("horizontal_end",):
            labels.append(kappa2)
        else:
            tau, u = point
            k2_value = _tau_over_u(q, u) if u == 0 else tau / u
            assert not (u == 0 and k2_value == 0)
            labels.append(kappa2 if u == 0 else
                          kappa1 if k2_value == 0 else None)
    for pos in (2, 5):
        before = labels[pos - 1]
        assert labels[pos] is None and before == labels[(pos + 1) % 6]
        labels[pos] = (1, 1) if before == kappa2 else (2,)
    return tuple(labels)


def six_point_visits():
    """Every (frame, lam, mu) that the six-point check passes to
    six_point_cycle: the conic pairs of (2,4)-(2,6), through
    four_point_solve, and the two-step segments adding two nonadjacent
    boxes in the enumerated diagrams of (2,4) and (2,5), through
    consistency_with_growth."""
    visits = {(frame, lam, mu) for frame in (F24, F25, F26)
              for lam, mu in _conic_pairs(frame)}
    for frame in (F24, F25):
        r = frame.size
        for g in cgd_enumerate(frame):
            for i in range(r):
                for j in range(i, i + r - 1):
                    lam, top = g.get(i, j), g.get(i, j + 2)
                    if not is_domino(lam, top):
                        visits.add((frame, lam, complement(top, frame)))
    return sorted(visits, key=repr)


def test_six_point_cycle_matches_uncached():
    visits = six_point_visits()
    reports = [four_point_solve(lam, mu, frame) for frame, lam, mu in visits]
    assert len({report.j - report.i for report in reports}) > 1  # several q
    for frame, lam, mu in visits:
        assert six_point_cycle(lam, mu, frame) == \
            reference_six_point_cycle(lam, mu, frame), (frame, lam, mu)


def _conic_pairs(frame):
    """All (lam, mu) with two nonadjacent boxes between lam and the
    complement of mu."""
    out = []
    for lam in all_partitions(frame):
        for mu in all_partitions(frame):
            if sum(lam) + sum(mu) != frame.size - 2:
                continue
            muc = complement(mu, frame)
            if contains(muc, lam) and not is_domino(lam, muc):
                out.append((lam, mu))
    return out


def times(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials."""
    return Monomial(m1.coeff * m2.coeff, m1.tau_pow + m2.tau_pow,
                    m1.u_pow + m2.u_pow)


class TestInvariants:
    def test_unbranched_certificate(self):
        for frame in (F24, F25, F26):
            for lam, mu in _conic_pairs(frame):
                a, b, c, d = four_point_solve(lam, mu, frame).conic
                assert b * c > a * d

    def test_pluecker_product_identity(self):
        for frame in (F24, F25, F26):
            for lam, mu in _conic_pairs(frame):
                report = four_point_solve(lam, mu, frame)
                values = {tuple(sorted(k)): m for k, m in report.pluecker}
                s, i, j = set(report.s), report.i, report.j
                p_l = values[tuple(sorted(s | {i, j}))]
                p_k1 = values[tuple(sorted(s | {i + 1, j}))]
                p_k2 = values[tuple(sorted(s | {i, j + 1}))]
                p_m = values[tuple(sorted(s | {i + 1, j + 1}))]
                assert times(p_l, p_m) == times(p_k1, p_k2)

    def test_wronski_roots_one_and_tau(self):
        tau, u, z = sympy.symbols("tau u z")
        for frame, lam, mu in [(F24, BOX, BOX),
                               (F26, (3, 1), complement((4, 2), F26))]:
            report = four_point_solve(lam, mu, frame)
            a, b, c, d = report.conic
            pluecker = {tuple(sorted(k)):
                        m.coeff * tau ** m.tau_pow * u ** m.u_pow
                        for k, m in report.pluecker}
            coeffs = wronski_polynomial(pluecker, frame)
            low = min(coeffs)
            assert sorted(coeffs) == [low, low + 1, low + 2]
            # on the conic, tau = u (b - a u) / (d - c u)
            on_conic = {tau: u * (b - a * u) / (d - c * u)}
            quad = sum(coeffs[low + k] * z ** k for k in range(3))
            want = coeffs[low + 2] * (z - 1) * (z - tau)
            diff = sympy.simplify((quad - want).subs(on_conic))
            assert diff == 0

    def test_boundary_specialization(self):
        for lam, mu in _conic_pairs(F26):
            a, b, c, d = four_point_solve(lam, mu, F26).conic
            q = b

            def conic(tau, u):
                return a * u * u - b * u - c * tau * u + d * tau

            assert conic(0, 0) == 0
            assert conic(0, Fraction(q, q - 1)) == 0
            assert conic(1, 1) == 0
            assert conic(1, Fraction(q + 1, q - 1)) == 0


class TestGrowthConsistency:
    @pytest.mark.parametrize("frame", [F24, F25])
    def test_frames(self, frame):
        assert consistency_with_growth(frame)


class TestFlag6:
    def test_quartic(self):
        result = flag6_example()
        assert result["quartic"] == (256, -960, 1281, -720, 144)

    def test_eliminant(self):
        c0, c1, c2 = flag6_example()["eliminant"]
        assert c1 == (16, 15, -12)
        assert c0 == (-12, 6) and c2 == (0, -30, 15)

    def test_roots(self):
        roots = flag6_example()["roots"]
        expected = [0.678121, 0.945553, 1.41011, 1.96622]
        assert len(roots) == 4
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-4

    def test_roots_as_found_by_grid_bisection(self):
        # the floats that sign changes on a 1/16 grid, then 60 halvings in
        # Fraction, gave for the same quartic
        before = (0.6781214568770147, 0.9455532774973412,
                  1.4101091552052525, 1.9662161104203917)
        for got, want in zip(flag6_example()["roots"], before, strict=True):
            assert abs(got - want) < 1e-12

    def test_intervals_certified(self):
        result = flag6_example()
        seq = sturm_sequence(result["quartic"])
        intervals = result["intervals"]
        assert len(intervals) == 4
        for (lo, hi), root in zip(intervals, result["roots"]):
            assert sturm_count(seq, lo, hi) == 1
            assert lo < root <= hi
            # dyadic ends
            assert lo.denominator & (lo.denominator - 1) == 0
            assert hi.denominator & (hi.denominator - 1) == 0
        tau = sympy.Symbol("tau")
        quartic = sympy.Poly(list(reversed(result["quartic"])), tau)
        assert quartic.count_roots() == 4

    def test_system_yields_eliminant(self):
        # the resultant in u of the two returned equations is a constant
        # multiple of the returned eliminant c0 + c1 v + c2 v^2
        tau, u, v = sympy.symbols("tau u v")
        result = flag6_example()
        equations = [sum(t ** k * (one + x * u + y * v + xy * u * v)
                         for k, (one, x, y, xy) in enumerate(rows))
                     for t, rows in ((tau, eq) for eq in result["system"])]
        eliminant = sum(v ** k * sum(c * tau ** j for j, c in enumerate(cs))
                        for k, cs in enumerate(result["eliminant"]))
        ratio = sympy.cancel(sympy.resultant(*equations, u) / eliminant)
        assert ratio.is_number and ratio != 0


def sympy_poly(coeffs):
    """The sympy polynomial of integer coefficients, lowest degree first."""
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def assert_isolates(coeffs):
    """The intervals from the Sturm isolator are increasing, disjoint, and
    hold one root each, and sympy finds no real root outside them."""
    seq = sturm_sequence(coeffs)
    intervals = isolate_real_roots(seq)
    p = sympy_poly(coeffs)
    assert len(intervals) == p.count_roots(), coeffs
    for (lo, hi), (lo2, _) in zip(intervals, intervals[1:]):
        assert hi <= lo2
    for lo, hi in intervals:
        assert lo < hi
        # count_roots counts the closed interval [lo, hi]
        at_lo = p.eval(sympy.Rational(lo.numerator, lo.denominator)) == 0
        assert p.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                             sympy.Rational(hi.numerator, hi.denominator)) \
            - at_lo == 1, (coeffs, lo, hi)
        assert sturm_count(seq, lo, hi) == 1


def poly_product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


class TestSturm:
    def test_cases_the_grid_missed(self):
        # two roots in one cell of the old 1/16 grid, 0.3 and 0.31
        assert_isolates(poly_product((-3, 10), (-31, 100)))
        # a double root, where the sign does not change
        assert_isolates(poly_product((-1, 3), (-1, 3), (-2, 1)))
        # a root on an interval end: 0 and 1 are halving points
        assert_isolates(poly_product((0, 1), (-1, 1), (1, 1), (5, 0, 1)))
        # a triple root and a negative double root
        assert_isolates(poly_product((-2, 1), (-2, 1), (-2, 1), (7, 2),
                                     (7, 2)))

    def test_random_against_sympy(self):
        rng = random.Random(14)
        for _ in range(120):
            factors = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                if kind < 0.5:
                    a = rng.randint(1, 40)
                    factors.append((rng.randint(-60, 60), a))
                    if rng.random() < 0.3:
                        factors.append(factors[-1])  # a repeated root
                elif kind < 0.8:
                    factors.append(tuple(rng.randint(-9, 9)
                                         for _ in range(3)))
                else:
                    factors.append(tuple(rng.randint(-20, 20)
                                         for _ in range(rng.randint(2, 6))))
            coeffs = poly_product(*factors)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) < 2:
                continue
            assert_isolates(coeffs)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            sturm_sequence((3,))
        with pytest.raises(ValueError):
            sturm_sequence((0, 0))


def test_delta_oracle():
    assert delta({1, 3}) == 2
    assert delta({2, 4, 5}) == 2 * 3 * 1
