"""Verification checks shared by the command line and the test suite.

Each check returns (ok, detail).  run_checks executes a named suite and
reports one line per check with its runtime.  Besides the checks, this
module holds what only they use: the packaged reference diagrams, the
q-hook polynomial and its values at roots of unity, promotion as a
function on rectangular tableaux, and the d=2 bijection between growth
diagrams and noncrossing matchings."""

import json
import time
from importlib import resources
from itertools import combinations, product
from math import gcd

from growth.conic import (
    _poly_mul, _pseudo_divide, consistency_with_growth, flag6_example,
    four_point_solve, sturm_count, sturm_sequence,
)
from growth.cylgrowth import (
    CylGrowthDiagram, cgd_enumerate, cgd_from_path, row_path,
)
from growth.decgd import decgd_enumerate
from growth.moduli import (
    Wall, all_trees, build_cover_graph, cross_cgd, facets, fiber_count,
    graph_components,
)
from growth.partitions import (
    Frame, added_box, complement, contains, fiber_size, hook_lengths,
    is_domino, lr_coefficient, normalize, partitions_in, syt_count,
)
from growth.tableaux import (
    Chain, dual_classes, enumerate_chains, rectify, shuffle, shuffle_classes,
    validate_chain,
)

F24 = Frame(2, 4)
F25 = Frame(2, 5)
F26 = Frame(2, 6)
BOX = (1,)


def load_golden(name: str) -> dict:
    """Load a packaged reference file: 'growth_example' or 'wall_example'."""
    text = resources.files("growth.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def golden_diagram(name: str) -> CylGrowthDiagram:
    """The reference diagram as a value: the unique diagram taking the
    file's printed chain along its printed path.  The printed rows (rows
    1..7, row t spanning (t, t)..(t, t+r)) are the checks' oracle."""
    data = load_golden(name)
    frame = Frame(data["frame"]["d"], data["frame"]["n"])
    return cgd_from_path(data["path"], data["chain"], frame)


def golden_figure_entries(name: str):
    """Iterate (i, j, partition) over every entry printed in the figure,
    in the figure's own coordinates."""
    data = load_golden(name)
    start = data["figure_start_row"]
    for offset, row in enumerate(data["figure_rows"]):
        i = start + offset
        for k, p in enumerate(row):
            yield i, i + k, normalize(p)


def check_figure_growth():
    """The packaged growth figure is rebuilt exactly from the chain along
    its marked path."""
    g = golden_diagram("growth_example")
    for i, j, expected in golden_figure_entries("growth_example"):
        if g.get(i, j) != expected:
            return False, f"entry ({i},{j}) is {g.get(i, j)}, not {expected}"
    return True, "all figure entries reproduced"


def check_figure_wall():
    """Crossing the figure's wall maps the top diagram to the bottom one,
    and crossing again restores the top."""
    top = golden_diagram("growth_example")
    data = load_golden("wall_example")
    wall = Wall(data["wall"][0], data["wall"][1], data["r"])
    crossed = cross_cgd(top, wall)
    for i, j, expected in golden_figure_entries("wall_example"):
        if crossed.get(i, j) != expected:
            return False, f"entry ({i},{j}) is {crossed.get(i, j)}"
    if cross_cgd(crossed, wall) != top:
        return False, "crossing twice does not restore the top diagram"
    return True, "bottom figure reproduced and crossing is an involution"


def q_hook(frame: Frame) -> list[int]:
    """Coefficients, lowest degree first, of the q-hook polynomial
    [N]_q! / prod [h(c)]_q of the d x (n-d) rectangle, N = d(n-d)."""
    poly = [1]
    for k in range(1, frame.size + 1):
        poly = _poly_mul(poly, [1] * k)
    for h in hook_lengths(frame.rectangle()):
        # exact division by [h]_q, whose leading coefficient is 1
        poly = _pseudo_divide(poly, [1] * h)[0]
    return poly


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _ramanujan(m: int, t: int) -> int:
    """The sum of w^t over the primitive m-th roots of unity w, by Moebius
    inversion: the sum of mu(m / e) e over the divisors e of gcd(m, t)."""
    g = gcd(m, t)
    return sum(_mobius(m // e) * e for e in range(1, g + 1) if g % e == 0)


def at_primitive_root(poly: list[int], m: int) -> int | None:
    """poly at a primitive m-th root of unity, when that value is an
    integer: the average of its conjugates, sum_t s_t c_m(t) / phi(m), with
    s_t the coefficient sum over exponents = t (mod m) and c_m the
    Ramanujan sum.  None when that average is not an integer."""
    trace = sum(sum(poly[t::m]) * _ramanujan(m, t) for t in range(m))
    value, rest = divmod(trace, _ramanujan(m, 0))
    return None if rest else value


def rotation_fixed(diagrams, k: int) -> int:
    """How many diagrams equal their rotation by k rows."""
    return sum(g.rows[k:] + g.rows[:k] == g.rows for g in diagrams)


def promotion(chain: Chain, frame: Frame) -> Chain:
    """Promotion of a rectangular standard tableau: place the chain along
    row 0 of its growth diagram and read row 1."""
    chain = validate_chain(chain)
    if chain[0] != () or chain[-1] != frame.rectangle():
        raise ValueError("promotion needs a straight tableau of the rectangle")
    g = cgd_from_path(row_path(frame.size), chain, frame)
    return g.row(1)


def matching_of_cgd(g: CylGrowthDiagram):
    """The noncrossing matching of a d=2 diagram: {a, b} is an arc exactly
    when the interior window entry is a balanced column pair (s, s) and the
    closed window entry is (s+1, s+1)."""
    if g.frame.d != 2:
        raise ValueError("matchings exist only for d = 2")
    r = g.r
    arcs = []
    for a, b in combinations(range(1, r + 1), 2):
        if (b - a) % 2 == 0:
            continue
        s = (b - a - 1) // 2
        interior = g.get(a, b - 1)
        closed = g.get(a - 1, b)
        if interior == normalize((s, s)) and closed == (s + 1, s + 1):
            arcs.append(frozenset((a, b)))
    validate_matching(arcs, r)
    return frozenset(arcs)


def validate_matching(arcs, r: int):
    """Check that arcs form a perfect noncrossing matching of [r]."""
    pts = sorted(x for arc in arcs for x in arc)
    if pts != list(range(1, r + 1)):
        raise ValueError("not a perfect matching of [r]")
    for arc1, arc2 in combinations(arcs, 2):
        a, b = sorted(arc1)
        c, e = sorted(arc2)
        if (a < c < b) != (a < e < b):
            raise ValueError(f"arcs {sorted(arc1)} and {sorted(arc2)} cross")


def matching_entry(arcs, i: int, j: int, r: int) -> tuple[int, ...]:
    """Diagram entry determined by a matching: over the window of points
    i+1 .. j (mod r), the entry is (s + t, s) with s arcs inside the window
    and t arcs crossing its boundary."""
    window = {((x - 1) % r) + 1 for x in range(i + 1, j + 1)}
    s = sum(1 for arc in arcs if arc <= window)
    t = sum(1 for arc in arcs if len(arc & window) == 1)
    return normalize((s + t, s))


def cgd_of_matching(arcs, frame: Frame) -> CylGrowthDiagram:
    """Inverse of :func:`matching_of_cgd`: rebuild row 0 from window
    counts and extend."""
    if frame.d != 2:
        raise ValueError("matchings exist only for d = 2")
    r = frame.size
    arcs = frozenset(frozenset(a) for a in arcs)
    validate_matching(arcs, r)
    chain = [matching_entry(arcs, 0, j, r) for j in range(r + 1)]
    return cgd_from_path(row_path(r), chain, frame)


def rotate_matching(arcs, r: int, step: int = 1):
    """Rotate every point of the matching by step positions around the
    circle."""
    return frozenset(frozenset(((x - 1 + step) % r) + 1 for x in arc)
                     for arc in arcs)


def noncrossing_matchings(r: int):
    """All noncrossing perfect matchings of [r]."""
    return _matchings_of(list(range(1, r + 1)))


def _matchings_of(points):
    if not points:
        return [frozenset()]
    first = points[0]
    out = []
    for idx in range(1, len(points), 2):
        partner = points[idx]
        inside = _matchings_of(points[1:idx])
        outside = _matchings_of(points[idx + 1:])
        for m1 in inside:
            for m2 in outside:
                out.append(frozenset({frozenset((first, partner))} | m1 | m2))
    return out


def check_counts():
    """Diagram counts match the hook-length number of standard fillings of
    the rectangle, and rotating the rows exhibits the cyclic sieving
    phenomenon with the q-hook polynomial."""
    for frame, expected in [(F24, 2), (F25, 5), (Frame(3, 6), 42)]:
        diagrams = cgd_enumerate(frame)
        got = len(diagrams)
        hook = fiber_size(frame, [BOX] * frame.size)
        chain = syt_count(frame.rectangle())
        if not got == hook == chain == expected:
            return False, (f"{frame}: enumerated {got}, hook {hook}, "
                           f"chains {chain}, expected {expected}")
        poly, n = q_hook(frame), frame.size
        for k in range(n):
            fixed = rotation_fixed(diagrams, k)
            sieve = at_primitive_root(poly, n // gcd(k, n))
            if fixed != sieve:
                return False, (f"{frame}: rotation by {k} fixes {fixed} "
                               f"diagrams, the q-hook sieve gives {sieve}")
    return True, "counts 2, 5, 42 agree with the hook formula"


def check_decgd_counts():
    """Class-diagram counts equal multi-factor Littlewood-Richardson
    coefficients computed by independent chain enumeration."""
    rect = F24.rectangle()
    parts = [p for p in partitions_in(F24) if p]
    for r in (3, 4):
        for shape in product(parts, repeat=r):
            if sum(map(sum, shape)) != F24.size:
                continue
            got = len(decgd_enumerate(F24, shape))
            want = lr_coefficient(rect, list(shape))
            if got != want:
                return False, f"(2,4) shape {shape}: {got} != {want}"
    samples = [((2, 2), BOX, BOX), ((2, 1), (2,), BOX), ((3, 1), BOX, BOX),
               ((1, 1), (2,), (2,)), ((2,), (2,), BOX, BOX)]
    for shape in samples:
        got = len(decgd_enumerate(F25, shape))
        want = lr_coefficient(F25.rectangle(), list(shape))
        if got != want:
            return False, f"(2,5) shape {shape}: {got} != {want}"
    return True, "all counts match the Littlewood-Richardson oracle"


def check_conic_g24():
    """The two-box problem in the 2x2 frame yields the expected conic and
    u-discriminant, exactly."""
    report = four_point_solve(BOX, BOX, F24)
    if getattr(report, "conic", None) != (1, 2, 2, 3):
        return False, f"conic coefficients {getattr(report, 'conic', None)}"
    a, b, c, d = report.conic
    # ((b + c tau)^2 - 4 a d tau) as coefficients in tau
    disc = (b * b, 2 * b * c - 4 * a * d, c * c)
    if disc != (4, -4, 4):
        return False, f"u-discriminant {disc}, expected 4(tau^2 - tau + 1)"
    return True, "conic u^2 - 2u - 2 tau u + 3 tau with discriminant " \
        "4(tau^2 - tau + 1)"


def check_six_point():
    """The boundary labels follow the six-point pattern everywhere, and
    agree with the enumerated growth diagrams."""
    for frame in (F24, F25, F26):
        parts = partitions_in(frame)
        for lam in parts:
            for mu in parts:
                if sum(lam) + sum(mu) != frame.size - 2:
                    continue
                muc = complement(mu, frame)
                if not contains(muc, lam) or is_domino(lam, muc):
                    continue
                report = four_point_solve(lam, mu, frame)
                cycle = report.labels
                ok = (cycle[0] == cycle[4] and cycle[1] == cycle[3]
                      and cycle[2] == (1, 1) and cycle[5] == (2,))
                if not ok:
                    return False, f"{frame} {lam},{mu}: cycle {cycle}"
    for frame in (F24, F25):
        if not consistency_with_growth(frame):
            return False, f"growth consistency fails on {frame}"
    return True, "pattern holds in frames (2,4)-(2,6), growth-consistent"


def check_flag6():
    """The six-step flag example has the expected quartic and real
    roots, four isolating intervals that each hold one root, and each
    rounded root in its interval."""
    result = flag6_example()
    if result["quartic"] != (256, -960, 1281, -720, 144):
        return False, f"quartic {result['quartic']}"
    seq = sturm_sequence(result["quartic"])
    intervals = result["intervals"]
    if len(intervals) != 4 or any(
            sturm_count(seq, lo, hi) != 1 or not lo <= root <= hi
            for (lo, hi), root in zip(intervals, result["roots"])):
        return False, f"isolating intervals {intervals}"
    expected = [0.678121, 0.945553, 1.41011, 1.96622]
    roots = result["roots"]
    if len(roots) != 4 or any(abs(g - w) > 1e-4
                              for g, w in zip(roots, expected)):
        return False, f"roots {roots}"
    return True, "quartic (256,-960,1281,-720,144), four real roots"


def check_cover_r4():
    """The cover over the three facets with four single boxes is one
    six-cycle."""
    graph = build_cover_graph(F24, [BOX] * 4)
    if len(graph.nodes) != 6 or len(graph.edges) != 6:
        return False, f"{len(graph.nodes)} nodes, {len(graph.edges)} edges"
    if graph_components(graph) != 1:
        return False, "not connected"
    if len({facet for facet, _ in graph.nodes}) != len(facets(4)):
        return False, "nodes do not cover all three facets"
    degree = {}
    for u, v, _ in graph.edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if set(degree.values()) != {2}:
        return False, "not a single cycle"
    return True, "single 6-cycle over 3 facets"


def check_properties():
    """Structural properties with no single printed number: shuffle
    involution, rectification path independence, class counts, glide
    reflection, the domino rule, promotion order, the arc bijection with
    rotation as promotion, and tree independence of fiber counts."""
    # shuffle involution on all composable class pairs in the 2x2 frame
    parts = partitions_in(F24)
    for inner in parts:
        for mid in parts:
            if not contains(mid, inner):
                continue
            for outer in parts:
                if not contains(outer, mid):
                    continue
                for x in dual_classes(mid, inner):
                    for y in dual_classes(outer, mid):
                        if shuffle_classes(*shuffle_classes(x, y)) != (x, y):
                            return False, "shuffle is not an involution"
    # rectification is independent of the straight tableau shuffled in
    for inner in parts:
        for outer in parts:
            if not inner or not contains(outer, inner) or inner == outer:
                continue
            for t in enumerate_chains(outer, inner):
                results = {shuffle(alpha, t)[0]
                           for alpha in enumerate_chains(inner, ())}
                if len(results) != 1 or results.pop() != rectify(t):
                    return False, f"rectification differs for {t}"
    # dual-class counts are Littlewood-Richardson coefficients
    for inner in parts:
        for outer in parts:
            if not contains(outer, inner):
                continue
            for target in parts:
                if sum(target) != sum(outer) - sum(inner):
                    continue
                got = len(dual_classes(outer, inner, target))
                want = lr_coefficient(outer, [inner, target])
                if got != want:
                    return False, f"{outer}/{inner} content {target}: " \
                        f"{got} != {want}"
    for frame in (F24, F25):
        diagrams = cgd_enumerate(frame)
        r = frame.size
        for g in diagrams:
            # glide reflection
            for i in range(r):
                for k in range(r + 1):
                    if g.get(i, i + k) != complement(g.get(i + k, i + r),
                                                     frame):
                        return False, f"glide reflection fails in {frame}"
            # domino rule on every two-step segment
            for i in range(r):
                for j in range(i, i + r - 1):
                    first, _ = added_box(g.get(i, j), g.get(i, j + 1))
                    second, _ = added_box(g.get(i, j + 1), g.get(i, j + 2))
                    # second box weakly north (same row means east) gives
                    # the row pair, strictly south gives the column pair
                    expected = (2,) if second <= first else (1, 1)
                    if g.get(j, j + 2) != expected:
                        return False, f"domino rule fails in {frame}"
            # promotion applied r times is the identity
            t = g.row(0)
            for _ in range(r):
                t = promotion(t, frame)
            if t != g.row(0):
                return False, f"promotion order does not divide {r}"
        # arc bijection round trip and rotation as promotion
        matchings = {frozenset(m) for m in noncrossing_matchings(r)}
        seen = set()
        for g in diagrams:
            m = matching_of_cgd(g)
            if cgd_of_matching(m, frame) != g:
                return False, f"arc bijection fails in {frame}"
            promoted = cgd_from_path(row_path(r), promotion(g.row(0), frame),
                                     frame)
            if matching_of_cgd(promoted) != rotate_matching(m, r, -1):
                return False, f"rotation is not promotion in {frame}"
            seen.add(m)
        if seen != matchings:
            return False, f"arc bijection misses matchings in {frame}"
    # fiber counts do not depend on the tree
    cases = [(F24, [BOX] * 4), (F24, [(2,), BOX, BOX]),
             (F25, [(2,), BOX, BOX, BOX, BOX]), (F25, [(2,), (2,), BOX, BOX]),
             (F25, [(1, 1), (2,), BOX, BOX])]
    for frame, shape in cases:
        r = len(shape)
        expected = lr_coefficient(frame.rectangle(), shape)
        for tree in all_trees(r):
            if fiber_count(tree, shape, frame) != expected:
                return False, f"fiber count varies over trees for {shape}"
    return True, "shuffle, rectification, class counts, glide, domino, " \
        "promotion, matchings, fiber counts all hold"


CHECKS = (
    ("figure-growth", "growth", check_figure_growth),
    ("figure-wall", "growth", check_figure_wall),
    ("counts", "growth", check_counts),
    ("decgd-counts", "growth", check_decgd_counts),
    ("conic-g24", "conic", check_conic_g24),
    ("six-point", "conic", check_six_point),
    ("flag6", "conic", check_flag6),
    ("cover-r4", "growth", check_cover_r4),
    ("properties", "growth", check_properties),
)

SUITES = ("growth", "conic")


def run_checks(only=None):
    """Run all checks, or one suite; returns (name, ok, detail, seconds)."""
    if only is not None and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {SUITES}")
    results = []
    for name, suite, fn in CHECKS:
        if only is not None and suite != only:
            continue
        start = time.monotonic()
        ok, detail = fn()
        results.append((name, ok, detail, time.monotonic() - start))
    return results
