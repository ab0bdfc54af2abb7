"""Facet combinatorics of the real moduli of r marked stable rational
curves, wall crossings on (class) growth diagrams, the monodromy graph of
the covering, and trees as their edge tuples, their labelings and fiber
counts.

A facet is a dihedral class of circular orders of [r], stored canonically:
the representative starts at 1 and takes the lexicographically smaller
direction.  A wall is the chord reversing a circular interval of marked
positions; it is identified with the complementary interval.  Diagrams are
read along paths (``along``); only the dihedral transport indexes storage."""

from collections import defaultdict
from itertools import accumulate, permutations, product
from math import factorial, prod

from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate, cgd_from_path
from growth.decgd import Decgd, _lift, check_shape, decgd_enumerate
from growth.jsonout import JsonText, count_text, write_array
from growth.partitions import (
    Frame, _shapes_between, _Value, complement, fiber_size, normalize,
)


# ---------------------------------------------------------------------------
# circular orders (facets) and walls

def canonical_order(order):
    """Canonical dihedral representative of a circular order, plus the
    0-based index map g with order[g(q)] = canonical[q] (a rotation or a
    reflection of positions)."""
    order = tuple(order)
    t = order.index(1)
    # the rotation and the reflection both start at 1; the neighbour of 1
    # they put second decides (equal only for r <= 2, where they agree)
    if order[(t + 1) % len(order)] <= order[t - 1]:
        return order[t:] + order[:t], ("rot", t)
    return order[t::-1] + order[:t:-1], ("ref", t)


def facets(r: int):
    """All facets of the moduli space: canonical circular orders of [r],
    in lexicographic order.  The canonical representative of a class
    starts at 1 and has a smaller second entry than last entry.  An r
    with more than MAX_COVER_EDGES facets is refused before any is listed."""
    if r < 3:
        raise ValueError("need at least 3 marked points")
    if factorial(r - 1) // 2 > MAX_COVER_EDGES:
        raise ValueError(f"{r} marked points have {factorial(r - 1) // 2} "
                         f"facets, over the bound of {MAX_COVER_EDGES} "
                         f"edges of a cover graph")
    return [(1,) + tail for tail in permutations(range(2, r + 1))
            if tail[0] < tail[-1]]


class Wall(_Value):
    """The chord reversing circular positions a..b (1-based, inclusive;
    b may exceed r to denote a wrapped interval)."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a: int, b: int, r: int):
        length = b - a + 1
        if not (2 <= length <= r - 2):
            raise ValueError(
                f"reversed interval must have length 2..{r - 2}, "
                f"got {length}")
        if not (1 <= a <= r):
            raise ValueError("interval start must lie in [1, r]")
        _Value.__init__(self, a, b, r)

    def complementary(self) -> "Wall":
        """The same chord presented from the other side."""
        start = self.b + 1
        end = self.a + self.r - 1
        if start > self.r:
            start -= self.r
            end -= self.r
        return Wall(start, end, self.r)


def walls(r: int):
    """One wall per chord, sorted by (a, b): the lexicographically smallest
    non-wrapping presentation.  An interval that ends at r is presented by
    its complement, which starts at 1, so every b is below r."""
    return [Wall(a, b, r) for a in range(1, r) for b in range(a + 1, r)
            if b - a + 1 <= r - 2]


def cross_facet(order, wall: Wall):
    """Reverse the marked points on the wall's interval and canonicalize;
    returns (new_order, transporter) with the transporter mapping raw
    crossed positions to canonical ones."""
    order = tuple(order)
    r = len(order)
    if wall.r != r:
        raise ValueError("wall and order have different numbers of points")
    a, b = wall.a - 1, wall.b  # the span is order[a:b], wrapped past r
    if b <= r:
        raw = order[:a] + order[a:b][::-1] + order[b:]
    else:
        span = (order[a:] + order[:b - r])[::-1]
        raw = span[r - a:] + order[b - r:a] + span[:r - a]
    return canonical_order(raw)


# ---------------------------------------------------------------------------
# wall crossing on diagrams

def _crossing_path(top: int, row: int, col: int):
    """The path right along the row from the diagonal to the column, then
    up the column to the top row."""
    return ([(row, j) for j in range(row, col + 1)]
            + [(i, col) for i in range(row - 1, top - 1, -1)])


def _key_paths(wall: Wall):
    """The two paths of a crossing: column a, from the diagonal up r rows,
    which the crossed diagram is regrown from, and the crossing path
    _crossing_path(a, b+1, a+r), which it is regrown along.  By the glide
    symmetry, column a is the 180-degree rotation of row a."""
    a, r = wall.a, wall.r
    return _crossing_path(a - r, a, a), _crossing_path(a, wall.b + 1, a + r)


def cross_cgd(g: CylGrowthDiagram, wall: Wall) -> CylGrowthDiagram:
    """Cross a wall: the new diagram agrees with g on the triangle over
    the reversed interval and is its reflection across the short diagonal
    on the complementary triangle.

    A diagram is fixed by its chain along a path, so the crossed diagram
    takes along the crossing path the chain g takes up its column a,
    whatever b is (:func:`_key_paths`)."""
    if wall.r != g.r:
        raise ValueError("wall and diagram have different periods")
    column, path = _key_paths(wall)
    return cgd_from_path(path, g.along(column), g.frame)


def cross_decgd(d: Decgd, wall: Wall) -> Decgd:
    """Cross a wall on a class diagram.

    The crossed diagram agrees with d on the triangle over the wall and is
    the short-diagonal reflection of d on the complementary triangle, for
    classes as well as entries (reflection exchanges row and column
    classes).  As in :func:`cross_cgd`, it takes along the crossing path
    the classes d takes up its column a: a fine diagram is grown from them
    along the crossing path in fine coordinates, and restricted."""
    r = d.r
    if wall.r != r:
        raise ValueError("wall and diagram have different periods")
    a, b = wall.a, wall.b
    # wall blocks a+1..b+1 keep their sizes, the complement reverses
    sizes = list(d.sizes)
    for m in range(b + 2, a + r + 1):
        sizes[(m - 1) % r] = d.sizes[(a + b + 1 - m) % r]
    at = list(accumulate(sizes * 2, initial=0))  # fine index of coarse m
    column, _ = _key_paths(wall)
    return _lift(_crossing_path(at[a], at[b + 1], at[a + r]),
                 d.along(column), sizes, d.frame)


# ---------------------------------------------------------------------------
# dihedral transport of diagrams

def _transport(gmap, *tables):
    """Move stored rows (rows[k][m] holds the entry at (k, k+m)) along a
    transporter from :func:`canonical_order`.

    After a rotation by t, entry (k, l) is the old entry (k + t, l + t).
    Order position q corresponds to window element q + 1, so the order
    reflection q -> t - q acts on entries with axis e = t + 2: entry (k, l)
    is the old entry (e + 1 - l, e + 1 - k).  A reflection turns
    row steps into column steps, so it also reverses the order of the
    tables: given a diagram's row and column classes, it returns them
    exchanged."""
    kind, t = gmap
    if kind == "rot":
        return tuple(rows[t:] + rows[:t] for rows in tables)
    out = []
    for rows in reversed(tables):
        r = len(rows)
        out.append(tuple(tuple(rows[(t + 3 - k - m) % r][m]
                               for m in range(len(rows[k])))
                         for k in range(r)))
    return tuple(out)


def transport_cgd(g: CylGrowthDiagram, gmap) -> CylGrowthDiagram:
    (rows,) = _transport(gmap, g.rows)
    return CylGrowthDiagram(g.frame, g.r, rows)


def transport_decgd(d: Decgd, gmap) -> Decgd:
    return Decgd(d.frame, d.r, *_transport(gmap, d.a, d.b))


# ---------------------------------------------------------------------------
# the monodromy graph

class MonodromyGraph(_Value):
    """The cover graph over the conditions shape: nodes are (facet,
    diagram) pairs, edges are (from_id, to_id, wall (a, b)) triples."""

    __slots__ = ("frame", "shape", "nodes", "edges")


# the most edges a cover graph may have: the r = 8 all-box (2,6) graph has
# 352,800 and (3,7) 2;2;2;2;1;1;1;1 has 1,134,000, while nine boxes on
# (3,6) would have 11,430,720
MAX_COVER_EDGES = 2_000_000


def cover_size(frame: Frame, shape) -> tuple[int, int]:
    """The (nodes, edges) of the cover graph of a checked shape, before any
    work: a fiber over each facet, and each node on one edge per wall,
    which joins two nodes.  Raises ValueError over MAX_COVER_EDGES."""
    r = len(shape)
    facet_count, wall_count = factorial(r - 1) // 2, r * (r - 3) // 2
    nodes = facet_count * fiber_size(frame, shape)
    edges = nodes * wall_count // 2
    if edges > MAX_COVER_EDGES:
        raise ValueError(f"the cover graph would have {count_text(nodes)} "
                         f"nodes and {count_text(edges)} edges, over the "
                         f"bound of {MAX_COVER_EDGES} edges")
    return nodes, edges


class _FiberTables:
    """The fibers of a cover as tables, and wall crossing as maps between
    fiber indices.

    The diagrams over a facet depend only on the contents of the window
    blocks: window element m + 1 carries the condition of the marked point
    at order position m, so block m holds the condition of facet[m - 1].
    Each distinct contents tuple (one for all-box shapes) is enumerated
    once, each diagram solved and validated; the cover builds no other.
    A diagram is fixed by what it carries along the crossing path, so
    crossing g lands on the target that, moved back by the inverse
    transporter, carries along that path what g carries up its column a
    (:func:`_key_paths`), read by ``along`` for either kind of diagram.
    A table is built once per contents, wall and transporter."""

    def __init__(self, frame: Frame, shape):
        self.frame = frame
        self.shape = shape
        self.all_box = all(lam == (1,) for lam in shape)
        self.transport = transport_cgd if self.all_box else transport_decgd
        self.fibers = {}  # contents -> diagrams
        self.moves = {}   # (contents, wall, gmap) -> target fiber indices

    def contents(self, facet):
        if self.all_box:
            return self.shape
        r = len(facet)
        return tuple(self.shape[facet[(m - 1) % r] - 1] for m in range(r))

    def fiber(self, facet):
        """The diagrams over a facet."""
        key = self.contents(facet)
        if key not in self.fibers:
            self.fibers[key] = tuple(
                cgd_enumerate(self.frame) if self.all_box
                else decgd_enumerate(self.frame, key))
        return self.fibers[key]

    def move(self, facet, wall: Wall, new_facet, gmap):
        """Crossing the wall from fiber index i over facet lands on fiber
        index table[i] over new_facet; returns table.  new_facet and gmap
        are what cross_facet gives.  Raises ValueError, naming the facet
        and the wall, unless the crossings are the target fiber, once each."""
        key = self.contents(facet)
        if (key, wall, gmap) not in self.moves:
            back = ("rot", -gmap[1] % len(facet)) if gmap[0] == "rot" else gmap
            column, path = _key_paths(wall)
            targets = self.fiber(new_facet)
            found = {self.transport(h, back).along(path): j
                     for j, h in enumerate(targets)}
            table = [found.get(g.along(column), -1) for g in self.fiber(facet)]
            if sorted(table) != list(range(len(targets))):
                raise ValueError(
                    f"crossing wall ({wall.a}, {wall.b}) from facet {facet} "
                    f"is no bijection onto the fiber over {new_facet}")
            self.moves[key, wall, gmap] = table
        return self.moves[key, wall, gmap]


def build_cover_graph(frame: Frame, shape) -> MonodromyGraph:
    """Nodes are (facet, diagram) pairs; edges join nodes related by
    crossing a wall.

    Nodes are numbered facet by facet: node id = the facet's offset + the
    diagram's index in its fiber table (see :class:`_FiberTables`), and
    the fiber size over every facet is the multi-factor
    Littlewood-Richardson coefficient of the shape.  Each fiber is
    enumerated once per contents tuple, and the only diagrams solved are
    the fibers': each crossing is looked up among them into a table of
    fiber indices, and the edges are assembled from those tables.

    Crossing a wall is an involution, so each edge is taken once, from the
    facet with the smaller offset (crossing never returns to the same
    facet), and labelled with that facet's wall.  Edges are sorted.
    Raises ValueError for a graph over the bound of :func:`cover_size`."""
    shape = check_shape(shape)
    if not cover_size(frame, shape)[0]:
        return MonodromyGraph(frame, shape, (), ())
    r = len(shape)
    tables = _FiberTables(frame, shape)
    offset = {}
    nodes = []
    for facet in facets(r):
        offset[facet] = len(nodes)
        nodes.extend((facet, g) for g in tables.fiber(facet))
    # the crossed diagram keeps the wall blocks in place and reflects the
    # complementary blocks, so its raw presentation is the order with the
    # complementary span reversed; both spans give the same facet
    crossings = [(wall, wall.complementary(), (wall.a, wall.b))
                 for wall in walls(r)]
    edges = []
    for facet, start in offset.items():
        for wall, span, label in crossings:
            new_facet, gmap = cross_facet(facet, span)
            target = offset[new_facet]
            if target > start:
                table = tables.move(facet, wall, new_facet, gmap)
                edges.extend((start + i, target + j, label)
                             for i, j in enumerate(table))
    return MonodromyGraph(frame, shape, tuple(nodes), tuple(sorted(edges)))


def graph_components(graph: MonodromyGraph) -> int:
    parent = list(range(len(graph.nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in graph.edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(len(graph.nodes))})


def _write_graph_json(graph: MonodromyGraph, out) -> None:
    """The text json.dumps(..., indent=2, sort_keys=True) gives the object
    {"edges": [{"from", "to", "wall": [a, b]}], "frame": {"d", "n"},
    "nodes": [{"diagram", "facet"}], "shape"}, written node by node and
    edge by edge.  The nodes share a fiber's few diagram objects, so each
    object's text is rendered once, found by its id, not by its hash."""
    text = JsonText()
    diagrams = {}

    def node(facet, diagram):
        if id(diagram) not in diagrams:
            diagrams[id(diagram)] = text(diagram.to_json(), 3)
        return (f'{{\n      "diagram": {diagrams[id(diagram)]},\n'
                f'      "facet": {text(facet, 3)}\n    }}')

    out.write('{\n  "edges": ')
    write_array(out, (f'{{\n      "from": {u},\n      "to": {v},\n'
                      f'      "wall": [\n        {a},\n        {b}\n'
                      f'      ]\n    }}' for u, v, (a, b) in graph.edges), 1)
    frame = {"d": graph.frame.d, "n": graph.frame.n}
    out.write(f',\n  "frame": {text(frame, 1)},\n  "nodes": ')
    write_array(out, (node(facet, g) for facet, g in graph.nodes), 1)
    out.write(f',\n  "shape": {text(graph.shape, 1)}\n}}\n')


def export(graph: MonodromyGraph, fmt: str, out) -> None:
    """Write the graph to the text stream out: as JSON, the text of
    json.dumps(..., indent=2, sort_keys=True) plus a newline, or as DOT."""
    if fmt == "json":
        _write_graph_json(graph, out)
    elif fmt == "dot":
        out.write("graph cover {\n")
        for i, (facet, _) in enumerate(graph.nodes):
            out.write(f'  n{i} [label="{"".join(map(str, facet))}/{i}"];\n')
        for u, v, (a, b) in graph.edges:
            out.write(f'  n{u} -- n{v} [label="{a},{b}"];\n')
        out.write("}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# trees, node labelings, fiber counts

def _neighbours(tree) -> dict:
    """The vertices of a tree given by its edges, in increasing order, each
    with its neighbours in increasing order."""
    adj = defaultdict(list)
    for v, w in tree:
        adj[v].append(w)
        adj[w].append(v)
    return {v: sorted(adj[v]) for v in sorted(adj)}


def all_trees(r: int):
    """Every tree with leaves [r] and internal vertices -1, -2, ... of
    degree >= 3, as the sorted tuple of its edges (v, w), v < w.  The trees
    are grown as edge lists from the star on three leaves: each new leaf
    hangs from an internal vertex or from a new internal vertex splitting
    an edge."""
    trees = [[(-1, leaf) for leaf in (1, 2, 3)]]
    for leaf in range(4, r + 1):
        grown = []
        for edges in trees:
            w = leaf - 3 - len(edges)  # the internal vertices are -1 .. w + 1
            grown += [edges + [(v, leaf)] for v in range(-1, w, -1)]
            grown += [edges[:i] + edges[i + 1:] + [(w, u), (w, v), (w, leaf)]
                      for i, (u, v) in enumerate(edges)]
        trees = grown
    return [tuple(sorted(edges)) for edges in trees]


def node_labelings(tree, shape, frame: Frame):
    """All assignments of a partition to each (internal vertex, incident
    edge) pair such that leaf edges carry the leaf's condition, the two
    sides of an internal edge are complementary, every internal vertex has
    total size d(n-d), and every internal vertex admits at least one
    tableau filling.

    The sizes alone fix the size of every label: the side of an internal
    edge at vertex v carries the total size of the leaves beyond the edge,
    away from v.  So each internal edge tries only the partitions of that
    one size, in the order of :func:`partitions_in`, and the labelings
    come out in the order of trying every partition on every edge, the
    internal edges taken in increasing order."""
    shape = tuple(normalize(lam) for lam in shape)
    if sum(sum(lam) for lam in shape) != frame.size:
        return []
    adj = _neighbours(tree)
    internal = [v for v in adj if v < 0]
    edges = [(v, w) for v, w in tree if w < 0]
    rect = frame.rectangle()

    def beyond(v, w):
        """Total leaf size on w's side of the edge (v, w)."""
        if w > 0:
            return sum(shape[w - 1])
        return sum(beyond(w, u) for u in adj[w] if u != v)

    choices = [_shapes_between((), rect, beyond(v, w)) for v, w in edges]
    labelings = []
    for labels in product(*choices):
        side = dict(zip(edges, labels))
        labeling = {(v, w): shape[w - 1] if w > 0 else side[v, w] if v < w
                    else complement(side[w, v], frame)
                    for v in internal for w in adj[v]}
        # a labeling must admit a tableau at every internal vertex
        if all(fiber_size(frame, [labeling[v, w] for w in adj[v]])
               for v in internal):
            labelings.append(labeling)
    return labelings


def fiber_count(tree, shape, frame: Frame) -> int:
    """Sum over labelings of the product of the vertex fibers, each a
    :func:`fiber_size`; independent of the tree."""
    adj = _neighbours(tree)
    return sum(prod(fiber_size(frame, [labeling[v, w] for w in nbrs])
                    for v, nbrs in adj.items() if v < 0)
               for labeling in node_labelings(tree, shape, frame))
