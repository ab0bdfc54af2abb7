"""The benchmark's workloads: the growth command each one runs, made from
the seed, and the checks its output must pass.

The oracles here share no code with the growth package: node counts come
from the number of dihedral classes of circular orders and from the Pieri
rule, diagram counts from the hook-length formula, and connectivity from
the edge list in the output itself.
"""

import hashlib
import itertools
import json
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from math import factorial, prod


def hook_count(d: int, cols: int) -> int:
    """Standard tableaux of the d x cols rectangle, by the hook formula."""
    hooks = prod((d - i) + (cols - j) - 1
                 for i in range(d) for j in range(cols))
    return factorial(d * cols) // hooks


def _horizontal_strips(lam, k: int, cols: int):
    """Partitions in the len(lam) x cols box that add a horizontal strip of
    k boxes to lam."""
    def rows(i, left):
        if i == len(lam):
            if left == 0:
                yield ()
            return
        upper = cols if i == 0 else lam[i - 1]
        for part in range(lam[i], min(upper, lam[i] + left) + 1):
            for rest in rows(i + 1, left - (part - lam[i])):
                yield (part,) + rest

    return rows(0, k)


def pieri_count(parts, d: int, cols: int) -> int:
    """Multiplicity of the d x cols rectangle in the product of the
    one-row Schur functions h_k for k in parts, by the Pieri rule."""
    ways = {(0,) * d: 1}
    for k in parts:
        nxt = {}
        for lam, count in ways.items():
            for mu in _horizontal_strips(lam, k, cols):
                nxt[mu] = nxt.get(mu, 0) + count
        ways = nxt
    return ways.get((cols,) * d, 0)


def component_count(n_nodes: int, edges) -> int:
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n_nodes)})


def _check_cover(d: int, n: int, parts):
    """The cover graph has one node per facet and fiber element, where
    the fiber has the Littlewood-Richardson size of the shape, and it is
    connected."""
    r = len(parts)
    n_facets = factorial(r - 1) // 2
    fiber = pieri_count(parts, d, n - d)

    def check(output: bytes):
        graph = json.loads(output)
        nodes = len(graph["nodes"])
        if nodes != n_facets * fiber:
            return f"{nodes} nodes, expected {n_facets} x {fiber}"
        if len({tuple(node["facet"]) for node in graph["nodes"]}) != n_facets:
            return "nodes do not cover every facet"
        edges = [(e["from"], e["to"]) for e in graph["edges"]]
        if any(not (0 <= u < nodes and 0 <= v < nodes) for u, v in edges):
            return "edge endpoint out of range"
        components = component_count(nodes, edges)
        if components != 1:
            return f"{components} components, expected 1"
        return None

    return check


def _check_enumerate(d: int, n: int):
    expected = hook_count(d, n - d)

    def check(output: bytes):
        diagrams = json.loads(output)
        if len(diagrams) != expected:
            return f"{len(diagrams)} diagrams, expected {expected}"
        if any(g["r"] != d * (n - d) for g in diagrams):
            return "diagram with the wrong period"
        return None

    return check


def _check_verify(output: bytes):
    lines = output.decode().splitlines()
    if len(lines) != 9 or not all(line.startswith("PASS ") for line in lines):
        return "expected nine PASS lines"
    return None


_SECONDS = re.compile(rb" \(\d+\.\d+s\)")


def digest(workload: str, output: bytes) -> str:
    """sha256 of the output; verify's lines carry their run time, which is
    dropped first."""
    if workload == "verify":
        output = _SECONDS.sub(b"", output)
    return hashlib.sha256(output).hexdigest()


@dataclass(frozen=True)
class Operation:
    """One growth command: its arguments and the check of its output,
    which returns None when the output is right and a reason otherwise."""

    args: tuple
    check: Callable[[bytes], str | None]


def _cover(d, n, parts):
    shape = ";".join(str(k) for k in parts)
    args = ("cover", "--d", str(d), "--n", str(n), "--shape", shape,
            "--format", "json")
    return Operation(args, _check_cover(d, n, parts))


def _enumerate(d, n):
    args = ("enumerate", "--d", str(d), "--n", str(n), "--format", "json")
    return Operation(args, _check_enumerate(d, n))


# Every order of the five conditions {2,2,2,1,1}; each has a reference
# digest, so every seed does.
MIXED5_ORDERS = sorted(set(itertools.permutations((2, 2, 2, 1, 1))))

# name -> function of the seed giving the operation.  Only cover-mixed5
# uses the seed; the smoke workloads are small inputs for the smoke test.
WORKLOADS = {
    "cover-box6": lambda seed: _cover(2, 5, (1,) * 6),
    "cover-mixed5": lambda seed: _cover(
        2, 6, random.Random(seed).choice(MIXED5_ORDERS)),
    "enumerate-3x4": lambda seed: _enumerate(3, 7),
    "verify": lambda seed: Operation(("verify",), _check_verify),
    "smoke-cover": lambda seed: _cover(2, 4, (1,) * 4),
    "smoke-enumerate": lambda seed: _enumerate(2, 4),
}


def all_operations():
    """Every (workload, operation) some seed can produce: the inputs that
    have reference digests."""
    for name, make in WORKLOADS.items():
        if name == "cover-mixed5":
            for order in MIXED5_ORDERS:
                yield name, _cover(2, 6, order)
        else:
            yield name, make(0)
