"""Command-line interface: enumerate diagrams, cross walls, build cover
graphs, and run the verification suites.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
and on input files that are not valid diagrams.
Outputs are deterministic, and no environment variable changes them."""

import argparse
import json
import sys

from growth.checks import CHECKS, SUITES, run_checks
from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.decgd import Decgd, decgd_enumerate
from growth.moduli import Wall, build_cover_graph, cross_cgd, cross_decgd, \
    export, graph_components
from growth.partitions import Frame, normalize


class UsageError(Exception):
    pass


def parse_shape(text: str):
    """Parse "3,1;2;1;1" into a tuple of partitions: conditions separated
    by semicolons, parts by commas."""
    shape = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty condition in shape {text!r}")
        try:
            parts = [int(x) for x in chunk.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse partition {chunk!r}")
        if any(p < 0 for p in parts):
            raise UsageError(f"negative part in {chunk!r}")
        shape.append(normalize(parts))
    return tuple(shape)


def parse_wall(text: str, r: int) -> Wall:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse wall {text!r}; expected 'a,b'")
    try:
        return Wall(a, b, r)
    except ValueError as exc:
        raise UsageError(str(exc))


def _frame(args) -> Frame:
    if args.d is None or args.n is None:
        raise UsageError("--d and --n are required")
    if not 0 < args.d < args.n:
        raise UsageError("need 0 < d < n")
    return Frame(args.d, args.n)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _diagram_text(obj) -> str:
    def fmt_row(row):
        return " ".join("." if not p else ",".join(str(x) for x in p)
                        for p in row)

    rows = obj.gamma if isinstance(obj, Decgd) else obj.rows
    return "\n".join(fmt_row(row) for row in rows)


def cmd_enumerate(args) -> int:
    frame = _frame(args)
    if args.shape is None:
        diagrams = cgd_enumerate(frame)
    else:
        shape = parse_shape(args.shape)
        if len(shape) < 3:
            raise UsageError("need at least 3 conditions")
        if sum(sum(lam) for lam in shape) != frame.size:
            print(f"note: no diagrams, the sizes must satisfy "
                  f"sum |lam_i| = d(n-d) = {frame.size}", file=sys.stderr)
        diagrams = decgd_enumerate(frame, shape)
    if args.fmt == "json":
        payload = _json_text([g.to_json() for g in diagrams])
    elif args.fmt == "text":
        payload = "\n\n".join(_diagram_text(g) for g in diagrams)
        payload += "\n" if payload else ""
    else:
        raise UsageError(f"format {args.fmt!r} not supported here")
    _write(args, payload)
    print(f"{len(diagrams)} diagrams", file=sys.stderr)
    return 0


def _load_diagram(path: str):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read diagram from {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"malformed diagram in {path}: not a JSON object")
    try:
        if "a" in data and "b" in data:
            return Decgd.from_json(data)
        return CylGrowthDiagram.from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed diagram in {path}: {exc}")


def cmd_wallcross(args) -> int:
    if args.path is None:
        raise UsageError("--input FILE with the diagram is required")
    diagram = _load_diagram(args.path)
    if args.wall is None:
        raise UsageError("--wall a,b is required")
    wall = parse_wall(args.wall, diagram.r)
    cross = cross_decgd if isinstance(diagram, Decgd) else cross_cgd
    try:
        crossed = cross(diagram, wall)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.twice:
        again = cross(crossed, wall)
        if again != diagram:
            print("crossing twice does not restore the diagram",
                  file=sys.stderr)
            return 1
        print("crossing twice restores the diagram", file=sys.stderr)
    if args.fmt == "json":
        payload = _json_text(crossed.to_json())
    elif args.fmt == "text":
        payload = _diagram_text(crossed) + "\n"
    else:
        raise UsageError(f"format {args.fmt!r} not supported here")
    _write(args, payload)
    return 0


def cmd_cover(args) -> int:
    frame = _frame(args)
    if args.shape is None:
        raise UsageError("--shape is required")
    shape = parse_shape(args.shape)
    if len(shape) < 3:
        raise UsageError("need at least 3 conditions")
    graph = build_cover_graph(frame, shape)
    if args.fmt in ("json", "dot"):
        _write(args, export(graph, args.fmt))
    summary = (f"{len(graph.nodes)} nodes, {len(graph.edges)} edges, "
               f"{graph_components(graph)} components")
    if args.fmt == "text":
        _write(args, summary + "\n")
    else:
        print(summary, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.fmt not in ("text", "json"):
        raise UsageError(f"format {args.fmt!r} not supported here")
    try:
        results = run_checks(args.only)
    except ValueError as exc:
        raise UsageError(str(exc))
    failures = sum(1 for _, ok, _, _ in results if not ok)
    if args.fmt == "json":
        suite = {name: s for name, s, _ in CHECKS}
        records = [{"name": name, "suite": suite[name], "ok": ok,
                    "detail": detail, "seconds": secs}
                   for name, ok, detail, secs in results]
        payload = _json_text(records)
    else:
        payload = "".join(
            f"{'PASS' if ok else 'FAIL'} {name} ({secs:.2f}s): {detail}\n"
            for name, ok, detail, secs in results)
    _write(args, payload)
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growth",
        description="growth diagrams, wall crossings, cover graphs, and "
                    "exact conic verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, frame=True):
        if frame:
            p.add_argument("--d", type=int)
            p.add_argument("--n", type=int)
        p.add_argument("--format", dest="fmt", default="text",
                       choices=["json", "dot", "text"])
        p.add_argument("--out")

    p = sub.add_parser("enumerate", help="list diagrams for a frame")
    common(p)
    p.add_argument("--shape", help="conditions, e.g. '3,1;2;1;1'")

    p = sub.add_parser("wallcross", help="cross a wall on a diagram")
    common(p, frame=False)
    p.add_argument("--input", dest="path", help="diagram JSON file")
    p.add_argument("--wall", help="positions 'a,b'")
    p.add_argument("--twice", action="store_true",
                   help="also verify that crossing twice restores the input")

    p = sub.add_parser("cover", help="build the monodromy cover graph")
    common(p)
    p.add_argument("--shape", help="conditions, e.g. '1;1;1;1'")

    p = sub.add_parser("verify", help="run the verification suites")
    common(p, frame=False)
    p.add_argument("--only", choices=list(SUITES))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"enumerate": cmd_enumerate, "wallcross": cmd_wallcross,
               "cover": cmd_cover, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
