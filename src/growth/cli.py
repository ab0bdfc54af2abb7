"""Command-line interface: enumerate diagrams, cross walls, build cover
graphs, and run the verification suites.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors,
on conditions that do not fit the frame's box, on output that cannot be
written, on input files that are not valid diagrams (read by
growth.jsonin), on a cover graph predicted to have more than
moduli.MAX_COVER_EDGES edges, and on an enumeration predicted to write
more than MAX_ENUMERATE_ENTRIES entries or parts, and on enumerations
and covers of a frame whose fine diagrams have more than
MAX_DIAGRAM_ENTRIES entries.  The --out file is opened before any work
starts.
JSON output is streamed in chunks and is exactly the text of
json.dumps(..., indent=2, sort_keys=True) + "\\n".  Outputs are
deterministic, and no environment variable changes them."""

import argparse
import gc
import os
import sys
from contextlib import contextmanager

from growth.cylgrowth import CylGrowthDiagram, cgd_enumerate
from growth.jsonout import JsonText, count_text, write_array, write_json
from growth.partitions import Frame, fiber_size, fits, normalize

# the handlers import growth.decgd, growth.moduli and growth.jsonin, so
# that enumerate without --shape starts without them

# the suites of growth.checks, which is imported only by verify
SUITES = ("growth", "conic")

# the most entries an enumeration may write: (4,8) writes 24,024 diagrams
# of 16 x 17 entries, 6,534,528 in all, and (4,9) would write 698,377,680;
# the bound holds for the parts of those entries too
MAX_ENUMERATE_ENTRIES = 10 ** 8

# the most entries one diagram may have: every diagram of a frame, of
# classes too, is solved as a fine diagram of d(n-d) x (d(n-d) + 1)
# entries, and the solver holds about 80 bytes per entry, so one solve
# stays under about 1 GB
MAX_DIAGRAM_ENTRIES = 10 ** 7

class UsageError(Exception):
    pass


def number(text: str) -> int:
    """A number written in ASCII digits, spaces around it allowed; int()
    alone also reads signs, underscores and the digits of other scripts."""
    if not (text.strip().isascii() and text.strip().isdigit()):
        raise ValueError(f"not a number: {text!r}")
    return int(text)


def parse_shape(text: str):
    """Parse "3,1;2;1;1" into a tuple of partitions: conditions separated
    by semicolons, parts (numbers) by commas."""
    shape = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty condition in shape {text!r}")
        try:
            parts = [number(x) for x in chunk.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse partition {chunk!r}")
        try:
            shape.append(normalize(parts))
        except ValueError as exc:
            raise UsageError(f"bad partition {chunk!r}: {exc}")
    return tuple(shape)


def parse_wall(text: str, r: int):
    from growth.moduli import Wall
    try:
        a, b = (number(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse wall {text!r}; expected 'a,b'")
    try:
        return Wall(a, b, r)
    except ValueError as exc:
        raise UsageError(str(exc))


def _frame(args) -> Frame:
    if not 0 < args.d < args.n:
        raise UsageError("need 0 < d < n")
    return Frame(args.d, args.n)


def _shape(args, frame: Frame):
    """The conditions of --shape: at least three, each of at least one box
    and fitting the frame's box."""
    from growth.decgd import check_shape
    try:
        shape = check_shape(parse_shape(args.shape), args.shape)
    except ValueError as exc:
        raise UsageError(str(exc))
    for m, lam in enumerate(shape, 1):
        if not fits(lam, frame):
            raise UsageError(
                f"condition {m} of {args.shape!r} does not fit the "
                f"{frame.d} x {frame.cols} box of d = {frame.d}, "
                f"n = {frame.n}")
    return shape


def _no_diagrams(frame: Frame, shape) -> bool:
    """Whether the conditions' sizes miss d(n-d), so that there are no
    diagrams and no work to bound; a note says so."""
    if sum(sum(lam) for lam in shape) == frame.size:
        return False
    print(f"note: no diagrams, the sizes must satisfy "
          f"sum |lam_i| = d(n-d) = {frame.size}", file=sys.stderr)
    return True


def _fine_size(frame: Frame):
    """Raise UsageError if the frame's fine diagrams have more than
    MAX_DIAGRAM_ENTRIES entries, before any of them is solved."""
    fine = frame.size * (frame.size + 1)
    if fine > MAX_DIAGRAM_ENTRIES:
        raise UsageError(f"each fine diagram of the frame would have {fine} "
                         f"entries, over the bound of {MAX_DIAGRAM_ENTRIES} "
                         f"entries for one diagram")


def _enumeration_size(frame: Frame, shape) -> int:
    """The number of diagrams that enumerate lists, found before any work:
    the fiber of r = d(n-d) single boxes, or of the shape's r conditions,
    each diagram with r x (r + 1) entries of up to d parts.  r is checked
    first, so that a huge frame's rectangle is never built, and the fine
    diagrams next, so that no fiber of a frame too large is counted.
    Raises UsageError past MAX_ENUMERATE_ENTRIES entries, past
    MAX_DIAGRAM_ENTRIES entries in one fine diagram, and past
    MAX_ENUMERATE_ENTRIES parts."""
    r = frame.size if shape is None else len(shape)
    entries = r * (r + 1)
    if entries > MAX_ENUMERATE_ENTRIES:
        raise UsageError(f"each diagram would have {entries} entries, over "
                         f"the bound of {MAX_ENUMERATE_ENTRIES} entries")
    _fine_size(frame)
    diagrams = fiber_size(frame, [(1,)] * r if shape is None else shape)
    written = count_text(diagrams)
    if diagrams * entries > MAX_ENUMERATE_ENTRIES:
        raise UsageError(
            f"the enumeration would write {written} diagrams of {entries} "
            f"entries, {count_text(diagrams * entries)} in all, over the "
            f"bound of {MAX_ENUMERATE_ENTRIES} entries")
    parts = diagrams * entries * frame.d
    if parts > MAX_ENUMERATE_ENTRIES:
        raise UsageError(
            f"the enumeration would write {written} diagrams of {entries} "
            f"entries of up to {frame.d} parts, {count_text(parts)} parts in "
            f"all, over the bound of {MAX_ENUMERATE_ENTRIES} parts")
    return diagrams


@contextmanager
def _output(args):
    """stdout, or the --out file opened for writing (text, UTF-8, no
    newline translation) and closed at the end.  Failing to open, write
    or close the output is a usage error, except that a reader closing
    the pipe on stdout (`| head`) just ends the output."""
    if not args.out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # the unwritten rest would fail again in the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                raise UsageError(f"cannot write stdout: {exc.strerror}")
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}")


def _diagram_text(obj) -> str:
    # a diagram holds few distinct partitions: each is rendered once
    rows = obj.rows  # a class diagram builds its rows on every read
    texts = dict.fromkeys(p for row in rows for p in row)
    for p in texts:
        texts[p] = ",".join(map(str, p)) or "."
    return "\n".join(" ".join([texts[p] for p in row]) for row in rows)


def cmd_enumerate(args) -> int:
    frame = _frame(args)
    shape = None if args.shape is None else _shape(args, frame)
    if shape is None or not _no_diagrams(frame, shape):
        _enumeration_size(frame, shape)
    with _output(args) as out:
        if shape is None:
            diagrams = cgd_enumerate(frame)
        else:
            from growth.decgd import decgd_enumerate
            diagrams = decgd_enumerate(frame, shape)
        if args.fmt == "json":
            text, sep = JsonText(), ",\n      "
            # to_json() at depth 1: one head, then its rows' memoized texts
            head = (f'{{\n    "frame": {text(dict(d=frame.d, n=frame.n), 2)},'
                    f'\n    "r": {frame.size},\n    "rows": [\n      ')
            write_array(out, (text(g.to_json(), 1) if shape else
                              f"{head}{sep.join(text.entries(g.rows, 2))}"
                              "\n    ]\n  }" for g in diagrams), 0)
            out.write("\n")
        else:
            for i, g in enumerate(diagrams):
                out.write(("\n" if i else "") + _diagram_text(g) + "\n")
    print(f"{len(diagrams)} diagrams", file=sys.stderr)
    return 0


def cmd_wallcross(args) -> int:
    from growth.jsonin import read_diagram
    try:
        diagram = read_diagram(args.path)
    except ValueError as exc:
        raise UsageError(str(exc))
    wall = parse_wall(args.wall, diagram.r)
    from growth.moduli import cross_cgd, cross_decgd
    cross = cross_cgd if isinstance(diagram, CylGrowthDiagram) else cross_decgd
    with _output(args) as out:
        try:
            crossed = cross(diagram, wall)
        except ValueError as exc:
            raise UsageError(str(exc))
        if args.twice:
            if cross(crossed, wall) != diagram:
                print("crossing twice does not restore the diagram",
                      file=sys.stderr)
                return 1
            print("crossing twice restores the diagram", file=sys.stderr)
        if args.fmt == "json":
            write_json(crossed.to_json(), out)
        else:
            out.write(_diagram_text(crossed) + "\n")
    return 0


def cmd_cover(args) -> int:
    frame = _frame(args)
    shape = _shape(args, frame)
    from growth.moduli import (build_cover_graph, cover_size, export,
                               graph_components)
    if not _no_diagrams(frame, shape):
        _fine_size(frame)
        try:
            cover_size(frame, shape)
        except ValueError as exc:
            raise UsageError(str(exc))
    with _output(args) as out:
        graph = build_cover_graph(frame, shape)
        summary = (f"{len(graph.nodes)} nodes, {len(graph.edges)} edges, "
                   f"{graph_components(graph)} components")
        if args.fmt == "text":
            out.write(summary + "\n")
        else:
            export(graph, args.fmt, out)
    if args.fmt != "text":
        print(summary, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    with _output(args) as out:
        # imported here: the checks bring the conic and the packaged
        # reference diagrams, which no other command needs
        from growth.checks import CHECKS, run_checks
        try:
            results = run_checks(args.only)
        except ValueError as exc:
            raise UsageError(str(exc))
        if args.fmt == "json":
            suite = {name: s for name, s, _ in CHECKS}
            write_json([{"name": name, "suite": suite[name], "ok": ok,
                         "detail": detail, "seconds": secs}
                        for name, ok, detail, secs in results], out)
        else:
            out.writelines(f"{'PASS' if ok else 'FAIL'} {name} "
                           f"({secs:.2f}s): {detail}\n"
                           for name, ok, detail, secs in results)
    failures = sum(1 for _, ok, _, _ in results if not ok)
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

    def common(p, frame=True, formats=("json", "text")):
        if frame:
            p.add_argument("--d", type=number, required=True)
            p.add_argument("--n", type=number, required=True)
        p.add_argument("--format", dest="fmt", default="text",
                       choices=formats)
        p.add_argument("--out")

    p = sub.add_parser("enumerate", help="list diagrams for a frame")
    common(p)
    p.add_argument("--shape", help="conditions, e.g. '3,1;2;1;1'")

    p = sub.add_parser("wallcross", help="cross a wall on a diagram")
    common(p, frame=False)
    p.add_argument("--input", dest="path", required=True,
                   help="diagram JSON file")
    p.add_argument("--wall", required=True, help="positions 'a,b'")
    p.add_argument("--twice", action="store_true",
                   help="also verify that crossing twice restores the input")

    p = sub.add_parser("cover", help="build the monodromy cover graph")
    common(p, formats=("json", "dot", "text"))
    p.add_argument("--shape", required=True,
                   help="conditions, e.g. '1;1;1;1'")

    p = sub.add_parser("verify", help="run the verification suites")
    common(p, frame=False)
    p.add_argument("--only", choices=list(SUITES))
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Called without argv, as
    the program, main freezes the collector as it returns, so that the
    interpreter's shutdown does not traverse a heap that dies with the
    process; the output is written and flushed by then.  Called with
    argv, main leaves the caller's collector alone."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        handler = {"enumerate": cmd_enumerate, "wallcross": cmd_wallcross,
                   "cover": cmd_cover, "verify": cmd_verify}[args.command]
        try:
            return handler(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
