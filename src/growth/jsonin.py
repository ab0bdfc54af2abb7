"""Reading diagram files, the twin of :mod:`growth.jsonout` and the one
place where outside data is checked; only ``wallcross`` imports it.  A
file is accepted only when it is the ``to_json`` of the diagram it
parses to, and each error names its field, the echoed value clipped.  A
class-diagram file is read as the diagram that its row-0 classes grow."""

import json
from itertools import product

from growth.cylgrowth import CylGrowthDiagram, cgd_validate, check_fine_size
from growth.decgd import Decgd, check_shape, decgd_from_first_row
from growth.partitions import Frame, fits, normalize
from growth.tableaux import DualClass, validate_chain


def read_diagram(path: str):
    """The diagram in the UTF-8 JSON file at path: a class diagram when
    the object has both ``a`` and ``b``, a fine one otherwise."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer too long to read
        raise ValueError(f"cannot read diagram from {path}: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        return (read_decgd if "a" in data and "b" in data else read_cgd)(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed diagram in {path}: {exc}") from None


def read_cgd(data: dict) -> CylGrowthDiagram:
    """A fine diagram, which must pass :func:`cgd_validate`."""
    frame, r = _json_head(data, "rows")
    if r != frame.size:
        raise ValueError(_clip(f"r = {r!r}, but a diagram of {frame} "
                               f"has r = d(n-d) = {frame.size}"))
    rows = _json_table(data, "rows", r, r + 1,
                       lambda v, path: _json_partition(v, path, frame))
    g = CylGrowthDiagram(frame, r, rows)
    ok, problems = cgd_validate(g)
    if not ok:
        raise ValueError(problems[0])
    return g


def read_decgd(data: dict) -> Decgd:
    """A class diagram: the shape gets the checks of :func:`check_shape`
    and must be the contents of the row-0 classes, every class must be the
    one they grow (:func:`decgd_from_first_row`), and the rows must be the
    entries of the classes."""
    frame, r = _json_head(data, "shape", "rows", "a", "b")
    shape = data["shape"]
    if not isinstance(shape, list) or len(shape) != r:
        raise ValueError(f"r = {_clip(repr(r))}, but the shape does not "
                         f"list r conditions")
    shape = check_shape(_json_list(shape, "shape", _json_partition))
    rows = _json_table(data, "rows", r, r + 1, _json_partition)
    a, b = (_json_table(data, key, r, r, _json_class) for key in "ab")
    for k, (lam, cls) in enumerate(zip(shape, a[0])):
        if lam != cls.rshape:
            raise ValueError(f"first-row class {k} has the wrong content")
    try:
        d = decgd_from_first_row(a[0], frame)
    except ValueError as exc:
        raise ValueError("the row-0 classes grow no diagram: "
                         + _clip(str(exc))) from None
    for name, table, grown in (("a", a, d.a), ("b", b, d.b)):
        for k, m in product(range(r), repeat=2):
            if table[k][m] != grown[k][m]:
                raise ValueError(f"{name}({k},{k + m}) is not the class "
                                 f"that the row-0 classes grow")
    if rows != d.rows:
        raise ValueError("the rows are not the entries of the classes")
    return d


def _clip(text: str) -> str:
    """text, cut to a prefix ending in '...' when it is long, so that an
    error echoing a file's value stays one short line."""
    return text if len(text) <= 80 else text[:77] + "..."


def _json_head(data: dict, *keys: str) -> tuple[Frame, int]:
    """The frame and r of a diagram's data, whose keys must be exactly
    frame, r and the given ones.  A frame past the solver's bound
    (:func:`check_fine_size`) is refused before any table is read."""
    _json_keys(data, "frame", "r", *keys)
    frame = data["frame"]
    if not isinstance(frame, dict):
        raise ValueError(f"frame: {_clip(repr(frame))} is not an object")
    _json_keys(frame, "d", "n", where="frame: ")
    d, n = _json_int(frame["d"], "frame.d"), _json_int(frame["n"], "frame.n")
    try:
        frame = Frame(d, n)
    except ValueError as exc:
        raise ValueError(f"frame: {_clip(str(exc))}") from None
    check_fine_size(frame)
    return frame, _json_int(data["r"], "r")


def _json_table(data: dict, key: str, height: int, width: int, read) -> tuple:
    """data[key], checked to be a list of height lists of width entries
    each, with every entry converted by read(entry, field path)."""
    table = data[key]
    if not isinstance(table, list) or len(table) != height or any(
            not isinstance(row, list) or len(row) != width for row in table):
        raise ValueError(
            _clip(f"{key!r} must be {height} rows of {width} entries"))
    return tuple(tuple(_json_list(row, f"{key}[{i}]", read))
                 for i, row in enumerate(table))


def _json_keys(data: dict, *keys: str, where: str = "") -> None:
    """Refuse data unless its keys are exactly the given ones; where
    prefixes the message with the object's field path."""
    if sorted(data) != sorted(keys):
        raise ValueError(f"{where}the keys are {_clip(repr(sorted(data)))}, "
                         f"not {sorted(keys)}")


def _json_int(value, path: str) -> int:
    """value if it is an int; a float or bool is refused, since the
    memoized partition kernels would take it for the int it hashes like."""
    if type(value) is not int:
        raise ValueError(f"{path}: {_clip(repr(value))} is not an integer")
    return value


def _json_list(value, path: str, read) -> list:
    """value, checked to be a list, with every entry converted by
    read(entry, field path)."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: {_clip(repr(value))} is not a list")
    return [read(entry, f"{path}[{i}]") for i, entry in enumerate(value)]


def _json_partition(value, path: str, frame=None) -> tuple[int, ...]:
    """A partition read from a list of ints, written as the diagrams
    write it: weakly decreasing, no trailing zero, and inside the frame
    when one is given."""
    parts = _json_list(value, path, _json_int)
    try:
        lam = normalize(parts)
    except ValueError as exc:
        raise ValueError(f"{path}: {_clip(str(exc))}") from None
    if len(lam) != len(parts):
        raise ValueError(f"{path}: {_clip(repr(value))} ends in a zero part")
    if frame and not fits(lam, frame):
        raise ValueError(f"{path}: {_clip(repr(lam))} does not fit in {frame}")
    return lam


def _json_class(value, path: str) -> DualClass:
    """The class of a tableau read from a list of partitions, which must
    be the class's representative, as the diagrams write it."""
    chain = _json_list(value, path, _json_partition)
    try:
        cls = DualClass.of(validate_chain(chain))
    except ValueError as exc:
        raise ValueError(f"{path}: {_clip(str(exc))}") from None
    if list(cls.representative) != chain:
        raise ValueError(f"{path}: not the representative of its class")
    return cls
