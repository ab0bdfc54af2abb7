"""JSON output: the text of ``json.dumps(value, indent=2, sort_keys=True)``
plus a newline, written to a text stream in chunks.

With ``indent`` set, ``json.dumps`` always runs the pure-Python encoder and
returns the whole document as one string.  Here the containers are laid
out by hand (dicts with sorted string keys, lists and tuples as arrays) and
every scalar still goes through ``json.dumps``, so string escaping and
float ``repr`` are the same.

Diagrams store partitions, facets, rows, chains and shapes as tuples of
ints or tuples of such tuples, and repeat them many times, so
:class:`JsonText` memoizes the text of those tuples by (tuple, depth).  No
other value is memoized: ``(True,) == (1,)`` and ``(1.0,) == (1,)``, so a
memo keyed by any other tuple or list could print the text of an equal
value of another type."""

import json
from itertools import chain

_INT = {int}
_TUPLE = {tuple}


def _int_tuple(value) -> bool:
    """True for a tuple of ints, or a tuple of tuples of ints."""
    if type(value) is not tuple:
        return False
    types = {*map(type, value)}
    return types <= _INT or (
        types == _TUPLE and {*map(type, chain.from_iterable(value))} <= _INT)


class JsonText:
    """Renders a value as the indented JSON text it has at a nesting depth;
    the memo of int tuples lives as long as the object."""

    def __init__(self):
        self.memo = {}

    def __call__(self, value, depth: int = 0) -> str:
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            key = (value, depth) if _int_tuple(value) else None
            text = self.memo.get(key)
            if text is None:
                inner = "\n" + "  " * (depth + 1)
                text = "[" + inner + ("," + inner).join(
                    [self(v, depth + 1) for v in value]) + \
                    "\n" + "  " * depth + "]"
                if key is not None:
                    self.memo[key] = text
            return text
        if isinstance(value, dict):
            if not value:
                return "{}"
            if not all(isinstance(k, str) for k in value):
                raise TypeError("JSON object keys must be strings")
            inner = "\n" + "  " * (depth + 1)
            return "{" + inner + ("," + inner).join(
                [f"{json.dumps(k)}: {self(value[k], depth + 1)}"
                 for k in sorted(value)]) + "\n" + "  " * depth + "}"
        return json.dumps(value)


def write_array(out, texts, depth: int) -> None:
    """Write a JSON array at a nesting depth to the stream out, one write
    per entry, from the texts of its entries rendered at depth + 1."""
    indent = "\n" + "  " * (depth + 1)
    head = "[" + indent
    for text in texts:
        out.write(head + text)
        head = "," + indent
    out.write("[]" if head[0] == "[" else "\n" + "  " * depth + "]")


def write_json(value, out) -> None:
    """Write json.dumps(value, indent=2, sort_keys=True) + "\\n" to the
    stream out; a top-level array is written one entry at a time."""
    text = JsonText()
    if isinstance(value, (list, tuple)):
        write_array(out, (text(v, 1) for v in value), 0)
    else:
        out.write(text(value))
    out.write("\n")
