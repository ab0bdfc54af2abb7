"""JSON output: the text of ``json.dumps(value, indent=2, sort_keys=True)``
plus a newline, written to a text stream in chunks.

With ``indent`` set, ``json.dumps`` always runs the pure-Python encoder and
returns the whole document as one string.  Here the containers are laid
out by hand (dicts with sorted string keys, lists and tuples as arrays).
An exact ``int`` is written by ``int.__repr__``, as ``json.dumps`` writes
it, and every other scalar and every key still goes through
``json.dumps``, so string escaping and float ``repr`` are the same.

Diagrams store partitions, facets, rows, chains and shapes as tuples of
ints or tuples of such tuples, and share those tuple objects many times
over: the rows of rotated diagrams, the partitions of a numbering, the
representatives of a class.  :class:`JsonText` therefore memoizes the text
of such a tuple by (id, depth), deciding once, on its first rendering: a
tuple of ints, or a tuple of memoized tuples of ints, has a text that can
never change.  A list, a deeper tuple, or a tuple holding anything else is
rendered afresh every time; a deeper tuple, such as all the rows of one
diagram, is seldom shared, and keeping its text would keep most of the
output in memory.  The memo holds each tuple it keys, so no id is reused
while it lives.  Keys are identities, not values, so equal values of other
types, such as ``(1,)``, ``(True,)`` and ``(1.0,)``, never share a text."""

import json

# A memo entry is (tuple, text, whether the tuple holds only ints); this
# one stands for a value the memo does not hold.
_MISS = (None, None, False)


class JsonText:
    """Renders a value as the indented JSON text it has at a nesting depth;
    the memo of tuples and of object keys lives as long as the object."""

    def __init__(self):
        self.memo = {}
        self.keys = {}

    def __call__(self, value, depth: int = 0) -> str:
        memo = self.memo
        hit = memo.get((id(value), depth))
        if hit is not None:
            return hit[1]
        if type(value) is int:
            return int.__repr__(value)
        if isinstance(value, (list, tuple)):
            if not value:
                text = "[]"
            else:
                inner = "\n" + "  " * (depth + 1)
                text = "[" + inner + ("," + inner).join(
                    [self(v, depth + 1) for v in value]) + \
                    "\n" + "  " * depth + "]"
            if type(value) is tuple:
                if all(type(v) is int for v in value):
                    memo[id(value), depth] = (value, text, True)
                elif all(memo.get((id(v), depth + 1), _MISS)[2]
                         for v in value):
                    memo[id(value), depth] = (value, text, False)
            return text
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = "\n" + "  " * (depth + 1)
            return "{" + inner + ("," + inner).join(
                [f"{self.key(k)}: {self(value[k], depth + 1)}"
                 for k in sorted(value)]) + "\n" + "  " * depth + "}"
        return json.dumps(value)

    def key(self, k) -> str:
        """The text of an object key, which must be a string; memoized by
        value, as only strings enter and equal strings have one text."""
        text = self.keys.get(k)
        if text is None:
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            text = self.keys[k] = json.dumps(k)
        return text


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
