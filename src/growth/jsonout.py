"""JSON output: the text of ``json.dumps(value, indent=2, sort_keys=True)``
plus a newline.  With ``indent`` set, ``json.dumps`` runs the pure-Python
encoder; here the containers are laid out by hand instead (dicts with
sorted string keys, lists and tuples as arrays).  An exact ``int`` is
written by ``int.__repr__``, and every other scalar and every key goes
through ``json.dumps``, so escaping and float ``repr`` are the same.
:func:`write_array` writes an array one entry at a time, so a large
document is never held whole in memory.

Diagrams share their tuples many times over: the rows of rotated
diagrams, the partitions of a numbering, the representatives of a class.
:class:`JsonText` memoizes by id and depth the texts, which never change,
of tuples of ints and of tuples of such memoized tuples, and joins
memoized texts without a call.  It holds each tuple it memoizes, so no id
is reused, and equal values of other types, such as ``(1,)``, ``(True,)``
and ``(1.0,)``, never share a text.  Any other value, such as all the
rows of one diagram, is rendered afresh and not kept: ``enumerate``
writes a diagram as a head rendered once and its rows' memoized texts.

:func:`count_text` writes the counts of the refusal lines of ``enumerate``
and ``cover``, which may pass the digits Python converts to text."""

import json
from collections import defaultdict
from math import log10


class JsonText:
    """Renders a value as the indented JSON text it has at a nesting depth;
    the memo of tuples and of object keys lives as long as the object."""

    def __init__(self):
        self.memo = defaultdict(dict)  # depth -> {id: text} of tuples
        self.flat = defaultdict(set)   # depth -> ids of tuples of ints
        self.held = []                 # the memoized tuples, kept alive
        self.keys = {}

    def __call__(self, value, depth: int = 0) -> str:
        memo = self.memo[depth]
        text = memo.get(id(value))
        if text is not None:
            return text
        if type(value) is int:
            return int.__repr__(value)
        if isinstance(value, (list, tuple)):
            ints = all(type(v) is int for v in value)
            texts = ([int.__repr__(v) for v in value] if ints
                     else self.entries(value, depth))
            inner = "\n" + "  " * (depth + 1)
            text = (f"[{inner}{(',' + inner).join(texts)}\n{'  ' * depth}]"
                    if texts else "[]")
            if type(value) is tuple and (ints or all(
                    map(self.flat[depth + 1].__contains__, map(id, value)))):
                memo[id(value)] = text
                self.held.append(value)
                if ints:
                    self.flat[depth].add(id(value))
            return text
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = "\n" + "  " * (depth + 1)
            return "{" + inner + ("," + inner).join(
                [f"{self.key(k)}: {self(value[k], depth + 1)}"
                 for k in sorted(value)]) + "\n" + "  " * depth + "}"
        return json.dumps(value)

    def entries(self, value, depth: int) -> list:
        """The texts at depth + 1 of the entries of a list or tuple at
        depth; the memoized ones are found without a call."""
        texts = [*map(self.memo[depth + 1].get, map(id, value))]
        if None in texts:
            texts = [t or self(v, depth + 1) for t, v in zip(texts, value)]
        return texts

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
    stream out, in one write."""
    out.write(JsonText()(value) + "\n")


def count_text(count: int) -> str:
    """A count of at most 1,000 digits in decimal, and a longer one as "a
    number of N digits", N exact.  Neither calls str() on more than 500
    digits, so the text does not depend on the limit of int-to-str
    conversion, which an environment variable may set as low as 640."""
    if count < 10 ** 1000:
        high, low = divmod(count, 10 ** 500)
        return f"{high}{low:0500d}" if high else str(low)
    # a count of b bits, at least 2^(b-1), has at least int(b log10(2))
    # digits; one less leaves room for the rounding of the float
    digits = int(count.bit_length() * log10(2)) - 1
    while 10 ** digits <= count:
        digits += 1
    return f"a number of {digits} digits"
