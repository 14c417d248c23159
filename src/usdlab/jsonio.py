"""JSON emission with pinned 17-significant-digit floats.

The stdlib encoder emits shortest round-trip floats.  The file formats in
this package pin 17 significant digits instead, so emitted artifacts are
byte-stable across writer versions and platforms.  Non-finite floats are
emitted as the strings "inf", "-inf", "nan" (plain JSON has no tokens for
them); readers that need them back should map those strings explicitly.

A list of numbers goes on one line, and a list of such lists on one line
per row.  Each is emitted as one formatted block: a list of plain ints or
floats (or a list of equal-length rows, such as a certificate's subsets
or a point set's coordinates) takes one ``%`` over one template, a list
of ``Pinned`` floats one join of their texts, and one substitution then
quotes any non-finite number.
"""

import itertools
import json
import math
import re

import numpy as np


def format_float(x):
    """Render one float with 17 significant digits."""
    x = float(x)
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


class Pinned(float):
    """A float that carries its 17-significant-digit ``text``, so a value
    written twice (a CSV cell and a JSON list) is formatted once."""

    __slots__ = ("text",)


def pinned(values):
    """``values`` as ``Pinned`` floats, formatted with one ``"%.17g"`` (which
    gives the bits of ``format(x, ".17g")``, faster)."""
    out = list(map(Pinned, values))
    texts = ("%.17g\0" * len(out) % tuple(out)).split("\0")
    for v, text in zip(out, texts):
        v.text = text
    return out


def dumps(obj):
    """Serialize dicts/lists/scalars to two-space-indented JSON, pinned floats."""
    out = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def dump_path(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not JSON")


def load_path(path):
    """Read JSON, refusing the NaN/Infinity tokens Python's reader allows."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _atomic(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_FORMAT = {int: "%d", float: "%.17g"}   # the plain number types, one template each
_NON_FINITE = re.compile(r"-?inf|nan")


def _quote_non_finite(text):
    """``text`` with each non-finite number as a JSON string; no finite
    number's text holds an ``n``, nor do the templates."""
    return _NON_FINITE.sub(r'"\g<0>"', text) if "n" in text else text


def _number_line(seq):
    """The items on one line, or None unless every one is a number."""
    kinds = set(map(type, seq))
    if kinds == {Pinned}:
        text = ", ".join([v.text for v in seq])
    elif kinds <= _FORMAT.keys():
        text = ", ".join(map(_FORMAT.__getitem__, map(type, seq))) % tuple(seq)
    elif all(_atomic(v) for v in seq):
        return "[" + ", ".join([format_float(v) if isinstance(v, float) else str(v)
                                for v in seq]) + "]"
    else:
        return None
    return "[" + _quote_non_finite(text) + "]"


def _row_block(seq, inner):
    """The rows of ``seq`` one per line as one block, or None unless they
    are lists or tuples of one width whose columns each hold one plain
    number type."""
    if not set(map(type, seq)) <= {list, tuple} or len(set(map(len, seq))) != 1:
        return None
    width = len(seq[0])
    flat = list(itertools.chain.from_iterable(seq))
    kinds = list(map(type, flat))
    if not (set(kinds) <= _FORMAT.keys() and kinds == kinds[:width] * len(seq)):
        return None
    row = inner + "[" + ", ".join(map(_FORMAT.__getitem__, kinds[:width])) + "]"
    return _quote_non_finite(",\n".join([row] * len(seq)) % tuple(flat))


def _write(obj, out, level):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
        obj = obj.item()  # numpy scalar
    pad = "  " * level
    inner = pad + "  "
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(inner + json.dumps(str(k)) + ": ")
            _write(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        line = _number_line(seq)
        if line is not None:
            out.append(line)
            return
        # rows of numbers, such as a certificate's subsets: one line each
        block = _row_block(seq, inner)
        if block is not None:
            out.append("[\n" + block + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(inner)
            _write(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
