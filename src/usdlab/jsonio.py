"""JSON emission with pinned 17-significant-digit floats.

The stdlib encoder emits shortest round-trip floats.  The file formats in
this package pin 17 significant digits instead, so emitted artifacts are
byte-stable across writer versions and platforms.  Non-finite floats are
emitted as the strings "inf", "-inf", "nan" (plain JSON has no tokens for
them); readers that need them back should map those strings explicitly.
"""

import json
import math


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
    """``values`` as ``Pinned`` floats (``"%.17g" %`` gives the bits of
    ``format(x, ".17g")``, faster)."""
    out = list(map(Pinned, values))
    for v in out:
        v.text = "%.17g" % v
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


_NUMBER_TEXT = {int: str, float: format_float,
                Pinned: lambda v: v.text if math.isfinite(v) else format_float(v)}


def _number_line(seq):
    """The items on one line, or None unless every one is a number."""
    try:   # plain ints and floats, one lookup each
        texts = [_NUMBER_TEXT[type(v)](v) for v in seq]
    except KeyError:
        if not all(_atomic(v) for v in seq):
            return None
        texts = [format_float(v) if isinstance(v, float) else str(v) for v in seq]
    return "[" + ", ".join(texts) + "]"


def _write(obj, out, level):
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
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
        lines = [_number_line(v) if isinstance(v, (list, tuple)) else None
                 for v in seq]
        if None not in lines:
            out.append("[\n" + ",\n".join(inner + x for x in lines) + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(inner)
            _write(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        try:
            import numpy as np
            if isinstance(obj, np.ndarray):
                _write(obj.tolist(), out, level)
                return
        except ImportError:
            pass
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
