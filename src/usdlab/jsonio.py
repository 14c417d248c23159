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
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, indent=2):
    """Serialize dicts/lists/scalars to JSON text with pinned float format."""
    out = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def dump_path(obj, path, indent=2):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=indent))


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not JSON")


def load_path(path):
    """Read JSON, refusing the NaN/Infinity tokens Python's reader allows."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _atomic(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _write(obj, out, indent, level):
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
        obj = obj.item()  # numpy scalar
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
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
            _write(v, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(_atomic(v) for v in seq):
            out.append("[" + ", ".join(
                format_float(v) if isinstance(v, float) else str(v)
                for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(inner)
            _write(v, out, indent, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        try:
            import numpy as np
            if isinstance(obj, np.ndarray):
                _write(obj.tolist(), out, indent, level)
                return
        except ImportError:
            pass
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
