"""Property check: the column-wise CSV writer and the block JSON emission
against the writers they replaced.

The CSV reference is ``csv.writer(lineterminator="\\n")`` over the
``_format_cell`` text of every cell, row by row.  The JSON reference is the
per-row emission, kept here as it was: one ``_number_line`` per list of
numbers, each item formatted on its own.  Both must give the same bytes.
"""
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdlab import jsonio
from usdlab.csvio import _format_cell, write_csv


def _pin(x):
    return jsonio.pinned([x])[0]


# -0.0, subnormals, the extremes, +-inf and nan all come from st.floats()
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, math.inf,
     -math.inf, math.nan])
ints = st.integers(-2**70, 2**70)
texts = st.text(st.sampled_from(list('ab ,"\r\n\t1é')), max_size=6)
cells = st.one_of(
    texts, ints, st.booleans(), floats, floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), floats.map(_pin))


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    # a column of one kind takes the bulk path, a mixed one the cell path
    kinds = [draw(st.sampled_from([texts, ints, st.booleans(), floats,
                                   floats.map(_pin), cells])) for _ in range(width)]
    header = draw(st.lists(texts, min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*kinds), max_size=6))
    return header, rows


def _reference_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(v) for v in row] for row in rows)
    return buf.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tables())
def test_write_csv_gives_the_bytes_of_csv_writer(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == _reference_csv(header, rows).encode("utf-8")


def test_write_csv_edge_rows(tmp_path):
    path = tmp_path / "t.csv"
    for header, rows in [(["a"], [("",), ("x",), ("a,b",)]), ([], [(), ()]),
                         (["a", "b"], [("", "")]), (["h"], []),
                         (["s"], [('say "hi"',), ("two\nlines",), ("cr\r",)])]:
        write_csv(path, header, rows)
        assert path.read_bytes() == _reference_csv(header, rows).encode("utf-8")


def test_write_csv_refuses_a_row_of_another_width(tmp_path):
    with pytest.raises(ValueError, match="header's 2 cells"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])


# -- the JSON reference: per-row emission, one format per item --------------

def _reference_number_line(seq):
    def text(v):
        if type(v) is jsonio.Pinned:
            return v.text if math.isfinite(v) else jsonio.format_float(v)
        return jsonio.format_float(v) if isinstance(v, float) else str(v)
    if not all(jsonio._atomic(v) for v in seq):
        return None
    return "[" + ", ".join(text(v) for v in seq) + "]"


def _reference_write(obj, out, level):
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
        obj = obj.item()
    pad = "  " * level
    inner = pad + "  "
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(jsonio.format_float(obj))
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
            _reference_write(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        line = _reference_number_line(seq)
        if line is not None:
            out.append(line)
            return
        lines = [_reference_number_line(v) if isinstance(v, (list, tuple)) else None
                 for v in seq]
        if None not in lines:
            out.append("[\n" + ",\n".join(inner + x for x in lines) + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(inner)
            _reference_write(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _reference_write(obj.tolist(), out, level)


def _reference_dumps(obj):
    out = []
    _reference_write(obj, out, 0)
    return "".join(out) + "\n"


numbers = st.one_of(ints, floats, floats.map(_pin), st.booleans(),
                    floats.map(np.float64), st.integers(-99, 99).map(np.int64))
number_lists = st.one_of(st.lists(ints, max_size=6), st.lists(floats, max_size=6),
                         st.lists(floats.map(_pin), max_size=6),
                         st.lists(numbers, max_size=6))


@st.composite
def number_rows(draw):
    """Rows of one width whose columns each hold one kind (the block path),
    or any rows of numbers (the per-row path)."""
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from([ints, floats]), max_size=4))
        row = st.tuples(*kinds) if draw(st.booleans()) else st.tuples(*kinds).map(list)
        return draw(st.lists(row, min_size=1, max_size=5))
    return draw(st.lists(number_lists | st.tuples(numbers, numbers), min_size=1,
                         max_size=5))


documents = st.recursive(
    st.one_of(st.none(), numbers, texts, number_lists, number_rows()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(documents)
def test_dumps_gives_the_per_row_bytes(obj):
    assert jsonio.dumps(obj) == _reference_dumps(obj)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(floats, max_size=8))
def test_pinned_texts_are_the_17_digit_format(values):
    pins = jsonio.pinned(values)
    assert [v.text for v in pins] == [format(x, ".17g") for x in values]
    assert [math.isnan(v) or v == x for v, x in zip(pins, values)] == [True] * len(values)


def test_non_finite_numbers_stay_strings():
    obj = {"a": [1.0, math.inf, -math.inf, math.nan], "b": jsonio.pinned([math.nan, 2.5]),
           "rows": [[1.0, -math.inf], [math.nan, 0.5]], "ints": [[1, 2], [3, 4]]}
    text = jsonio.dumps(obj)
    assert text == _reference_dumps(obj)
    assert '["nan", 2.5]' in text and '[1, "inf", "-inf", "nan"]' in text
