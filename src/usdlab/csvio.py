"""The experiment runner's CSV files: ``write_csv`` states their format,
and ``read_csv`` reads it back into typed cells."""

import csv

import numpy as np

from . import jsonio


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


# columns of one plain cell type, one bulk format each; any other column
# goes through _format_cell cell by cell
_COLUMN_TEXT = {
    float: lambda col: ("%.17g\0" * len(col) % col).split("\0")[:-1],
    int: lambda col: list(map(str, col)),
    bool: lambda col: list(map(("false", "true").__getitem__, col)),
    jsonio.Pinned: lambda col: [v.text for v in col],
    str: list,
}


def _quoted(texts):
    """``texts`` under csv's QUOTE_MINIMAL rule for a ``,`` delimiter and a
    ``\n`` line end: a text holding ``,``, ``"`` or ``\n`` is quoted, with
    each ``"`` doubled."""
    joined = "".join(texts)
    if "," not in joined and '"' not in joined and "\n" not in joined:
        return texts
    return ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\n" in t
            else t for t in texts]


def _column_texts(col):
    """The quoted cell texts of the tuple ``col``."""
    kinds = set(map(type, col))
    fmt = _COLUMN_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return _quoted(fmt(col) if fmt else list(map(_format_cell, col)))


def write_csv(path, header, rows):
    """Write the names ``header`` and ``rows`` (each as long as the header)
    as CSV.

    The format: comma-separated cells, one line per row, each line ending
    in ``\n`` (the last included).  Floats carry 17 significant digits
    (``format(x, ".17g")``, so ``inf``, ``-inf``, ``nan`` and ``-0``), a
    ``jsonio.Pinned`` float the text it carries, bools ``true``/``false``,
    integers their decimal digits and anything else its ``str``.  Cells
    are quoted as csv's QUOTE_MINIMAL does for a ``\n`` line end: a cell
    holding ``,``, ``"`` or ``\n`` goes in double quotes with each ``"``
    doubled, and so does a row's only cell when it is empty.  These are
    the bytes of ``csv.writer(fh, lineterminator="\n")`` over the cell
    texts; they are formatted one column at a time and written at once.
    """
    rows, width = list(rows), len(header)
    if set(map(len, rows)) - {width}:
        raise ValueError(f"every CSV row needs the header's {width} cells")
    columns = [[name, *_column_texts(col)] for name, col in
               zip(_quoted(list(map(str, header))), zip(*rows) if rows else [()] * width)]
    lines = list(map(",".join, zip(*columns))) if width else [""] * (len(rows) + 1)
    if width == 1:   # csv quotes a row's only cell when it is empty
        lines = [line or '""' for line in lines]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                if cell in ("true", "false"):
                    row.append(cell == "true")
                    continue
                try:
                    row.append(int(cell))
                except ValueError:
                    try:
                        row.append(float(cell))
                    except ValueError:
                        row.append(cell)
            rows.append(tuple(row))
    return header, rows
