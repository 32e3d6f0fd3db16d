"""The one format of every CSV and JSON file cavityflux writes.

CSV: a header line, then rows of %.17g floats, %d integers and booleans,
and text with "," replaced by ";"; NaN and None are empty fields.
JSON: indent 2, sorted keys and a trailing newline.

Rows are written in blocks, each with one % operation: the block's
template joins every cell's field format, with its separator, and its
arguments are the cells in row order.  A NaN cell's field is %.0s, which
formats its argument as ""; only float columns can hold NaN, so only
their cells are tested for it.  Text goes in as a %s argument, so a "%"
in it is never parsed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# rows are formatted and written this many at a time: one write per
# block, without holding a string per row for the whole record
_CSV_BLOCK_ROWS = 1024


def _column(values):
    # (array, field format): the format is chosen once per column
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr, "%d"
    if arr.dtype.kind == "U":
        return np.strings.replace(arr, ",", ";"), "%s"
    return arr.astype(float, copy=False), "%.17g"   # None -> NaN


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns under a comma-separated header line."""
    cols = [_column(c) for c in columns]
    n_rows = len(cols[0][0])
    if any(len(arr) != n_rows for arr, _ in cols):
        raise ValueError("columns differ in length")
    k = len(cols)
    # each field's format carries the separator that follows it, and a
    # float field's NaN format too
    fmts = [(fmt + sep, "%.0s" + sep if fmt == "%.17g" else None)
            for (_, fmt), sep in zip(cols, [","] * (k - 1) + ["\n"])]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            size = min(_CSV_BLOCK_ROWS, n_rows - start)
            fields, cells = [None] * (size * k), [None] * (size * k)
            for j, ((arr, _), (fmt, nan_fmt)) in enumerate(zip(cols, fmts)):
                block = arr[start:start + size].tolist()
                cells[j::k] = block
                fields[j::k] = ([fmt if x == x else nan_fmt for x in block]
                                if nan_fmt else [fmt] * size)
            fh.write("".join(fields) % tuple(cells))


def write_json(path, data) -> None:
    """Write data as JSON with indent 2, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
