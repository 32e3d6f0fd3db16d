"""The one format of every CSV and JSON file cavityflux writes.

CSV: a header line, then rows of %.17g floats, %d integers and booleans,
and text with "," replaced by ";"; NaN and None are empty fields.
JSON: indent 2, sorted keys and a trailing newline.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# rows are formatted and written this many at a time: one write per
# block, without holding a string per row for the whole record
_CSV_BLOCK_ROWS = 1024


def _column(values):
    # (array, block formatter): the format is chosen once per column
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr, lambda block: list(map("%d".__mod__, block.tolist()))
    if arr.dtype.kind == "U":
        return arr, lambda block: [s.replace(",", ";") for s in block.tolist()]
    return arr.astype(float, copy=False), lambda block: [   # None -> NaN
        "%.17g" % x if x == x else "" for x in block.tolist()]


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns under a comma-separated header line."""
    cols = [_column(c) for c in columns]
    n_rows = len(cols[0][0])
    if any(len(arr) != n_rows for arr, _ in cols):
        raise ValueError("columns differ in length")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            fields = [fmt(arr[start:stop]) for arr, fmt in cols]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_json(path, data) -> None:
    """Write data as JSON with indent 2, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
