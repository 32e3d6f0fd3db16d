"""Unit tests for ``cavityflux.files``, the one CSV and JSON format."""

import json

import numpy as np
import pytest

from cavityflux.files import write_csv, write_json


def _float_field(x):
    return "" if x is None or x != x else f"{x:.17g}"


def test_csv_matches_row_by_row_reference(tmp_path):
    n = 2500                    # three blocks of rows
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:5] = [np.nan, -0.0, 1e16, 5e-324, 0.1]
    floats[-1] = np.nan
    ints = rng.integers(-2 ** 62, 2 ** 62, n, dtype=np.int64)
    flags = rng.random(n) < 0.5
    maybe = [None if k % 3 == 0 else float(x)
             for k, x in enumerate(rng.random(n))]
    maybe[1] = float("nan")
    text = ["Error(a, b)" if k % 7 == 0 else "Markovian" for k in range(n)]

    path = tmp_path / "out.csv"
    write_csv(path, "x,i,flag,maybe,text", floats, ints, flags, maybe, text)

    expected = "x,i,flag,maybe,text\n" + "".join(
        f"{_float_field(x)},{i:d},{int(b):d},{_float_field(m)},"
        f"{t.replace(',', ';')}\n"
        for x, i, b, m, t in zip(floats.tolist(), ints.tolist(),
                                 flags.tolist(), maybe, text))
    assert path.read_text() == expected



# block edges at 1024 rows, and cells that a format string could misread
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_block_edges_and_awkward_cells(tmp_path, n):
    rng = np.random.default_rng(n)
    first = rng.standard_normal(n) * 1e300
    second = rng.standard_normal(n)
    ints = rng.integers(-2 ** 62, 2 ** 62, n, dtype=np.int64)
    words = ["100%", "%s", "%%", "a,b", "%d,%.17g", ",", "plain"]
    text = [words[k % len(words)] for k in range(n)]
    if n:
        first[0] = np.nan
        first[n // 2], second[n // 2] = np.inf, -np.inf
        first[-1] = second[-1] = np.nan     # every float cell of a row
    path = tmp_path / "out.csv"
    write_csv(path, "first,i,second,text", first, ints, second, text)

    expected = "first,i,second,text\n" + "".join(
        f"{_float_field(a)},{i:d},{_float_field(b)},{t.replace(',', ';')}\n"
        for a, i, b, t in zip(first.tolist(), ints.tolist(),
                              second.tolist(), text))
    assert path.read_text() == expected

def test_csv_rejects_columns_of_different_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", "a,b", [1.0, 2.0], [1.0])


def test_json_format(tmp_path):
    data = {"b": [1.5, None, {"z": 1, "a": "x"}], "a": 2 ** 70,
            "c": 0.1 + 0.2}
    path = tmp_path / "out.json"
    write_json(path, data)
    assert path.read_text() == json.dumps(data, indent=2,
                                          sort_keys=True) + "\n"
