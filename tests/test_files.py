"""Unit tests for ``cavityflux.files``, the one CSV and JSON format."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cavityflux.files import _CSV_BLOCK_ROWS, mulhilo, write_csv, write_json


def test_csv_matches_row_by_row_reference(tmp_path, csv_reference):
    n = 2 * _CSV_BLOCK_ROWS + 500      # three blocks of rows
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
    header = "x,i,flag,maybe,text"
    write_csv(path, header, floats, ints, flags, maybe, text)
    assert path.read_bytes() == csv_reference(header, floats, ints, flags,
                                              maybe, text)


# block edges, at 1024 rows and at the writer's block, and cells that a
# format string could misread
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049,
                               _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                               _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1])
def test_csv_block_edges_and_awkward_cells(tmp_path, csv_reference, n):
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
    header = "first,i,second,text"
    write_csv(path, header, first, ints, second, text)
    assert path.read_bytes() == csv_reference(header, first, ints, second,
                                              text)


# the neighbours of the formatter's edges: 1e-3, each power of ten, 2**52
_EDGES = sorted({float(x) for edge in [1e-3, 2.0 ** 52,
                                       *10.0 ** np.arange(-4, 18)]
                 for x in np.nextafter(edge, [0.0, edge, np.inf])})
_MAGNITUDE = st.one_of(
    st.floats(1e-3, 2.0 ** 52, exclude_max=True),
    st.sampled_from(_EDGES),
    # 17-digit ties: exact below 2**51, where the ulp is at most 1/4
    st.integers(10 ** 15, 2 ** 52 - 1).map(lambda n: n + 0.25),
    st.integers(10 ** 15, 2 ** 52 - 1).map(lambda n: n + 0.75))
_FLOAT = st.one_of(st.floats(), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))
_INT = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                 st.sampled_from([-2 ** 63, 2 ** 63 - 1, 1 - 2 ** 63, 0]))
_TEXT = st.one_of(st.text("a%,;sdγé字😀", max_size=5),
                  st.sampled_from(["", "Error(γ, 1%)", "%d,%.17g", "Ω,"]))


def _dense_fast_range():
    """Columns whose floats fill the integer-arithmetic range of the float
    format densely: every decade of [1e-3, 2**52), random mantissas,
    17-digit ties and the neighbours of every power of ten, of either
    sign."""
    rng = np.random.default_rng(26)
    n = 20000
    ties = rng.integers(10 ** 15, 2 ** 51, n // 4) + rng.choice([0.25, 0.75],
                                                                n // 4)
    powers = 10.0 ** np.arange(-3, 16)
    x = np.concatenate([10.0 ** rng.uniform(-3, np.log10(2.0 ** 52), n),
                        ties, powers, np.nextafter(powers, 0),
                        np.nextafter(powers, np.inf)])
    x *= rng.choice([-1.0, 1.0], x.size)
    return (x, rng.integers(-2 ** 63, 2 ** 63 - 1, x.size, dtype=np.int64),
            rng.random(x.size) < 0.5, ["%d,γ"] * x.size)


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 8))
    cells = lambda cell: draw(st.lists(cell, min_size=n, max_size=n))
    return (cells(st.one_of(st.none(), _FLOAT)),
            np.array(cells(_INT), dtype=np.int64),
            np.array(cells(st.booleans()), dtype=bool), cells(_TEXT))


@given(_columns())
@example(([2.0 ** 51 - 0.75, 1e15 + 0.25, None, float("nan")],
          np.array([-2 ** 63, 2 ** 63 - 1, 0, -1]),
          np.array([True, False, True, False]), ["γ,%d", "", "%", ","]))
@example(_dense_fast_range())
def test_csv_matches_reference_on_drawn_cells(tmp_path_factory,
                                               csv_reference, columns):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    header = "x,i,flag,text"
    write_csv(path, header, *columns)
    assert path.read_bytes() == csv_reference(header, *columns)


@pytest.mark.parametrize("text", [["ok", "a\0"], ["\0"],
                                  np.array(["ok", "a\0b"])],
                         ids=["trailing", "alone", "inside"])
def test_csv_refuses_nul_in_text(tmp_path, text):
    with pytest.raises(ValueError, match="'verdict'"):
        write_csv(tmp_path / "out.csv", "x,verdict", [1.0] * len(text), text)


def test_csv_without_rows_writes_its_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, "x,i,flag,text", np.zeros(0), np.zeros(0, np.int64),
              np.zeros(0, bool), np.array([], dtype=str))
    assert path.read_bytes() == b"x,i,flag,text\n"


def test_csv_rejects_columns_of_different_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", "a,b", [1.0, 2.0], [1.0])


@pytest.mark.parametrize("header, columns", [("a,b,c", 1), ("a", 2)])
def test_csv_refuses_a_header_that_does_not_name_every_column(
        tmp_path, header, columns):
    path = tmp_path / "out.csv"
    message = f"names {header.count(',') + 1} columns, got {columns}"
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, *[[1.0]] * columns)
    assert not path.exists()


_WORD = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                   2 ** 64 - 1]))


@given(st.lists(st.tuples(_WORD, _WORD), min_size=1, max_size=40),
       _WORD)
@example([(a, b) for a in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
          for b in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)],
         2 ** 64 - 1)
def test_mulhilo_matches_python_integers(pairs, word):
    # the 128-bit product's two words, with b an array and an integer
    a, b = (np.array(w, dtype=np.uint64) for w in zip(*pairs))
    for b_arg, b_ints in ((b, b.tolist()), (word, [word] * len(pairs))):
        hi, lo = mulhilo(a, b_arg)
        products = [x * y for x, y in zip(a.tolist(), b_ints)]
        assert hi.tolist() == [p >> 64 for p in products]
        assert lo.tolist() == [p & (2 ** 64 - 1) for p in products]


def test_json_format(tmp_path):
    data = {"b": [1.5, None, {"z": 1, "a": "x"}], "a": 2 ** 70,
            "c": 0.1 + 0.2}
    path = tmp_path / "out.json"
    write_json(path, data)
    assert path.read_text() == json.dumps(data, indent=2,
                                          sort_keys=True) + "\n"
