"""The one format of every CSV and JSON file cavityflux writes.

CSV: a header line, then rows of %.17g floats, %d integers and booleans,
and text with "," replaced by ";", in UTF-8; NaN and None are empty
fields.  Text holding a NUL character is refused.
JSON: indent 2, sorted keys and a trailing newline.

Rows are formatted in blocks, each a uint8 matrix: every column fills a
NUL-padded field of fixed width, every separator one column, and the
block is written as its bytes with the NULs deleted; its float columns
are formatted together, in one pass.  Integers are split into base-100
digits, each printed from a two-byte table, with leading zeros as NUL.
A float x with |x| in [1e-3, 2**52) is m / 2**s with m < 2**53 and
1 <= s <= 62, and its 17 significant digits are
D = round-half-even(m 10**(16 - E) / 2**s), a 128-bit product shifted
right by s: the digits '%.17g' prints.  The decimal exponent E is
estimated from log10 and corrected from the truncated quotient.  '%.17g'
prints such x in fixed notation, so a table indexed by the sign, E and
the count of significant digits gives the field's "-", "0.", zeros and
point, and masks the 17 digits, written twice: as the integer part and
as the fraction.  Other floats (0, subnormals, inf, the very small and
the very large) take Python's '%.17g' one by one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# rows are formatted and written this many at a time: one write per
# block, while the block's matrix and temporaries stay near 1 MB
_CSV_BLOCK_ROWS = 4096

_MASK32 = 0xFFFFFFFF
_DIGIT = ord("0")

# "00" .. "99" as the native uint16 of their two bytes, so that pairs
# viewed as uint8 read in print order
_PAIRS = (np.stack(np.divmod(np.arange(100), 10), axis=1) + _DIGIT
          ).astype(np.uint8).view(np.uint16).ravel()
_POW10 = 10 ** np.arange(20, dtype=np.uint64)

# float field: a sign and the 17 digits as the integer part, then a
# free slot and the 17 digits as the fraction; the integer part's digit
# slots also hold "0." and the zeros of E < 0, and the point of E >= 0
# after the last integer digit
_FLOAT_WIDTH = 36
_FAST_MIN, _FAST_MAX = 1e-3, 2.0 ** 52
_E_MIN, _E_MAX = -3, 15
# a '%.17g' field is at most 24 bytes: "-2.2250738585072014e-308"
_SLOW_WIDTH = 24


def _float_tables():
    # row (sign, E - _E_MIN, n_sig) of the first table holds a field's
    # fixed bytes, of the second the 0xFF mask of the digits it shows
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    n_sig = np.arange(18)[:, None]
    k = np.arange(17)
    fixed = np.zeros((2, e.size, 18, _FLOAT_WIDTH), np.uint8)
    mask = np.zeros(fixed.shape, np.uint8)
    fixed[1, ..., 0] = ord("-")
    fixed[..., 1:18] = np.where((k == e + 1) & (k < n_sig), ord("."), 0)
    fixed[:, :-_E_MIN, :, 1:5] = np.where(
        np.arange(4) < 1 - e[:-_E_MIN], [_DIGIT, ord("."), _DIGIT, _DIGIT], 0)
    mask[..., 1:18] = np.where(k <= e, 0xFF, 0)
    mask[..., 19:] = np.where((k > e) & (k < n_sig), 0xFF, 0)
    return fixed.reshape(-1, _FLOAT_WIDTH), mask.reshape(-1, _FLOAT_WIDTH)


_FLOAT_FIXED, _FLOAT_MASK = _float_tables()


def mulhilo(a, b):
    """High and low 64-bit words of the 128-bit product of a uint64 array a
    and b, a uint64 array or a 64-bit integer."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    # one carry chain: neither partial sum reaches 2**64
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    w = a_lo * b_hi + (t & _MASK32)
    return a_hi * b_hi + (t >> 32) + (w >> 32), a * b


def _digit_pairs(u, n_pairs):
    # the 2 n_pairs decimal digits of uint64 u < 100**n_pairs, as a
    # (u.size, n_pairs) view of their uint16 pairs
    rems = np.empty((n_pairs, u.size), np.uint64)
    for j in range(n_pairs - 1, 0, -1):
        q = u // 100
        rems[j] = u - q * 100
        u = q
    rems[0] = u
    return np.take(_PAIRS, rems).T


def _int_fields(arr, signed, n_pairs):
    neg = arr < 0
    mag = arr.astype(np.uint64)
    mag = np.where(neg, -mag, mag)
    # a digit shows from the first nonzero one on, and the last always
    lead = np.append(_POW10[2 * n_pairs - 1:0:-1], 0)
    digits = np.ascontiguousarray(_digit_pairs(mag, n_pairs)).view(np.uint8)
    digits *= mag[:, None] >= lead
    if not signed:
        return digits
    return np.column_stack([np.where(neg, ord("-"), 0).astype(np.uint8),
                            digits])


def _quotient(m, s, e):
    # m 10**(16 - e) / 2**s: truncated quotient and remainder
    hi, lo = mulhilo(m, _POW10[16 - e])
    return hi << (64 - s) | lo >> s, lo & ((np.uint64(1) << s) - 1)


def _float_fields(x):
    # the fields of a float array, of shape x.shape + (_FLOAT_WIDTH,)
    shape, x = x.shape, x.ravel()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    v = np.where(fast, ax, 1.0)
    bits = v.view(np.uint64)
    m = bits & (2 ** 52 - 1) | 2 ** 52
    s = 1075 - (bits >> 52)
    e0 = np.clip(np.floor(np.log10(v)), _E_MIN, _E_MAX).astype(np.int64)
    q, r = _quotient(m, s, e0)
    e = e0 + (q >= 10 ** 17) - (q < 10 ** 16)
    fix = np.flatnonzero(e != e0)
    if fix.size:
        q[fix], r[fix] = _quotient(m[fix], s[fix], e[fix])
    # no carry to 10**17: below 2**52 no double lies within 5e-18
    # relative under a power of ten
    half = np.uint64(1) << (s - 1)
    d = q + ((r > half) | ((r == half) & (q & 1 == 1)))
    # D < 10**17: 9 pairs, the first "0" a slot of its own, twice over
    pairs = np.empty((x.size, 2, 9), np.uint16)
    pairs[:] = _digit_pairs(d, 9)[:, None]
    digits = pairs.view(np.uint8).reshape(x.size, _FLOAT_WIDTH)
    n_sig = 17 - np.argmax(digits[:, :18:-1] != _DIGIT, axis=1)
    key = ((x < 0) * (_E_MAX + 1 - _E_MIN) + e - _E_MIN) * 18 + n_sig
    fields = np.take(_FLOAT_FIXED, key, axis=0)
    fields |= np.take(_FLOAT_MASK, key, axis=0) & digits
    fields[~fast] = 0
    slow = np.flatnonzero(~fast & (x == x))     # NaN stays empty
    if slow.size:
        text = [b"%.17g" % y for y in x[slow].tolist()]
        fields[slow, :_SLOW_WIDTH] = np.array(
            text, dtype=f"S{_SLOW_WIDTH}").view(np.uint8).reshape(-1,
                                                                 _SLOW_WIDTH)
    return fields.reshape(shape + (_FLOAT_WIDTH,))


def _column(values, name):
    # (width, fields of rows a:b, array): the format is chosen once per
    # column; a float column's fields are None, as a block formats all
    # its float columns together
    arr = np.asarray(values)
    if not arr.size:
        return 0, None, arr
    if arr.dtype.kind in "biu":
        low, high = int(arr.min()), int(arr.max())
        n_pairs = (len(str(max(high, -low))) + 1) // 2
        return (low < 0) + 2 * n_pairs, lambda a, b: _int_fields(
            arr[a:b], low < 0, n_pairs), arr
    if arr.dtype.kind == "U":
        # an array has already dropped its strings' trailing NULs
        cells = arr.tolist() if isinstance(values, np.ndarray) else values
        if "\0" in "".join(map(str, cells)):
            raise ValueError(f"text column {name!r} holds a NUL character")
        text = np.strings.encode(np.strings.replace(arr, ",", ";"), "utf-8")
        width = text.dtype.itemsize
        return width, lambda a, b: text[a:b].view(np.uint8).reshape(
            -1, width), arr
    return _FLOAT_WIDTH, None, arr.astype(float, copy=False)  # None -> NaN


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns under a header that names each one."""
    names = header.split(",")
    if len(names) != len(columns):
        raise ValueError(f"header {header!r} names {len(names)} columns, "
                         f"got {len(columns)}")
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    cols = [_column(c, name) for c, name in zip(columns, names)]
    floats = [arr for _, fields, arr in cols if fields is None]
    # each field is followed by its separator's column
    starts = np.cumsum([0] + [w + 1 for w, _, _ in cols])
    seps = [ord(",")] * (len(cols) - 1) + [ord("\n")]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for a in range(0, n_rows, _CSV_BLOCK_ROWS):
            b = min(a + _CSV_BLOCK_ROWS, n_rows)
            mat = np.empty((b - a, starts[-1]), np.uint8)
            float_fields = iter(_float_fields(np.array([x[a:b]
                                                        for x in floats])))
            for (w, fields, _), start, sep in zip(cols, starts, seps):
                mat[:, start:start + w] = (next(float_fields) if fields is None
                                           else fields(a, b))
                mat[:, start + w] = sep
            fh.write(mat.tobytes().translate(None, b"\0"))


def write_json(path, data) -> None:
    """Write data as JSON with indent 2, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
