"""CSV lines as bytes: an exact vectorized '%.12g' and the row assembler.

format_g12 writes '%.12g' % v for every element of a float array, byte for
byte, into fixed 24-byte fields padded with NUL. Values with
1e-4 <= |v| < 1e12 print in fixed notation and are converted with numpy
alone (Gay's fast path: scale in floating point, check the error bound,
fall back when the check fails). The exponent e comes from log10, so
y = |v| * 10**(11 - e) lies in [1e11, 1e12). With s = 11 - e in [0, 15],
10**s is exact and y carries a single rounding: |y - |v| * 10**s| <= 2**-14,
since y < 2**40. So when |y - rint(y)| < 0.5 - 2**-13, rint(y) is the
correctly rounded 12-digit mantissa. The digits are read in groups of four
from a lookup table. Trailing zeros, the decimal point and a '0.000'
prefix are then placed by per-row masks, which are looked up by
(sign, e, significant length). Zeros print as '0' and '-0'. Everything
else goes to '%', one element at a time: near-ties, a carry to 1e12,
scientific notation, NaN and +-inf.

csv_lines lays fields side by side in NUL-padded rows, and csv_chunks
removes the padding with one bytes.translate per block of rows.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# bytes of one formatted float: the longest '%.12g' text is 19 bytes
# ('-4.94065645841e-324'); three 8-byte words hold a row's sign and '0.000'
# prefix, then up to 12 digits and a point. The last byte is always NUL.
FIELD = 24

# lines laid out at once by csv_chunks
SLAB_ROWS = 1024

_ZERO = 416  # row keys after the 2 x 16 x 13 fixed-notation ones: 0, -0
_PERCENT = 418  # all NUL, overwritten with '%' text


def _tables():
    """The row tables, indexed by key = 208*sign + 13*(e + 4) + n, where n
    counts the mantissa's digits up to its last nonzero one."""
    # int64 arithmetic and takes only, which format_g12 runs anyway: other
    # loops would add their code pages to the resident set
    g = np.arange(10000)
    # the 4 ASCII digits of each group 0000-9999, first digit in the low byte
    digits = np.zeros(10000, np.int64)
    # each group's digits up to its last nonzero one
    last = np.zeros(10000, np.int64)
    for i, place in enumerate((1000, 100, 10, 1)):
        d = g // place
        d -= d // 10 * 10
        digits += (d + ord("0")) * 256**i
        d += 9
        d //= 10  # 1 where the digit is not 0
        last += (i + 1 - last) * d
    # n of a 12-digit mantissa is the largest of its groups' values here:
    # the group's offset plus its own count, 0 for a zero group
    length = [np.array([0, *range(4 * k + 1, 4 * k + 5)], np.uint8).take(last) for k in range(3)]
    head = np.zeros((_PERCENT + 1, 8), np.uint8)
    # digit i of the integer part goes to byte i, digit i of the fraction to
    # byte i + 1, the point between them
    integer = np.zeros((_PERCENT + 1, 16), np.uint8)
    fraction = np.zeros((_PERCENT + 1, 16), np.uint8)
    point = np.zeros((_PERCENT + 1, 16), np.uint8)
    for sign in (0, 1):
        for e in range(-4, 12):
            for n in range(13):
                key = 208 * sign + 13 * (e + 4) + n
                text = b"-" * sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
                head[key, : len(text)] = list(text)
                kept = max(n, e + 1)  # the integer part keeps its zeros
                integer[key, : max(e + 1, 0)] = 0xFF
                fraction[key, max(e + 2, 1) : kept + 1] = 0xFF
                if 0 <= e < kept - 1:
                    point[key, e + 1] = ord(".")
        head[_ZERO + sign, : 1 + sign] = list(b"-0"[1 - sign :])

    def words(table):
        return [np.ascontiguousarray(w) for w in table.view("<u8").T]

    return (
        digits.view(np.uint64),
        length,
        *words(head),
        *words(integer),
        *words(fraction),
        *words(point),
    )


(
    _DIGITS,
    (_LEN_HI, _LEN_MID, _LEN_LO),
    _HEAD,
    _INT_LO, _INT_HI,
    _FRAC_LO, _FRAC_HI,
    _POINT_LO, _POINT_HI,
) = _tables()
# 10**(11 - e), indexed by e mod 16 for e in [-4, 11]
_SCALE = np.array([float(10 ** (11 - (e if e < 12 else e - 16))) for e in range(16)])


def format_g12(x, out: np.ndarray | None = None) -> np.ndarray:
    """'%.12g' % v for each v of x, as NUL-padded uint8 rows of shape
    x.shape + (FIELD,), in C order. out, when given, is such an array
    (a view is fine) whose rows start on 8-byte boundaries."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    if out is None:
        out = np.empty(shape + (FIELD,), np.uint8)
    with np.errstate(all="ignore"):
        e, m, slow = _mantissa(x)
    # the mantissa's three 4-digit groups, high to low
    mantissa = m.astype(np.intp)
    del m
    high = mantissa // 10000
    lo = mantissa - high * 10000
    del mantissa
    hi = high // 10000
    mid = high - hi * 10000
    del high
    n = _LEN_HI.take(hi)
    np.maximum(n, _LEN_MID.take(mid), out=n)
    np.maximum(n, _LEN_LO.take(lo), out=n)
    key = 13 * e
    key += n
    key += 52
    key += 208 * (x < 0.0)
    xs = x[slow]
    zero = xs == 0.0
    key[slow] = np.where(zero, _ZERO + np.signbit(xs), _PERCENT)
    # the 12 digits in bytes 0-11 of (d0, d1), and again one byte later in (f0, f1)
    d0 = _DIGITS.take(mid)
    d0 <<= 32
    d0 |= _DIGITS.take(hi)
    d1 = _DIGITS.take(lo)
    del hi, mid, lo
    f0 = d0 << 8
    f1 = d1 << 8
    f1 |= d0 >> 56
    d0 &= _INT_LO.take(key)
    d1 &= _INT_HI.take(key)
    f0 &= _FRAC_LO.take(key)
    f1 &= _FRAC_HI.take(key)
    d0 |= f0
    d1 |= f1
    d0 |= _POINT_LO.take(key)
    d1 |= _POINT_HI.take(key)
    row = out.view("<u8")  # the word values hold the bytes in little-endian order
    row[..., 0] = _HEAD.take(key).reshape(shape)
    row[..., 1] = d0.reshape(shape)
    row[..., 2] = d1.reshape(shape)
    rest = slow[~zero]
    if rest.size:
        text = np.array(["%.12g" % v for v in x[rest].tolist()], dtype=f"S{FIELD}")
        out[np.unravel_index(rest, shape)] = text.view(np.uint8).reshape(-1, FIELD)
    return out


def _mantissa(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, m, slow): the decimal exponent and 12-digit mantissa of each
    |v| of x where the fast path takes v, and the indices where it does
    not (their m is a placeholder)."""
    a = np.abs(x)
    e = np.log10(a)
    np.floor(e, out=e)
    np.fmax(e, -4.0, out=e)
    np.fmin(e, 11.0, out=e)
    e = e.astype(np.intp)
    y = _SCALE.take(e, mode="wrap")
    y *= a
    m = np.rint(y)
    fast = _accept(y, m)
    slow = np.flatnonzero(~fast)
    if slow.size:
        # log10 can be one off next to a power of ten: move e once toward
        # y in [1e11, 1e12) and try again
        ys = y[slow]
        es = e[slow] + (ys >= 1e12) - (ys < 1e11)
        moved = (es != e[slow]) & (es >= -4) & (es <= 11)
        redo, es = slow[moved], es[moved]
        ys = a[redo] * _SCALE.take(es, mode="wrap")
        ms = np.rint(ys)
        e[redo], m[redo], fast[redo] = es, ms, _accept(ys, ms)
        slow = np.flatnonzero(~fast)
        m[slow] = 1e11  # any 12 digits: their row keys mask the digits out
    return e, m, slow


def _accept(y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Where m = rint(y) is the correctly rounded 12-digit mantissa: y in
    [1e11, 1e12), no carry to 1e12, and y not within the error bound of a
    tie."""
    fast = y - m
    fast = np.abs(fast, out=fast) < 0.5 - 2.0**-13
    fast &= y >= 1e11
    fast &= m < 1e12
    return fast


def csv_lines(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The CSV lines of the columns as NUL-padded uint8 rows, one per line.

    A float column's fields read as '%.12g' % v. A uint8 column holds
    fields format_g12 has already written, one row each. A bytes ('S')
    column's fields are its elements. A column of one field repeats it on
    every line. Fields are separated by ',' and each line ends in '\\n'.
    """
    n = max(len(c) for c in columns)
    floats = [c.dtype.kind == "f" for c in columns]
    # each field with its separator, in 8-byte slots so that float fields
    # are word-aligned; a formatted float's last byte is NUL
    widths = [
        FIELD if c.dtype.kind in "fu" else (c.itemsize + 8) // 8 * 8 for c in columns
    ]
    ends = np.cumsum(widths)
    lines = np.empty((n, int(ends[-1])), np.uint8)
    j = 0
    while j < len(columns):
        start = int(ends[j]) - widths[j]
        if floats[j]:
            # a run of adjacent float columns is formatted in one call
            k = next((i for i in range(j, len(columns)) if not floats[i]), len(columns)) - j
            values = np.stack(columns[j : j + k], axis=1)
            format_g12(values, out=lines[:, start : start + k * FIELD].reshape(n, k, FIELD))
            j += k
        else:
            w = widths[j]
            field = columns[j]
            if field.dtype.kind == "S":
                field = field.astype(f"S{w}").view(np.uint8).reshape(-1, w)
            lines[:, start : start + w] = field
            j += 1
    for end in ends[:-1]:
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines


def csv_chunks(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """csv_lines of the columns as bytes, the NUL padding removed, in
    blocks of SLAB_ROWS lines laid out one at a time: that bounds the
    padded buffer and the formatter's temporaries."""
    n = max(len(c) for c in columns)
    for i in range(0, n, SLAB_ROWS):
        block = [c if len(c) == 1 else c[i : i + SLAB_ROWS] for c in columns]
        yield csv_lines(block).tobytes().translate(None, b"\0")
