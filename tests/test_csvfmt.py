"""format_g12 against '%.12g' % x on every element, and csv_lines and
csv_chunks against the csv module."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure import csvfmt
from procure.cli import _csv_field
from procure.csvfmt import FIELD, csv_chunks, csv_lines, format_g12


def _texts(values):
    rows = format_g12(values).reshape(-1, FIELD)
    return [row.tobytes().translate(None, b"\0").decode() for row in rows]


def _assert_exact(values):
    values = np.asarray(values, dtype=float)
    assert _texts(values) == ["%.12g" % x for x in values.ravel().tolist()]


def _neighbours(values, ulps=2):
    """values and their 1 to ulps nearest doubles on either side."""
    out = [values]
    below = above = values
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_any_double(values):
    _assert_exact(values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-4, 1e12, exclude_max=True), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_fixed_notation_range(pairs):
    _assert_exact([-v if neg else v for v, neg in pairs])


def test_constructed_near_ties():
    # 12-digit decimal midpoints (m + 0.5) * 10**(e - 11): the double nearest
    # each, and its neighbours, lie within the fast path's error bound of a tie
    rng = np.random.default_rng(7)
    ties = [
        float(f"{m}5e{e - 12}")
        for e in range(-4, 12)
        for m in rng.integers(10**11, 10**12, size=40).tolist() + [10**11, 10**12 - 2]
    ]
    values = _neighbours(np.array(ties))
    _assert_exact(values)
    _assert_exact(-values)


def test_carries_out_of_the_fixed_range():
    carries = np.array([999999999999.5, 9.999999999995e-05])
    values = _neighbours(carries)
    _assert_exact(values)
    _assert_exact(-values)


def test_powers_of_ten_and_neighbours():
    # where log10 can land one off the exponent
    powers = np.array([float(f"1e{k}") for k in range(-4, 13)])
    values = _neighbours(powers)
    _assert_exact(values)
    _assert_exact(-values)


def test_two_dimensional_input_in_c_order():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1e3, 1e3, size=(5, 7))
    assert format_g12(values).shape == (5, 7, FIELD)
    _assert_exact(values)
    # a Fortran-ordered array is read in C order too
    _assert_exact(np.asfortranarray(values))


def _writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_csv_lines_equal_csv_writer():
    rng = np.random.default_rng(11)
    # csv_lines takes text fields as they are: quote them as csv.writer does
    ids = ["x", 'q,"', "é1", "", "long id with spaces", "z"]
    fields = np.array([_csv_field(i).encode() for i in ids], dtype="S")

    def table(n):
        a, b = rng.uniform(-50, 50, n), rng.normal(size=n)
        b[2 % n] = np.nan
        f = np.resize(fields, n)
        return [f, a, np.array([b"k"]), format_g12(b), np.array([b""]), a], (f, a, b)

    # more lines than one block holds, so that csv_chunks yields three
    n = 2 * (csvfmt.SLAB_BYTES // csv_lines(table(1)[0]).shape[1]) + 3
    columns, (f, a, b) = table(n)
    chunks = list(csv_chunks(columns))
    assert len(chunks) == 3
    rows = [
        [i, "%.12g" % x, "k", "%.12g" % y, "", "%.12g" % x]
        for i, x, y in zip(np.resize(ids, n).tolist(), a.tolist(), b.tolist())
    ]
    assert b"".join(chunks).decode("utf-8") == _writer_text(rows)
    lines = csv_lines([a, f])
    assert lines.shape[1] % 8 == 0 and (lines[:, -1] == ord("\n")).all()


def _every_kind(n):
    """A table of n lines with every column kind csv_chunks takes, and its
    rows as csv.writer writes them."""
    ties = [float(f"{m}5e{e - 12}") for e in (-4, 0, 5, 11) for m in (10**11, 123456789012)]
    pool = np.concatenate(
        [
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 2.5e300],
            _neighbours(np.array([999999999999.5, 9.999999999995e-05, *ties])),
        ]
    )
    x = np.resize(pool, n)
    y = -np.resize(pool[::-1], n)
    ids = ["a", 'q,"', "é1", "", "long id, with a comma"]
    fields = np.resize(np.array([_csv_field(i).encode() for i in ids], dtype="S"), n)
    columns = [fields, x, format_g12(y), np.array([b"k"]), y, np.array([b""]), x]
    rows = [
        [i, "%.12g" % u, "%.12g" % v, "k", "%.12g" % v, "", "%.12g" % u]
        for i, u, v in zip(np.resize(ids, n).tolist(), x.tolist(), y.tolist())
    ]
    return columns, rows


@pytest.mark.parametrize("lines", ["one", "two blocks and three"])
@pytest.mark.parametrize(
    "budget", ["half a row", "one row", "just short of four rows", "default", "the whole table"]
)
def test_csv_chunks_bytes_do_not_depend_on_the_block_size(monkeypatch, lines, budget):
    width = csv_lines(_every_kind(1)[0]).shape[1]
    n = 1 if lines == "one" else 2 * (csvfmt.SLAB_BYTES // width) + 3
    slab = {
        "half a row": width // 2,
        "one row": width,
        "just short of four rows": 4 * width - 1,
        "default": csvfmt.SLAB_BYTES,
        "the whole table": n * width + width // 2,
    }[budget]
    monkeypatch.setattr(csvfmt, "SLAB_BYTES", slab)
    columns, want = _every_kind(n)
    chunks = list(csv_chunks(columns))
    assert len(chunks) == -(-n // max(1, slab // width))
    assert b"".join(chunks).decode("utf-8") == _writer_text(want)
