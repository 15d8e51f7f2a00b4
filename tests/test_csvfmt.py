"""format_g12 against '%.12g' % x on every element, and csv_lines and
csv_chunks against the csv module."""
import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from procure.cli import _csv_field
from procure.csvfmt import FIELD, SLAB_ROWS, csv_chunks, csv_lines, format_g12


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


def test_csv_lines_equal_csv_writer():
    # more lines than one slab holds, so that csv_chunks yields three
    n = 2 * SLAB_ROWS + 3
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-50, 50, n), rng.normal(size=n)
    b[2] = np.nan
    ids = ["x", 'q,"', "é1", "", "long id with spaces", "z"] * (n // 6 + 1)
    ids = ids[:n]
    # csv_lines takes text fields as they are: quote them as csv.writer does
    fields = np.array([_csv_field(i).encode() for i in ids], dtype="S")
    chunks = list(csv_chunks([fields, a, np.array([b"k"]), format_g12(b), np.array([b""]), a]))
    assert len(chunks) == 3
    text = b"".join(chunks).decode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in zip(ids, a.tolist(), b.tolist(), a.tolist()):
        writer.writerow([row[0], "%.12g" % row[1], "k", "%.12g" % row[2], "", "%.12g" % row[3]])
    assert text == buf.getvalue()
    lines = csv_lines([a, fields])
    assert lines.shape[1] % 8 == 0 and (lines[:, -1] == ord("\n")).all()
