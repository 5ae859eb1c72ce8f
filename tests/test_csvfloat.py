"""The vectorized '%.17g' of the trajectory CSV against Python's, cell by cell."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclassics import _csvfloat
from semiclassics._csvfloat import csv_rows

WIDTH = 6


def mismatches(values):
    """The cells whose text differs from '%.17g', as (value, got, expected),
    with the values laid out in rows of WIDTH columns."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.zeros(-len(values) % WIDTH)])
    table = values.reshape(-1, WIDTH)
    text = "".join(csv_rows(tuple(table.T.copy())))
    row = ",".join(["%.17g"] * WIDTH) + "\n"
    if text == row * len(table) % tuple(values.tolist()):
        return []
    cells = text.replace("\n", ",").split(",")[:-1]
    assert len(cells) == len(values)
    return [(v, got, "%.17g" % v) for v, got in zip(values.tolist(), cells)
            if got != "%.17g" % v]


def proven(values):
    """The share of cells the vectorized arithmetic formats itself."""
    values = np.asarray(values, dtype=np.float64)
    count = sum(np.count_nonzero(_csvfloat._digits(values[lo:lo + 4096])[0])
                for lo in range(0, len(values), 4096))
    return count / len(values)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_hypothesis_floats(values):
    assert mismatches(values) == []


def test_a_million_bit_patterns():
    bits = np.random.default_rng(20261020).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert mismatches(values) == []
    # about 48% of the exponent fields are in 1e-280 <= |v| < 1e16
    assert 0.45 < proven(values) < 0.5


def test_every_binade_of_the_range():
    rng = np.random.default_rng(31)
    exponents = np.repeat(np.arange(-931, 54), 200)
    values = np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    values *= rng.choice([-1.0, 1.0], values.size)
    assert mismatches(values) == []
    # above 1e4 some cells are exact ties, which go to Python: y = |v| * 10**q
    # has few bits after the point there (a quarter of them are ties in
    # [1e15, 1e16))
    magnitude = np.abs(values)
    assert proven(values[(magnitude >= 1e-280) & (magnitude < 1e4)]) == 1
    assert proven(values[(magnitude >= 1e-280) & (magnitude < 1e16)]) > 0.99


def neighbours(value, count=3):
    out = [value]
    lo = hi = value
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


EDGES = [
    *neighbours(1e-5), *neighbours(1e-4), *neighbours(1e16), *neighbours(1e17),
    *neighbours(1e-280), *neighbours(5e-324), *neighbours(2.2250738585072014e-308),
    *neighbours(2.0**53), *neighbours(1.0), *neighbours(0.1), *neighbours(0.5),
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.7976931348623157e308,
    *(0.05 * i for i in range(400)), *(10.0 * i for i in range(-50, 50)),
]


def test_edges():
    assert mismatches(EDGES) == []
    assert mismatches([-v for v in EDGES]) == []
    assert proven([0.0, -0.0, 0.05, 1.0, 1e-5, -1e-4, 2.5e-280]) == 1
    assert proven([1e16, 5e-324, 1e-281, math.inf, math.nan]) == 0


def test_every_power_of_ten_and_its_neighbours():
    # the nearest doubles to 10**x and the decade thresholds of the tables
    values = [v for x in range(-323, 309) for v in neighbours(float(f"1e{x}"), 2)]
    assert mismatches(values) == []


def test_roundings_that_carry_into_the_next_decade():
    # doubles just below a power of ten whose 17 digits round up to it:
    # D = 10**17, printed as 1 in the next decade
    carried = [v for x in range(-323, 309) for v in [float(f"1e{x}")]
               if Fraction(v) < Fraction(10) ** x and ("%.17g" % v).startswith("1e")]
    assert 1e-14 in carried and len(carried) > 10
    assert mismatches(carried) == []
    assert proven([v for v in carried if v >= 1e-280]) == 0


def ties():
    """For X = -8 ... 15, a double whose |v| * 10**(16 - X) is exactly half
    an odd integer: v = m / 2**(q + 1) with m odd, q = 16 - X."""
    out = []
    for x in range(-8, 16):
        q = 16 - x
        m = math.ceil(Fraction(10) ** x * 2 ** (q + 1)) | 1
        value = m / 2 ** (q + 1)
        assert Fraction(value) * 10**q % 1 == Fraction(1, 2)
        out.append(value)
    return out


def test_exact_ties_round_half_even():
    assert "%.17g" % ((2**53 - 1) / 4) == "2251799813685247.8"
    values = [(2**53 - 1) / 4, *ties()]
    assert mismatches(values) == []
    assert mismatches([-v for v in values]) == []
    assert proven(values) == 0  # a tie is never taken for proven


@pytest.mark.parametrize("block_rows", [1, 7, 512])
def test_block_boundaries(block_rows, monkeypatch):
    monkeypatch.setattr(_csvfloat, "_BLOCK_ROWS", block_rows)
    scales = 10.0 ** np.arange(-6, 6).repeat(50)
    values = np.random.default_rng(5).standard_normal(scales.size) * scales
    assert mismatches(values) == []


def test_tables_are_exact():
    row, above = _csvfloat._tables()[:2]
    for field in range(1, 2047):
        first = math.ldexp(1.0, field - 1023)
        if not _csvfloat._SMALLEST / 2 < first < _csvfloat._LARGEST:
            continue
        x = int(row[field]) + _csvfloat._X_MIN - 1
        assert Fraction(10) ** x <= Fraction(first) < Fraction(10) ** (x + 1)
        bound = Fraction(10) ** (x + 1)
        assert above[field] >= bound > math.nextafter(above[field], 0.0)


def test_memory_a_cell():
    # the tracemalloc peak of formatting one chunk of six columns, the
    # numbers of a trajectory with every tenth cell left to Python: 270
    # bytes a cell with numpy 2.4, every temporary of the chunk and its
    # text, which a larger chunk would only scale
    rng = np.random.default_rng(8)
    size = 6 * _csvfloat._BLOCK_ROWS
    cells = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
    cells[::10] = 1e300
    columns = tuple(cells.reshape(6, -1))
    next(csv_rows(columns))  # the tables are built on the first call
    tracemalloc.start()
    try:
        next(csv_rows(columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cells.size < 320


def test_no_rows():
    assert list(csv_rows((np.empty(0), np.empty(0)))) == []
