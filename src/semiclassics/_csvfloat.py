"""CSV text of float64 columns, each cell as ``'%.17g' % v``, made by numpy.

CPython prints 17 digits on the bignum path of ``Python/dtoa.c`` (Gay, AT&T
Numerical Analysis Manuscript 90-10, 1990), correctly rounded and about
half a microsecond a cell.  Here a block of cells is converted at once;
each cell whose digits the arithmetic below cannot prove is formatted by
Python's ``'%.17g'`` in its place, so the text is the same byte for byte.

The digits.  '%.17g' prints D, the integer nearest to y = |v| * 10**q
(ties to even), with q = 16 - X and X = floor(log10 |v|) the decimal
exponent, unless D = 10**17, a carry into the next decade.  For
1e-280 <= |v| < 1e16, X is exact: a table gives floor(log10) of the
binade's lower end and the smallest double not below the next power of
ten, and one comparison settles which decade |v| is in.  Then
1 <= q <= 296, and 10**q = H + L + d with H = fl(10**q), L = fl(10**q - H)
and |d| <= 2**-106 * H.  Dekker's product (Numer. Math. 18 (1971) 224,
with Veltkamp's split) gives |v| * H = P + e exactly, so
y = P + e + |v| L + |v| d.  As y >= 10**16 > 2**53, P is an even integer
below 2**63.  The computed r = fl(e + fl(|v| L)) is within 6e-15 of the
exact remainder y - P (|e| <= 8, |v| L <= 12), so when r is more than
2**-40 from a half-integer, y is no tie and D = P + rint(r) exactly.
Zeros get D = 0.  A cell outside that range, non-finite, within 2**-40
of a tie or with D outside [10**16, 10**17) goes to Python.

The text.  Each cell is drawn into a fixed slot of ``_WIDTH`` bytes: the
sign, the lead '0.000' that '%g' puts before X = -1 ... -4, 18 columns
for the 17 digits and the point, the exponent 'e-dd' or 'e-ddd' of
X < -4, and the separator.  All but the sign and the digits depends only
on X and comes from a per-X template.  A byte '%g' does not print (an
unused column, a trailing zero digit, a point with no digit after it)
is 0, and one ``bytes.translate`` drops those bytes from the block.  The
cells left to Python are written over the first 24 columns, padded with
spaces, which the same call drops.
"""

import functools
import math

import numpy as np

_WIDTH = 30
_SEP = _WIDTH - 1  # ',' or, in the last column, '\n'
_DIGITS = 6  # first column of the 18 that hold the 17 digits and the point
_TAIL = 24  # first column of the exponent; Python's text fills the 24 before it
_X_MIN = -280  # the decimal exponents of the vectorized range
_X_MAX = 15
_SMALLEST = 1e-280
_LARGEST = 1e16
_SPLITTER = 134217729.0  # 2**27 + 1
_CLEAR_OF_TIE = 0.5 - 2.0**-40
_NO_POINT = 99  # the point column of X = -1 ... -4: the point is in the lead
_BLOCK_ROWS = 512  # rows a chunk; its temporaries peak at about 270 bytes a cell

_COLUMN = np.arange(18, dtype=np.uint8)[:, None]
_POWERS = (np.float32(10.0) ** np.arange(5, -1, -1, dtype=np.float32))[:, None]


@functools.cache
def _tables():
    """The exact values the conversion looks up, built on the first call."""
    # the smallest double >= 10**x, so that 10**x <= v exactly when
    # v >= ceiling[x], for x = _X_MIN - 1 ... _X_MAX + 1
    ceiling = np.array([_ceil_power_of_ten(x) for x in range(_X_MIN - 1, _X_MAX + 2)])
    # the biased exponent field f holds the binade [2**k, 2**(k+1)), k = f - 1023;
    # floor(k log10(2)) is at most one off the decade of 2**k
    field = np.arange(2048)
    first = np.ldexp(1.0, np.minimum(field, 2046) - 1023)
    guess = np.floor((field - 1023) * math.log10(2.0)).astype(np.int64)
    at = np.clip(guess - _X_MIN + 1, 0, len(ceiling) - 2)
    decade = guess + (first >= ceiling[at + 1]) - (first < ceiling[at])
    in_range = (first > _SMALLEST / 2) & (first < _LARGEST)
    above = np.where(in_range, ceiling[np.clip(decade - _X_MIN + 2, 0, len(ceiling) - 1)], np.inf)

    # the per-exponent tables: row 0 for the cells the arithmetic leaves to
    # Python and for zeros, printed like X = 0; row x - _X_MIN + 1 for X = x
    exps = [0, *range(_X_MIN, _X_MAX + 1)]
    row = np.where(in_range, decade - _X_MIN + 1, 0)  # the row of the binade's lower end
    high = np.array([float(10**(16 - x)) for x in exps])
    low = np.array([float(10**(16 - x) - int(h)) for x, h in zip(exps, high)])
    high_top = high * _SPLITTER
    high_top -= high_top - high
    high_bottom = high - high_top

    template = np.empty((len(exps), _WIDTH), np.uint8)
    point = np.empty(len(exps), np.uint8)  # the point's column among the 18
    whole = np.empty(len(exps), np.uint8)  # the last digit printed though 0
    for i, x in enumerate(exps):
        lead = "0.000"[:1 - x] if -4 <= x <= -1 else ""
        tail = f"e-{-x:02d}" if x < -4 else ""
        text = "\0" + lead.ljust(5, "\0") + "\0" * 18 + tail.ljust(5, "\0") + ","
        template[i] = np.frombuffer(text.encode("ascii"), np.uint8)
        point[i] = _NO_POINT if lead else (1 if tail else x + 1)
        whole[i] = max(x, 0)
    return row, above, high, high_top, high_bottom, low, template, point, whole


def _ceil_power_of_ten(x):
    """The smallest double not below 10**x."""
    value = float(10**x) if x >= 0 else 1 / 10**-x  # correctly rounded
    num, den = value.as_integer_ratio()
    exact = num * 10**max(-x, 0) >= den * 10**max(x, 0)
    return value if exact else math.nextafter(value, math.inf)


def csv_rows(columns):
    """Yield the CSV text of rows of equal-length float64 ``columns``,
    ``_BLOCK_ROWS`` rows a chunk: each cell ``'%.17g' % v``, cells joined
    by ',' and rows ended by '\\n'."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = np.column_stack([c[lo:lo + _BLOCK_ROWS] for c in columns])
        cells = rows.reshape(-1)
        fast, index, decimals = _digits(cells)
        chars = _draw(cells, index, decimals)
        chars.reshape(len(rows), -1, _WIDTH)[:, -1, _SEP] = ord("\n")
        slow = np.flatnonzero(~fast)
        if len(slow):  # Python's text, space-padded to the 24 bytes before the tail
            text = "%-24.17g" * len(slow) % tuple(cells[slow].tolist())
            chars[slow, :_TAIL] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _TAIL)
        yield chars.tobytes().translate(None, b"\0 ").decode("ascii")


def _digits(cells):
    """Each cell's 17 digits, a row per digit after a row of zeros, the
    mask of the cells they are proven for and each cell's template row."""
    row, above, high, high_top, high_bottom, low = _tables()[:6]
    with np.errstate(all="ignore"):  # the lanes of the cells left to Python
        a = np.abs(cells)
        field = a.view(np.int64) >> 52
        index = row.take(field, mode="clip") + (a >= above.take(field, mode="clip"))
        fast = (a >= _SMALLEST) & (a < _LARGEST)
        index *= fast
        # a * 10**q = product + rest, rest's rounding error below 6e-15
        top = a * _SPLITTER
        top -= top - a
        bottom = a - top
        product = a * high.take(index, mode="clip")
        h_top = high_top.take(index, mode="clip")
        h_bottom = high_bottom.take(index, mode="clip")
        rest = (top * h_top - product + top * h_bottom + bottom * h_top
                + bottom * h_bottom + a * low.take(index, mode="clip"))
        whole = np.rint(rest)
        fast &= np.abs(rest - whole) < _CLEAR_OF_TIE
        digits = product.astype(np.int64) + whole.astype(np.int64)
    fast &= (digits >= 10**16) & (digits < 10**17)
    index *= fast
    digits *= fast
    fast |= a == 0.0  # all digits 0 on row 0: '0'
    # three groups of six digits (the first has five), exact in float32
    upper, lower = np.divmod(digits, 10**6)
    groups = np.array([*np.divmod(upper, 10**6), lower], np.float32)[:, None]
    quotients = np.floor(groups / _POWERS)
    quotients[:, 1:] -= quotients[:, :-1] * 10  # digit k: quotient k less 10 quotient k - 1
    return fast, index, quotients.astype(np.uint8).reshape(18, -1)


def _draw(cells, index, decimals):
    """Each cell's slot from its digits and template row, 0 in the bytes
    it does not print."""
    template, point_table, whole_table = _tables()[6:]
    digits = decimals[1:]
    # the last digit '%g' prints: the last nonzero one, or the units digit
    last = np.max((digits != 0) * _COLUMN[:17], axis=0)
    point = point_table.take(index, mode="clip")
    after = last >= point  # the column after a point that is printed
    last = np.maximum(last, whole_table.take(index, mode="clip")) + after
    # digit c sits in column c before the point and c + 1 after it
    digits += np.uint8(ord("0"))
    region = np.zeros_like(decimals)
    region[:17] = digits * (_COLUMN[:17] < point)
    region[1:] += digits * (_COLUMN[1:] > point)
    region += (_COLUMN == point) * np.uint8(ord("."))
    region *= _COLUMN <= last
    chars = template.take(index, axis=0, mode="clip")
    chars[:, _DIGITS:_TAIL] = region.T
    chars[:, 0] = np.signbit(cells) * np.uint8(ord("-"))
    return chars
