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


def csv_rows(columns, block_rows):
    """Yield the CSV text of rows of equal-length float64 ``columns``,
    ``block_rows`` rows a chunk: each cell ``'%.17g' % v``, cells joined
    by ',' and rows ended by '\\n'."""
    count = len(columns[0])
    rows = min(count, block_rows)
    if rows:
        block = _Block(rows, len(columns))
        for lo in range(0, count, rows):
            yield block.text([c[lo:lo + rows] for c in columns])


class _Block:
    """The work arrays of one block of cells, reused for every block."""

    def __init__(self, rows, width):
        size = rows * width
        self.rows = np.empty((rows, width))
        (self.magnitude, self.top, self.bottom, self.product, self.rest, self.work,
         self.table) = np.empty((7, size))
        self.field, self.index, self.digits, self.part = np.empty((4, size), np.int64)
        self.fast, self.flag = np.empty((2, size), bool)
        self.groups = np.empty((3, 1, size), np.float32)
        self.quotients = np.empty((3, 6, size), np.float32)
        self.tens = np.empty((3, 1, size), np.float32)
        self.decimals = np.empty((18, size), np.uint8)  # row 0 is always 0
        self.last, self.point, self.whole = np.empty((3, size), np.uint8)
        self.region, self.term = np.empty((2, 18, size), np.uint8)
        self.side = np.empty((18, size), bool)
        self.chars = np.empty((size, _WIDTH), np.uint8)

    def text(self, columns):
        """The CSV rows of a block: ``columns`` are slices of equal length."""
        rows = self.rows[:len(columns[0])]
        for j, column in enumerate(columns):
            rows[:, j] = column
        cells = rows.reshape(-1)
        fast, index = self._digits(cells)
        chars = self._draw(cells, index)
        chars.reshape(len(rows), -1, _WIDTH)[:, -1, _SEP] = ord("\n")
        slow = np.flatnonzero(~fast)
        if len(slow):  # Python's text, space-padded to the 24 bytes before the tail
            text = "%-24.17g" * len(slow) % tuple(cells[slow].tolist())
            chars[slow, :_TAIL] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _TAIL)
        return chars.tobytes().translate(None, b"\0 ").decode("ascii")

    def _digits(self, cells):
        """Fill ``decimals`` with each cell's 17 digits; return the mask
        of the cells they are proven for and each cell's template row."""
        row, above, high, high_top, high_bottom, low = _tables()[:6]
        n = len(cells)
        a, top, bottom, product, rest, work, table = (
            x[:n] for x in (self.magnitude, self.top, self.bottom, self.product,
                            self.rest, self.work, self.table))
        field, index, digits, part = (x[:n] for x in (self.field, self.index, self.digits,
                                                      self.part))
        fast, flag = self.fast[:n], self.flag[:n]
        with np.errstate(all="ignore"):  # the lanes of the cells left to Python
            np.abs(cells, out=a)
            np.right_shift(a.view(np.int64), 52, out=field)
            row.take(field, out=index, mode="clip")
            np.greater_equal(a, above.take(field, out=work, mode="clip"), out=flag)
            index += flag
            np.greater_equal(a, _SMALLEST, out=fast)
            np.less(a, _LARGEST, out=flag)
            fast &= flag
            index *= fast
            # a * 10**q = product + rest, rest's rounding error below 6e-15
            np.multiply(a, _SPLITTER, out=top)
            np.subtract(top, a, out=work)
            top -= work
            np.subtract(a, top, out=bottom)
            np.multiply(a, high.take(index, out=table, mode="clip"), out=product)
            high_top.take(index, out=table, mode="clip")
            np.multiply(top, table, out=rest)
            rest -= product
            np.multiply(bottom, table, out=table)
            high_bottom.take(index, out=work, mode="clip")
            np.multiply(top, work, out=top)
            rest += top
            rest += table
            np.multiply(bottom, work, out=bottom)
            rest += bottom
            np.multiply(a, low.take(index, out=work, mode="clip"), out=work)
            rest += work
            np.rint(rest, out=work)
            np.subtract(rest, work, out=rest)
            np.abs(rest, out=rest)
            np.less(rest, _CLEAR_OF_TIE, out=flag)
            fast &= flag
            np.copyto(digits, product, casting="unsafe")
            np.copyto(part, work, casting="unsafe")
        digits += part
        np.greater_equal(digits, 10**16, out=flag)
        fast &= flag
        np.less(digits, 10**17, out=flag)
        fast &= flag
        index *= fast
        digits *= fast
        np.equal(a, 0.0, out=flag)  # all digits 0 on row 0: '0'
        fast |= flag
        # three groups of six digits (the first has five), exact in float32
        groups = self.groups[..., :n]
        np.floor_divide(digits, 10**6, out=part)
        np.multiply(part, 10**6, out=field)
        np.subtract(digits, field, out=field)
        groups[2, 0] = field
        np.floor_divide(part, 10**6, out=digits)
        groups[0, 0] = digits
        np.multiply(digits, 10**6, out=field)
        np.subtract(part, field, out=field)
        groups[1, 0] = field
        quotients, tens = self.quotients[..., :n], self.tens[..., :n]
        np.divide(groups, _POWERS, out=quotients)
        np.floor(quotients, out=quotients)
        decimals = self.decimals[:, :n].reshape(3, 6, n)
        for k in range(5, 0, -1):  # digit k is quotient k less 10 times quotient k - 1
            np.multiply(quotients[:, k - 1:k], 10, out=tens)
            quotients[:, k:k + 1] -= tens
        np.copyto(decimals, quotients, casting="unsafe")
        return fast, index

    def _draw(self, cells, index):
        """Each cell's slot from its digits and template row, 0 in the
        bytes it does not print."""
        template, point_table, whole_table = _tables()[6:]
        n = len(cells)
        digits = self.decimals[1:, :n]
        last, point, whole = self.last[:n], self.point[:n], self.whole[:n]
        region, term, side = (x[..., :n] for x in (self.region, self.term, self.side))
        chars, flag = self.chars[:n], self.flag[:n]
        # the last digit '%g' prints: the last nonzero one, or the units digit
        np.not_equal(digits, 0, out=side[1:])
        np.multiply(side[1:], _COLUMN[:17], out=term[1:])
        np.maximum.reduce(term[1:], axis=0, out=last)
        point_table.take(index, out=point, mode="clip")
        whole_table.take(index, out=whole, mode="clip")
        np.greater_equal(last, point, out=flag)
        np.maximum(last, whole, out=last)
        last += flag  # the column after a point that is printed
        # digit c sits in column c before the point and c + 1 after it
        digits += np.uint8(ord("0"))
        np.less(_COLUMN[:17], point, out=side[:17])
        np.multiply(digits, side[:17], out=region[:17])
        region[17] = 0
        np.greater(_COLUMN[1:], point, out=side[1:])
        np.multiply(digits, side[1:], out=term[1:])
        region[1:] += term[1:]
        np.equal(_COLUMN, point, out=side)
        np.multiply(side, np.uint8(ord(".")), out=term)
        region += term
        np.less_equal(_COLUMN, last, out=side)
        region *= side
        template.take(index, axis=0, out=chars, mode="clip")
        chars[:, _DIGITS:_TAIL] = region.T
        np.signbit(cells, out=flag)  # numpy 2.4 errs writing it to a strided out=
        np.multiply(flag, np.uint8(ord("-")), out=chars[:, 0])
        return chars
