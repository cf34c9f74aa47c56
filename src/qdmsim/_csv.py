"""CSV text with Python's repr of every float, built as byte matrices.

Every CSV the package writes prints a float as Python's repr of it (the
shortest text that reads back to the same double) and an integer in
decimal, byte for byte what a row loop calling repr or str per value
writes.  csv_text lays out a block of rows at a time as one uint8 matrix:
each column owns a fixed run of bytes per row, a value's text sits in it
with NUL bytes wherever it is shorter, and commas and newlines have fixed
places.  bytes.translate drops every NUL, which compacts the block; the
blocks are decoded once.  Whole digits come two at a time from a table of
the texts of 0 .. 99, and fraction digits four at a time from one of the
texts of 0 .. 9999, built on first use.  A column given as an Axis (the
grid axes of a sweep or an RF table) is formatted once per table.  Axis
columns that repeat alike share a pattern: one full-width row per value,
holding their texts in their fields and NUL elsewhere.  A block starts as
the separators; each pattern's rows are gathered for it and merged in by
bitwise or, and the array columns' texts are copied into their fields.  A
block holds at most BLOCK_VALUES values, which bounds its temporaries: a
writer's peak stays within three times the text it returns.

The float kernel certifies each value's digits exactly.  For |x| in
[1e-4, 1e16), where repr prints positional digits, it forms N = |x| * 10**s
in [1e16, 1e17) as an integer p plus an exact float remainder e (Dekker's
product; 10**s is exact for s <= 22) and the half-width
h = ulp(x) / 2 * 10**s of x's rounding interval, a power of two times 5**s
and so exact too.  The integers in [N - h, N + h] are exactly the 17-digit
texts that read back to x.  Since 2h < 23, the interval holds at most one
multiple of 100; with k the largest of 0, 1, 2 for which it holds a
multiple of 10**k, the multiple of 10**k nearest N has the most trailing
zeros of any integer in the interval and is the nearest of those: repr's
choice, the shortest text that reads back and of several the one nearest
x.  Its digits, with the decimal point put back at s and the fraction's
trailing zeros dropped, are repr's text.

The kernel decides only what this arithmetic settles; every other value
goes to repr itself: NaN, infinities and zeros; |x| outside [1e-4, 1e16),
where repr prints an exponent; a mantissa that is a power of two, whose
rounding interval is asymmetric; and an interval end, or a choice between
two candidates equally near x, within _TIE of a tie, where the round-half-
even rule of reading a decimal back would decide.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence, Union

import numpy as np

#: A block of rows holds at most this many values, which bounds the
#: temporaries of one block.
BLOCK_VALUES = 8192

#: Distance from a tie below which the kernel defers to repr.  The float
#: sums it compares are exact to within 1e-14.
_TIE = 1e-9

_POW10 = np.array([10.0**k for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW5 = np.array([5.0**k for k in range(23)])
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_MANTISSA = np.uint64(2**52 - 1)
_TEN, _HUNDRED = np.uint64(10), np.uint64(100)


def _cell_table() -> np.ndarray:
    """Texts of 0 .. 99 as 2-byte cells, in four variants: zero-padded;
    leading zero NUL; the same with 0 as "0"; trailing zero NUL.  Then the
    digits 0 .. 9, each followed by a point."""
    i = np.arange(100)[:, None]
    place = np.array([10, 1])
    chars = (i // place % 10 + 48).astype(np.uint8)
    no_lead = chars * (i >= place)
    no_trail = chars * (i % (10 * place) != 0)
    units = no_lead.copy()
    units[0, 1] = 48
    point = np.stack([chars[:10, 1], np.full(10, 46, dtype=np.uint8)], axis=1)
    return np.concatenate([chars, no_lead, units, no_trail, point]).view(np.uint16).ravel()


_CELLS = _cell_table()
_NO_LEAD, _UNITS, _POINT = map(np.int64, (100, 200, 400))
_MINUS_CELL = np.frombuffer(b"-\0", dtype=np.uint16)[0]
_ZERO_CELL = np.frombuffer(b"0\0", dtype=np.uint16)[0]


@functools.cache
def _quads() -> np.ndarray:
    """Texts of 0 .. 9999 as 4-byte groups, in three variants: zero-padded;
    trailing zeros NUL; the same with 0 as "0".  Each group is two cells of
    _CELLS: its upper pair drops trailing zeros only when its lower pair is
    00."""
    pairs, no_trail = _CELLS[:100], _CELLS[300:400]
    t = np.empty((3, 100, 100, 2), dtype=np.uint16)  # variant, upper, lower, cell
    t[:, :, :, 0] = pairs[:, None]
    t[0, :, :, 1] = pairs
    t[1:, :, :, 1] = no_trail
    t[1:, :, 0, 0] = no_trail
    t[2, 0, 0, 0] = _ZERO_CELL
    return t.view(np.uint32).ravel()


_NO_TRAIL, _FIRST = np.int64(10000), np.int64(20000)


class Axis(NamedTuple):
    """A column that repeats a short sequence: row r shows
    values[(r // repeat) % len(values)]."""

    values: np.ndarray
    repeat: int = 1


Column = Union[np.ndarray, Axis]


def csv_text(header: str, columns: Sequence[Column]) -> str:
    """The header, then one comma-joined row per position of the columns.

    A column is an Axis or an array with one float64, integer or bool
    value per row (bools print as 0 and 1).  Arrays are 1-D and of one
    length; a table of Axis columns alone has one row per period of its
    slowest axis.
    """
    axes = [i for i, c in enumerate(columns) if isinstance(c, Axis)]
    axis_texts = dict(zip(axes, _formatted([np.asarray(columns[i].values).ravel()
                                            for i in axes])))
    arrays = {i: np.asarray(c) for i, c in enumerate(columns) if i not in axis_texts}
    n_rows = (len(next(iter(arrays.values()))) if arrays
              else max(len(c.values) * c.repeat for c in columns))
    step = max(1, BLOCK_VALUES // len(columns))
    out = bytearray(header.encode() + b"\n")
    layout = None
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        texts = dict(zip(arrays, _formatted([a[lo:hi] for a in arrays.values()])))
        fields = {**axis_texts, **texts}
        widths = [fields[i].shape[1] for i in range(len(columns))]
        if layout is None or layout[0] != widths:
            layout = _layout(columns, axis_texts, widths)
        out += _rows(layout, texts, lo, hi)
    return out.decode("ascii")


def _formatted(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Each array's texts as a (len, width) byte matrix, NUL-padded; one
    kernel call formats all the float64 arrays and one all the others."""
    out = [None] * len(arrays)
    for is_float in (True, False):
        which = [k for k, a in enumerate(arrays) if (a.dtype == np.float64) == is_float]
        if which:
            values = np.concatenate([arrays[k] for k in which])
            cells = (_float_cells if is_float else _int_cells)(values).view(np.uint8)
            end = 0
            for k in which:
                out[k] = cells[end:end + len(arrays[k])]
                end += len(arrays[k])
    return out


def _layout(columns: Sequence[Column], axis_texts: dict, widths: list[int]):
    """Where each field of a row sits, a row of only the separators, and
    a pattern for each shape (repeat, len) of Axis: one row per value
    holding the texts of the Axis columns of that shape in their fields,
    NUL elsewhere, each row one item so that np.take moves it whole."""
    ends = np.cumsum(widths) + np.arange(len(widths))  # each field's separator
    separators = np.zeros(ends[-1] + 1, dtype=np.uint8)
    separators[ends] = 44  # ','
    separators[-1] = 10  # '\n'
    patterns = {}
    for i, texts in axis_texts.items():
        c = columns[i]
        rows = patterns.setdefault((c.repeat, len(c.values)),
                                   np.zeros((len(c.values), len(separators)), dtype=np.uint8))
        rows[:, ends[i] - widths[i]:ends[i]] = texts
    return widths, ends, separators, {
        shape: rows.view(f"V{len(separators)}").ravel() for shape, rows in patterns.items()}


def _rows(layout, texts: dict, lo: int, hi: int) -> bytearray:
    """Rows lo .. hi - 1 of the table, with every NUL dropped; texts holds
    the array columns' texts for these rows as byte matrices."""
    widths, ends, separators, patterns = layout
    buf = bytearray((hi - lo) * len(separators))
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(hi - lo, len(separators))
    rows[:] = separators
    index = np.arange(lo, hi)
    for (repeat, n), pattern in patterns.items():
        rows |= np.take(pattern, index // repeat % n).view(np.uint8).reshape(rows.shape)
    for i, t in texts.items():
        rows[:, ends[i] - widths[i]:ends[i]] = t
    return buf.translate(None, b"\0")


def _whole_cells(v: np.ndarray, out: np.ndarray, point: bool) -> None:
    """Decimal text of uint64s into out's 2-byte cells, right-aligned,
    leading zeros NUL and 0 printed as "0".  With point, the last cell
    holds the last digit and a decimal point."""
    n = out.shape[1]
    for k in range(n - 1, -1, -1):
        if point and k == n - 1:
            q = v // _TEN
            index = (v - q * _TEN).astype(np.int64) + _POINT
        else:
            q = v // _HUNDRED
            index = (v - q * _HUNDRED).astype(np.int64)
            index += (q == 0) * (_UNITS if k == n - 1 else _NO_LEAD)
        np.take(_CELLS, index, out=out[:, k])
        v = q


def _n_whole(largest: int, point: bool) -> int:
    """Cells _whole_cells needs for integers up to largest."""
    return -(-(len(str(largest)) + point) // 2)


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Decimal text of int64 values (or bools as 0 and 1) in 2-byte cells."""
    v = values.astype(np.int64)
    neg = v < 0
    mag = np.where(neg, 0 - v, v).view(np.uint64)  # -2**63 wraps to 2**63
    sign = int(neg.any())
    out = np.empty((len(v), sign + _n_whole(int(mag.max(initial=0)), False)), np.uint16)
    if sign:
        out[:, 0] = neg * _MINUS_CELL
    _whole_cells(mag, out[:, sign:], point=False)
    return out


def _frac_cells(hi: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """Digits of hi * 10**12 + lo into out's 4-byte groups, left-aligned to
    the first, trailing zeros NUL and 0 printed as "0"."""
    quads = _quads()
    n = out.shape[1]
    zeros_right = np.ones(len(lo), dtype=bool)  # every group to the right is zeros
    v = lo
    for k in range(n - 1, -1, -1):
        if k == n - 4:
            v = hi
        q = v // 10000
        r = v - q * 10000
        np.take(quads, r + zeros_right * (_FIRST if k == 0 else _NO_TRAIL), out=out[:, k])
        zeros_right &= r == 0
        v = q


def _shortest(x: np.ndarray):
    """(m, s, ok): where ok, repr(abs(x)) is the decimal text of m / 10**s
    with trailing zeros of its fraction dropped."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) & _MANTISSA != 0)
    a[~ok] = 1.5  # a stand-in the kernel can run on; its row is not used
    ex = (a.view(np.int64) >> 52) - 1022  # a in [2**(ex-1), 2**ex)
    # floor((ex - 1) * log10(2)) is floor(log10(a)) or one less
    s = 16 - ((ex - 1) * 78913 >> 18)
    s -= a * _POW10[s] >= 1e17
    p = a * _POW10[s]  # an integer in [1e16, 1e17)
    # Dekker's product: a and 10**s split in halves of 26 bits
    ah = _SPLIT * a
    ah -= ah - a
    a -= ah
    e = ah * _POW10_HI[s] - p
    e += ah * _POW10_LO[s]
    e += a * _POW10_HI[s]
    e += a * _POW10_LO[s]  # a * 10**s == p + e exactly
    h = _POW5[s] * ((s + ex + 969) << 52).view(np.float64)  # ulp(a) / 2 * 10**s
    hi, lo = e + h, e - h  # the interval's ends, as offsets from p
    top, bottom = np.floor(hi), np.ceil(lo)
    ok &= (np.abs(hi - top - 0.5) < 0.5 - _TIE) & (np.abs(bottom - lo - 0.5) < 0.5 - _TIE)
    pi = p.astype(np.int64)
    r = (pi - pi // 100 * 100).astype(np.float64)  # p mod 100
    count = top - bottom + 1
    top += r
    top -= np.floor(top / 100) * 100  # the top integer mod 100
    # k: the largest of 0, 1, 2 with a multiple of 10**k in the interval
    k = np.add(top - np.floor(top / 10) * 10 < count, top < count, dtype=np.intp)
    step = _POW10[k]
    r -= np.floor(r / step) * step  # p mod 10**k
    u = (r + e) / step
    q = np.rint(u)
    ok &= np.abs(np.abs(u - q) - 0.5) > _TIE
    return pi + (q * step - r).astype(np.int64), s, ok


def _float_cells(x: np.ndarray) -> np.ndarray:
    """repr of each float64 in 2-byte cells, NUL-padded."""
    m, s, ok = _shortest(x)
    m[~ok], s[~ok] = 0, 1
    whole, frac = np.divmod(m, _INT_POW10[np.minimum(s, 18)])  # m < 10**18
    # the fraction takes n_frac cells; left-aligned in the 4 * n_quads
    # digits of its groups (up to 20, more than an int64 holds), it is
    # hi * 10**12 + lo
    n_frac = -(-int(s.max(initial=1)) // 2)
    n_quads = -(-n_frac // 2)
    shift = 4 * n_quads - s
    hi, lo = np.divmod(frac, _INT_POW10[np.maximum(12 - shift, 0)])
    hi *= _INT_POW10[np.maximum(shift - 12, 0)]
    lo *= _INT_POW10[np.minimum(shift, 12)]
    neg = np.signbit(x) & ok
    sign = int(neg.any())
    n_whole = _n_whole(int(whole.max(initial=0)), True)
    slow = [repr(v) for v in x[~ok].tolist()]
    start = sign + n_whole
    width = max([start + n_frac, *(-(-len(t) // 2) for t in slow)])
    # with n_frac odd the last group spills one cell past the fraction: it
    # holds trailing zeros, so NUL, and is cut off
    out = np.zeros((len(x), max(width, start + 2 * n_quads)), dtype=np.uint16)
    if sign:
        out[:, 0] = neg * _MINUS_CELL
    _whole_cells(whole.view(np.uint64), out[:, sign:start], point=True)
    _frac_cells(hi, lo, out[:, start:start + 2 * n_quads].view(np.uint32))
    out = out[:, :width]
    if slow:
        out[~ok] = np.array(slow, dtype=f"S{2 * width}").view(np.uint16).reshape(-1, width)
    return out
