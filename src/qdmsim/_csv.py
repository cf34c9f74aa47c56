"""CSV text with Python's repr of every float, built as byte matrices.

Every CSV the package writes prints a float as Python's repr of it (the
shortest text that reads back to the same double) and an integer in
decimal, byte for byte what a row loop calling repr or str per value
writes.  csv_text lays out a block of rows at a time as one uint8 matrix:
each column owns a fixed run of bytes per row, a value's text sits in it
with NUL bytes wherever it is shorter, and commas and newlines have fixed
places.  bytes.translate drops every NUL, which compacts the block; the
blocks are decoded once.  Every digit comes from one table of the texts of
0 .. 9999 as 4-byte groups, built on first use: whole parts and integers
four digits at a time, right-aligned with leading zeros NUL, and fractions
four at a time, left-aligned with trailing zeros NUL.  Since a column's
whole parts end in one column of its field, the minus sign and the decimal
point are single bytes in fixed columns: the sign before the longest whole
part's first digit (NUL in rows without one), the point after the last.
A column given as an Axis (the grid axes of a sweep or an RF table) is
formatted once per table.  Axis columns that repeat alike share a
pattern: one full-width row per value, holding their texts in their
fields and NUL elsewhere.  A block starts as the separators; each
pattern's rows are gathered for it and merged in by bitwise or, and the
array columns' texts are copied into their fields.  A block holds at most
BLOCK_VALUES values, which bounds its temporaries: a writer's peak stays
within three times the text it returns.

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


@functools.cache
def _groups() -> np.ndarray:
    """Texts of 0 .. 9999 as 4-byte groups, in five variants: zero-padded;
    leading zeros NUL; the same with 0 as "0"; trailing zeros NUL; the same
    with 0 as "0".  Each group is two texts of 0 .. 99: its lower pair
    drops leading zeros only when its upper pair is 00, and its upper pair
    drops trailing zeros only when its lower pair is 00."""
    i = np.arange(100)[:, None]
    place = np.array([10, 1])
    chars = (i // place % 10 + 48).astype(np.uint32)
    # a text's bytes read as a little-endian number, so that a group is
    # its upper pair plus its lower pair shifted by two bytes
    pad, no_lead, no_trail = (c[:, 0] + (c[:, 1] << 8) for c in
                              (chars, chars * (i >= place), chars * (i % (10 * place) != 0)))
    t = np.empty((5, 100, 100), dtype="<u4")  # variant, upper, lower
    np.add(pad[:, None], pad << 16, out=t[0])
    np.add(no_lead[:, None], pad << 16, out=t[1])
    t[1, 0] = no_lead << 16
    t[2] = t[1]
    t[2, 0, 0] = ord("0") << 24
    np.add(pad[:, None], no_trail << 16, out=t[3])
    t[3, :, 0] = no_trail
    t[4] = t[3]
    t[4, 0, 0] = ord("0")
    return t.view(np.uint32).ravel()


_NO_LEAD, _UNITS, _NO_TRAIL, _FIRST = map(np.int64, (10000, 20000, 30000, 40000))
_MINUS, _POINT = ord("-"), ord(".")


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
            texts = (_float_text if is_float else _int_text)(values)
            end = 0
            for k in which:
                out[k] = texts[end:end + len(arrays[k])]
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


def _whole_groups(v: np.ndarray, out: np.ndarray) -> None:
    """Decimal text of uint64s into out's 4-byte groups, right-aligned,
    leading zeros NUL and 0 printed as "0"."""
    groups = _groups()
    n = out.shape[1]
    for k in range(n - 1, -1, -1):
        q = v // 10000
        index = (v - q * 10000).astype(np.int64)
        index += (q == 0) * (_UNITS if k == n - 1 else _NO_LEAD)
        np.take(groups, index, out=out[:, k])
        v = q


def _whole_text(mag: np.ndarray, neg: np.ndarray, tail: int) -> np.ndarray:
    """Decimal text of uint64s, after a minus where neg, right-aligned in
    a byte matrix's first columns; tail NUL columns follow."""
    sign = int(neg.any())
    n_digits = len(str(int(mag.max(initial=0))))
    lead = -n_digits % 4  # the first group's leading columns, NUL in every row
    full = np.zeros((len(mag), sign + lead + n_digits + tail), dtype=np.uint8)
    _whole_groups(mag, full[:, sign:sign + lead + n_digits].view(np.uint32))
    out = full[:, lead:]
    if sign:  # the column before the first digit's, NUL wherever not neg
        out[:, 0] = neg * _MINUS
    return out


def _int_text(values: np.ndarray) -> np.ndarray:
    """Decimal text of int64 values (or bools as 0 and 1) as a byte matrix."""
    v = values.astype(np.int64)
    neg = v < 0
    mag = np.where(neg, 0 - v, v).view(np.uint64)  # -2**63 wraps to 2**63
    return _whole_text(mag, neg, 0)


def _frac_groups(hi: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """Digits of hi * 10**12 + lo into out's 4-byte groups, left-aligned to
    the first, trailing zeros NUL and 0 printed as "0"."""
    groups = _groups()
    n = out.shape[1]
    zeros_right = np.ones(len(lo), dtype=bool)  # every group to the right is zeros
    v = lo
    for k in range(n - 1, -1, -1):
        if k == n - 4:
            v = hi
        q = v // 10000
        r = v - q * 10000
        np.take(groups, r + zeros_right * (_FIRST if k == 0 else _NO_TRAIL), out=out[:, k])
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


def _float_text(x: np.ndarray) -> np.ndarray:
    """repr of each float64 as a byte matrix, NUL-padded."""
    m, s, ok = _shortest(x)
    m[~ok], s[~ok] = 0, 1
    whole, frac = np.divmod(m, _INT_POW10[np.minimum(s, 18)])  # m < 10**18
    # the fraction, left-aligned in the 4 * n_frac digits of its groups (up
    # to 20, more than an int64 holds), is hi * 10**12 + lo
    s_max = int(s.max(initial=1))
    n_frac = -(-s_max // 4)
    shift = 4 * n_frac - s
    hi, lo = np.divmod(frac, _INT_POW10[np.maximum(12 - shift, 0)])
    hi *= _INT_POW10[np.maximum(shift - 12, 0)]
    lo *= _INT_POW10[np.minimum(shift, 12)]
    slow = [repr(v) for v in x[~ok].tolist()]
    longest = max(map(len, slow), default=0)
    tail = max(1 + 4 * n_frac, longest)  # room for a row's repr
    out = _whole_text(whole.view(np.uint64), np.signbit(x) & ok, tail)
    point = out.shape[1] - tail
    out[:, point] = _POINT
    _frac_groups(hi, lo, out[:, point + 1:point + 1 + 4 * n_frac].view(np.uint32))
    # the columns past the longest text hold NUL in every row
    width = max(point + 1 + s_max, longest)
    out = out[:, :width]
    if slow:
        out[~ok] = np.array(slow, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out
