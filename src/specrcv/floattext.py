"""Shortest round-trip text of float64 tables, vectorized: the CSV body of a panel.

``csv_chunks(table)`` yields the body of a 2-D float64 table a few whole rows
at a time, byte-identical to ``",".join(map(repr, row)) + "\\n"`` for every
row. It finds ``repr``'s digits with NumPy, exactly, in the spirit of Ryu
(Adams 2018, PLDI), using Dekker's (1971) error-free products, and hands to
``repr`` itself every cell it cannot vouch for.

For |x| = m 2^e with a 53-bit m:

- Estimate q = floor(log10 |x|) and let k = 16 - q. 10^k is an exact double
  for k <= 22, so Dekker's TwoProduct writes P = |x| 10^k exactly as
  ``hi + lo``. Requiring 1e16 < hi < 1e17 also validates the estimate of q.
- Every decimal in [P - H, P + H], H = 2^(e-1) 10^k (exact), parses back to
  x; the ends belong to it iff m is even (round half to even). TwoSum and an
  exact floor give its integer bounds L <= U.
- ``repr`` prints the multiple of 10^J in [L, U] for the largest such J.
  The interval is at most 22 wide, so for J >= 2 that multiple is unique; for
  J <= 1 it is the one of the two multiples around P nearer to P.
- Digits are laid out by ``repr``'s rules: positional for decimal exponents
  -4 to 15, else ``d.ddde-05``.

These cells go to ``repr``: zero, subnormal and non-finite cells, cells whose
m is a power of two (the interval is not symmetric there), |x| outside
[1e-6, 1e16), an exact tie between the two nearest multiples, and a
candidate outside [L, U].
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Cells formatted per chunk. A chunk's temporaries take about 7 MB, and on a
# 2-CPU x86-64 host 16k cells ran fastest: 8k and 32k were 4-12 % slower.
CHUNK_CELLS = 16_384

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_FRACTION_BITS = np.uint64((1 << 52) - 1)
_LOWEST, _HIGHEST = 1e-6, 1e16
_EXPONENTS = range(-6, 16)  # decimal exponents of the cells that do not go to repr
_DIGITS = 17

# Each cell's source row: digits 2 to 17 of its decimal as four 4-digit words,
# the leading digit, these characters, then the cell's separator.
_CHARS = b"-.e+0123456789"
_DIGIT_COLUMNS = (16, *range(16))
_MINUS, _DOT, _E, _PLUS, _ZERO = (_DIGITS + _CHARS.index(c) for c in b"-.e+0")
_SEPARATOR = _DIGITS + len(_CHARS)
_ROW = _SEPARATOR + 1
_WIDTH = 25  # the longest repr of a float64 is 24 characters


def _layout(negative: bool, exponent: int, digits: int) -> list[int]:
    """Source columns of ``repr``'s text for a cell with ``digits`` significant
    digits and this decimal exponent, followed by its separator."""
    column = _DIGIT_COLUMNS
    if -4 <= exponent < 0:
        text = [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + [*column[:digits]]
    elif 0 <= exponent < 16:
        # Digits past the significant ones are zeros; "ddd.0" keeps one.
        text = [*column[:exponent + 1], _DOT, *column[exponent + 1:max(digits, exponent + 2)]]
    else:
        text = [column[0]] + ([_DOT, *column[1:digits]] if digits > 1 else [])
        text += [_E, _MINUS if exponent < 0 else _PLUS,
                 _ZERO + abs(exponent) // 10, _ZERO + abs(exponent) % 10]
    return [_MINUS] * negative + text + [_SEPARATOR]


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Every layout as a row of source columns, padded to ``_WIDTH``, and its length."""
    rows = [_layout(negative, exponent, digits) for negative in (False, True)
            for exponent in _EXPONENTS for digits in range(1, _DIGITS + 1)]
    columns = np.full((len(rows), _WIDTH), _SEPARATOR, dtype=np.intp)
    for row, layout in zip(columns, rows):
        row[:len(layout)] = layout
    return columns, np.array([len(layout) for layout in rows])


_LAYOUTS, _LENGTHS = _layouts()
# The four ASCII digits of every integer below 10^4, as one 4-byte word each.
_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _two_product(a, b):
    """hi, lo with hi = fl(a b) and hi + lo = a b exactly (Dekker)."""
    hi = a * b
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = _SPLITTER * b
    b_hi = split - (split - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _floor_of_sum(a, b):
    """floor(a + b) as int64, and whether a + b is an integer, exactly.

    (s, t) is TwoSum(a, b): s = fl(a + b), s + t = a + b. With |s| < 2^52,
    an integer lies at least ulp(s) from a non-integer s and |t| <= ulp(s)/2,
    so only an integer s can have its floor moved by t.
    """
    s = a + b
    v = s - a
    t = (a - (s - v)) + (b - v)
    floor = np.floor(s)
    whole = s == floor
    return floor.astype(np.int64) - (whole & (t < 0)), whole & (t == 0)


def _shortest(magnitude, bits):
    """``repr``'s digits of each magnitude in [1e-6, 1e16) whose fraction bits
    are not all zero: an integer c in [1e16, 1e17] worth c 10^(q - 16), the
    exponent q, how many trailing digits J of c are zeros, and whether the
    result is vouched for."""
    q = np.clip(np.floor(np.log10(magnitude)), -6, 16).astype(np.int64)
    scale = _POW10[16 - q]
    hi, lo = _two_product(magnitude, scale)
    ok = (hi > 1e16) & (hi < 1e17)
    hi = hi.astype(np.int64)  # below 1e18 even where the estimate of q is off
    # Half an ulp of x, times 10^k: 2^(biased exponent - 1075 - 1) 10^k.
    half = np.ldexp(scale, (bits >> 52).astype(np.int32) - 1076)
    closed = (bits & 1) == 0
    floor, whole = _floor_of_sum(lo, -half)
    low = hi + floor + 1 - (whole & closed)
    floor, whole = _floor_of_sum(lo, half)
    high = hi + floor - (whole & ~closed)
    # J is monotone, as a multiple of 10^(j+1) is a multiple of 10^j. For J >= 2
    # the multiple of 10^J in [L, U] is unique.
    zeros = np.zeros(hi.size, dtype=np.int64)
    decimal = np.empty_like(hi)
    live = np.flatnonzero(ok)
    for j in range(1, _DIGITS + 1):
        multiple = high[live] // _POW10_INT[j] * _POW10_INT[j]
        inside = multiple >= low[live]
        live = live[inside]
        if not live.size:
            break
        zeros[live] = j
        decimal[live] = multiple[inside]
    # J <= 1: of the two multiples c0 < P < c0 + step around P = hi + lo, the
    # nearer one; P - c0 < step/2 compares lo with a small half-integer, exactly.
    tens = zeros == 1
    below = hi + np.floor(lo).astype(np.int64)
    below -= np.where(tens, below % 10, 0)
    step = np.where(tens, 10, 1)
    middle = step / 2 - (hi - below)
    near = zeros <= 1
    decimal[near] = np.where(lo < middle, below, below + step)[near]
    ok &= ~near | (lo != middle)
    ok &= (low <= decimal) & (decimal <= high)
    return decimal, q, zeros, ok


def _format(block: np.ndarray) -> tuple[bytes, int]:
    """The CSV rows of ``block`` and how many of its cells went to ``repr``."""
    cells = block.ravel()
    count = cells.size
    magnitude = np.abs(cells)
    bits = magnitude.view(np.uint64)
    fast = (magnitude >= _LOWEST) & (magnitude < _HIGHEST) & (bits & _FRACTION_BITS != 0)
    # Any cell in the domain stands in for the others, whose text is replaced below.
    magnitude = np.where(fast, magnitude, 1.5)
    decimal, q, zeros, ok = _shortest(magnitude, magnitude.view(np.uint64))
    # c = 10^17 is the one-digit decimal 10^(q + 1).
    top = decimal == _POW10_INT[17]
    exponent = q + top
    lead, rest = np.divmod(np.where(top, _POW10_INT[16], decimal), _POW10_INT[16])
    ok &= fast & (exponent <= _EXPONENTS[-1])
    source = np.empty((count, _ROW), dtype=np.uint8)
    groups = np.empty((count, 4), dtype=np.int64)
    upper, lower = np.divmod(rest, 10 ** 8)
    groups[:, 0], groups[:, 1] = np.divmod(upper, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(lower, 10 ** 4)
    source.view(np.uint32)[:, :4] = _QUADS[groups]
    source[:, _DIGIT_COLUMNS[0]] = lead + ord("0")
    source[:, _DIGITS:_SEPARATOR] = np.frombuffer(_CHARS, dtype=np.uint8)
    source[:, _SEPARATOR] = ord(",")
    source[block.shape[1] - 1::block.shape[1], _SEPARATOR] = ord("\n")
    layout = ((np.signbit(cells) * len(_EXPONENTS)
               + np.clip(exponent, _EXPONENTS[0], _EXPONENTS[-1]) - _EXPONENTS[0]) * _DIGITS
              + np.maximum(_DIGITS - zeros, 1) - 1)
    columns = _LAYOUTS[layout]
    columns += np.arange(0, count * _ROW, _ROW)[:, None]
    text = source.ravel()[columns]
    lengths = _LENGTHS[layout]
    others = np.flatnonzero(~ok)
    if others.size:
        words = [repr(x) for x in cells[others].tolist()]
        text[others] = np.array(words, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
        sizes = np.array([len(word) for word in words])
        text[others, sizes] = source[others, _SEPARATOR]
        lengths[others] = sizes + 1
    return text[np.arange(_WIDTH) < lengths[:, None]].tobytes(), others.size


def csv_chunks(table: np.ndarray) -> Iterator[tuple[bytes, int]]:
    """The CSV body of a 2-D float64 table, in chunks of whole rows.

    Each chunk is the text of at most ``CHUNK_CELLS`` cells (at least one
    row), and comes with the number of its cells that went to ``repr``.
    """
    rows, width = table.shape
    step = max(1, CHUNK_CELLS // width)
    for start in range(0, rows, step):
        yield _format(np.asarray(table[start:start + step], dtype=np.float64))
