"""Text of float64 arrays, byte for byte what ``repr`` writes for each value.

The snapshot CSVs hold one shortest round-trip ``repr`` per cell, so they
parse back bit for bit.  ``repr`` formats one Python float at a time; this
module formats whole arrays with numpy.

Shortest digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), as in the JDK's ``DoubleToDecimal``.  Round-to-odd
products of the scaled significand with g (10**-k times a power of two,
rounded up to 126 bits), done in ``uint64`` arithmetic on 32-bit limbs, give
s = floor(v * 10**-k) and the two ends of the rounding interval.  The result
is s or s + 1, or the one-digit shorter 10*floor(s/10) or that plus 10.
Integers below 2**53 keep their own digits.  Python's ``repr`` has no
two-digit minimum, so two steps of the JDK are changed: subnormals with a
significand below 3 are not rescaled by 10, and the shorter candidate is
tried from s >= 10 on, not from s >= 100 (which would give 4.9e-323 for
5e-323).

The digits are laid out as Python's ``'r'`` format: trailing zeros
stripped; exponent form iff the decimal point sits at <= -4 or > 16, with a
signed exponent of at least two digits (``1e-05``, ``1e+16``); ``.0`` after
integral values; ``-0.0``, ``nan``, ``inf`` and ``-inf`` as ``repr`` writes
them.  Each value fills one ``WIDTH``-byte row padded with NUL bytes.  Rows
with the same decimal-point position share one layout (as do all rows in
exponent form), so a block is sorted into runs of one layout and digits are
placed by slicing.  Rows become text by dropping every NUL.

Arrays are formatted in equal blocks of at most ``BLOCK`` = 4096 values.
That keeps each ``uint64`` temporary in cache and below 128 KiB, so the
blocks reuse heap memory rather than fault in fresh pages; 8192-value blocks
ran slower inside a full run.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BLOCK", "WIDTH", "csv_lines", "repr_rows"]

BLOCK = 4096
WIDTH = 24
_LINES = 1024  # lines per CSV chunk: a 75 KiB frame for three columns

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292
_NDIG = 18  # s + 1 and 10*floor(s/10) + 10 stay below 10**18


def _flog2pow10(e):
    """floor(e * log2(10)), exact for the exponents a double needs."""
    return (e * 913124641741) >> 38


def _g_table():
    """g = floor(10**-k * 2**-r) + 1 with 2**125 <= g < 2**126, split at bit 63."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            p = 10**-k
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        hi.append(g >> 63)
        lo.append(g & ((1 << 63) - 1))
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


_G1, _G0 = _g_table()
# g1 and the 32-bit limbs of g1 and g0, one row each, gathered in one take
_G_ROWS = np.stack((_G1, _G1 >> 32, _G1 & _M32, _G0 >> 32, _G0 & _M32))
_POW10 = np.array([10**j for j in range(_NDIG + 1)], dtype=np.uint64)
# the four ASCII digits of 0 .. 9999, as little-endian uint32
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
_QUADS = _QUADS.view("<u4")[:, 0]


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of a * b from 32-bit limbs, for a < 2**63 and b < 2**60.

    With these bounds the three cross sums fit in one uint64 without carries.
    """
    mid = ((a_lo * b_lo) >> 32) + a_hi * b_lo + a_lo * b_hi
    return a_hi * b_hi + (mid >> 32)


def _rop(g1, limbs, cp):
    """Round-to-odd of g * cp / 2**127, g = g1 * 2**63 + g0 (the JDK's rop)."""
    g1_hi, g1_lo, g0_hi, g0_lo = limbs
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """Shortest decimal f * 10**e of finite nonzero doubles given as raw bits."""
    bq = ((bits >> 52) & 0x7FF).astype(np.int64)
    t = bits & ((1 << 52) - 1)
    c = t | ((bq != 0).astype(np.uint64) << 52)
    q = np.maximum(bq, 1) - 1075

    # at an exact power of two the gap below is half the gap above, and
    # k = floor(log10(3/4 * 2**q)) instead of floor(q * log10(2))
    irregular = ((t == 0) & (bq > 1)).astype(np.int64)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # 2 <= h <= 5
    g1, *limbs = np.take(_G_ROWS, k - _K_MIN, axis=1)
    # the value and the two ends of its rounding interval, times 4 * 10**-k
    cb = c << 2
    cbl = cb - 2 + irregular.astype(np.uint64)
    vb, vbl, vbr = _rop(g1, limbs, np.stack((cb, cbl, cb + 2)) << h)
    # round-half-even parsing keeps the interval's ends only for an even c
    out = c & 1
    vbl += out
    vbr -= out

    s = vb >> 2
    # s or s + 1: the one inside the rounding interval, else the closer,
    # else the even one
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    closer = vb + (s & 1) <= (s << 2) + 2
    f = s + 1 - np.where(uin != win, uin, closer).astype(np.uint64)
    # one digit shorter when exactly one of its two candidates is inside;
    # from s >= 10 on, as repr has no two-digit minimum
    tp10 = (s // 10) * 10 + 10
    upin = vbl <= (tp10 - 10) << 2
    wpin = tp10 << 2 <= vbr
    f = np.where((s >= 10) & (upin != wpin), tp10 - upin * np.uint64(10), f)

    # integers below 2**53 are their own shortest digits
    mq = ((1075 - bq) & 63).astype(np.uint64)
    whole = c >> mq
    fast = (bq >= 1023) & (bq < 1075) & ((whole << mq) == c)
    return np.where(fast, whole, f), np.where(fast, 0, k)


# row layouts, one per sort key: the decimal point's position + 4 for the
# positional form (-3 .. 16), and four more
_EXP_FORM, _ZERO, _INF, _NAN = 0, 21, 22, 23
_SPECIAL_TEXT = {_ZERO: b"0.0", _INF: b"inf", _NAN: b"nan"}
_DIGIT_ROW = np.arange(_NDIG, dtype=np.uint8)[:, None]
_ONE_BITS = np.uint64(0x3FF0000000000000)
# signed exponents of at least two digits, one column each, NUL padded to 4
_EXP_MIN = -324
_EXPONENTS = np.array([
    list((b"+" if x >= 0 else b"-") + (b"%02d" % abs(x)).rjust(3, b"\0"))
    for x in range(_EXP_MIN, 309)
], dtype=np.uint8).T.copy()


def _block_rows(values: np.ndarray) -> np.ndarray:
    """repr rows of one block; built transposed, one byte row per text column."""
    n = values.size
    bits = values.view(np.uint64)
    top = (bits >> 52) & 0x7FF
    zero = (bits << 1) == 0
    inf = (top == 0x7FF) & ((bits << 12) == 0)
    nan = (top == 0x7FF) & ~inf
    minus = ((bits >> 63) == 1) & ~nan
    f, e = _shortest(np.where(zero | (top == 0x7FF), _ONE_BITS, bits))

    # 18 digits from four-digit groups, then the rows sorted by layout, where
    # the digits are transposed and their trailing zeros turned into NULs
    length = np.searchsorted(_POW10, f, side="right")
    point = e + length
    f = f * np.take(_POW10, _NDIG - length)
    quads = np.empty((n, 5), dtype="<u4")
    for j in range(4, 0, -1):
        q = f // 10000
        quads[:, j] = np.take(_QUADS, f - q * 10000)
        f = q
    quads[:, 0] = np.take(_QUADS, f)

    key = np.where((point <= -4) | (point > 16), _EXP_FORM, point + 4).astype(np.uint8)
    key[zero] = _ZERO
    key[inf] = _INF
    key[nan] = _NAN
    order = np.argsort(key, kind="stable")
    key = np.take(key, order)
    point = np.take(point, order)
    ascii = np.ascontiguousarray(np.take(quads, order, axis=0).view(np.uint8)[:, 2:].T)
    n_digits = ((ascii != ord("0")) * (_DIGIT_ROW + np.uint8(1))).max(axis=0)
    padded = ascii * (_DIGIT_ROW < n_digits)

    rows = np.zeros((WIDTH, n), dtype=np.uint8)
    rows[0] = np.take(minus, order) * np.uint8(ord("-"))
    bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), n]):
        kind = int(key[lo])
        out, src = rows[:, lo:hi], padded[:, lo:hi]
        if kind == _EXP_FORM:
            out[1] = src[0]
            out[2] = (n_digits[lo:hi] > 1) * np.uint8(ord("."))
            out[3:19] = src[1:17]
            out[19] = ord("e")
            out[20:24] = np.take(_EXPONENTS, point[lo:hi] - 1 - _EXP_MIN, axis=1)
        elif kind >= _ZERO:
            out[1:4] = np.frombuffer(_SPECIAL_TEXT[kind], np.uint8)[:, None]
        elif kind > 4:
            d = kind - 4  # digits before the point
            # zeros before the point are digits, and an integral value ends in .0
            np.maximum(src[:d], ord("0"), out=out[1:d + 1])
            out[d + 1] = ord(".")
            np.maximum(src[d], ord("0"), out=out[d + 2])
            out[d + 3:19] = src[d + 1:17]
        else:
            zeros = 4 - kind  # after the point, before the first digit
            out[1:3 + zeros] = ord("0")
            out[2] = ord(".")
            out[3 + zeros:20 + zeros] = src[:17]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return np.take(rows.T, inverse, axis=0)


def repr_rows(values) -> np.ndarray:
    """(n, WIDTH) uint8 rows: ``repr`` of each value, padded with NUL bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    rows = np.empty((n, WIDTH), dtype=np.uint8)
    # equal blocks of at most BLOCK values
    size = max(1, -(-n // max(1, -(-n // BLOCK))))
    for start in range(0, n, size):
        rows[start:start + size] = _block_rows(values[start:start + size])
    return rows


def csv_lines(*columns: np.ndarray) -> Iterator[bytes]:
    """CSV text of row arrays side by side, in chunks of whole lines.

    Each column is an (n, w) uint8 array such as ``repr_rows`` returns.  Cells
    are joined by commas, lines end in a newline and every NUL is dropped.
    """
    n = columns[0].shape[0]
    for start in range(0, n, _LINES):
        cells = [col[start:start + _LINES] for col in columns]
        width = sum(cell.shape[1] + 1 for cell in cells)
        frame = np.empty((cells[0].shape[0], width), dtype=np.uint8)
        end = 0
        for cell in cells:
            frame[:, end:end + cell.shape[1]] = cell
            end += cell.shape[1] + 1
            frame[:, end - 1] = ord(",")
        frame[:, -1] = ord("\n")
        # translate drops the NULs in one pass; replace searches anew for each
        yield frame.tobytes().translate(None, b"\0")
