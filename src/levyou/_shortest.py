"""CSV rows of float64 columns, each value written exactly as `repr(float(v))`.

`write_rows` writes the rows BLOCK_ROWS (8192) at a time.  `repr` of a float
is the shortest decimal string that reads back as the same double, and of
those the nearest to it; it costs about a microsecond per value.  Here the
digits come from Ryu (Ulf Adams, "Ryu: fast float-to-string conversion",
PLDI 2018), which finds the same digits with fixed-width integer arithmetic,
so it runs over whole uint64 arrays.  The values of a block then get
`repr`'s positional layout (`0.000ddd`, `ddd.ddd`, sign) one character
position at a time, as rows of a uint8 matrix, which is compressed to one
string per block.

Only Ryu's common case is computed, and only where `repr` is positional.  A
value takes the fast path when it is finite, 1e-4 <= |v| < 2**50, and its
scaled value mv * 2**e2 is not a whole number of Ryu's first digit units
(Ryu's `vrIsTrailingZeros` is false; `vmIsTrailingZeros` is always false
there).  In that range Ryu's multiplier 5**i has at most 52 bits, so its
product with the 55-bit mv is computed exactly from 32-bit halves.  Every
other value, such as +-0.0, nan, inf, |v| < 1e-4 or >= 2**50, and dyadic
rationals like 0.5, is written by `repr` itself, so the output is `repr`'s
by construction.  tests/test_shortest.py checks it against `repr`.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["BLOCK_ROWS", "write_rows"]

# Rows per block of `write_rows`.
BLOCK_ROWS = 8192

# Biased exponents of [2**-14, 2**50), which holds the fast range
# [1e-4, 2**50).  Ryu's e2 there is in [-68, -5], so its q is at least 2.
_EXP_LO, _EXP_HI = 1009, 1072
# Longest fast-path text without its sign: "0." and 20 fraction digits.
_TEXT = 22
_LOW32 = np.uint64(0xFFFFFFFF)


@cache
def _tables():
    """Per-exponent tables, built from Python ints on first use.

    For the biased exponent `exp` of the fast range, e2 = exp - 1077,
    q = floor(log10(5**-e2)) - 1 and i = -e2 - q, so floor(mv * 5**i / 2**q)
    is mv * 2**e2 in units of 10**e10, e10 = q + e2; `frac` is -e10.
    |v| in [2**(exp-1023), 2**(exp-1022)) has `ints` integer digits, one
    more from `step`, the power of ten inside that range (+inf if none).
    Other exponents get harmless entries; their values are written by repr."""
    q = np.full(2048, 2, dtype=np.uint64)
    pow5 = np.ones(2048, dtype=np.uint64)
    frac = np.zeros(2048, dtype=np.uint8)
    ints = np.zeros(2048, dtype=np.uint8)
    step = np.full(2048, np.inf)
    for exp in range(_EXP_LO, _EXP_HI + 1):
        e2 = exp - 1077
        qe = len(str(5 ** -e2)) - 2
        q[exp] = qe
        pow5[exp] = 5 ** (-e2 - qe)
        frac[exp] = -(qe + e2)
        if exp >= 1023:
            low = 2 ** (exp - 1023)
            ints[exp] = len(str(low))
            if 10 ** ints[exp] < 2 * low:
                step[exp] = 10.0 ** ints[exp]
    pow10 = np.array([10 ** d for d in range(20)], dtype=np.uint64)
    # the least remainder that rounds up when d digits are dropped (none at 0)
    half = np.array([2 ** 64 - 1] + [5 * 10 ** (d - 1) for d in range(1, 20)],
                    dtype=np.uint64)
    return q, pow5, frac, ints, step, pow10, half


class _Scratch:
    """Named work arrays, reused from block to block.

    A fresh array of a block's size is mapped anew by the allocator, and the
    page faults of its first touch cost more than the arithmetic on it."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def __call__(self, name, shape, dtype=np.uint64):
        dtype = np.dtype(dtype)
        shape = shape if isinstance(shape, tuple) else (shape,)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._bufs.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._bufs[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def _shortest_digits(x, w):
    """Ryu's shortest digits of x (float64, 1-D), in arrays of the scratch w.

    Returns (ok, digits, frac, length).  Where ok is true, repr(float(x)) is
    positional with `length` characters besides its sign: the digits of the
    integer `digits`, padded with leading zeros to at least frac + 1 digits,
    with the decimal point before the last `frac` (at least one)."""
    n = x.size
    q_tab, pow5_tab, frac_tab, ints, step, pow10, half = _tables()
    bits = x.view(np.uint64)
    flag = w("flag", n, bool)
    ax = np.abs(x, out=w("ax", n, np.float64))
    ok = np.greater_equal(ax, 1e-4, out=w("ok", n, bool))
    ok &= np.less(ax, 2.0 ** 50, out=flag)
    exp = np.right_shift(bits, np.uint64(52), out=w("exp", n)).view(np.int64)
    exp &= 0x7FF
    q = q_tab.take(exp, out=w("q", n), mode="clip")
    b = pow5_tab.take(exp, out=w("b", n), mode="clip")
    t = w("t", n)
    # c = (1 + mmShift) * b, where mmShift = 0 only at a power of two
    a0 = np.bitwise_and(bits, np.uint64((1 << 52) - 1), out=w("a0", n))
    c = np.left_shift(b, np.not_equal(a0, 0, out=flag), out=w("c", n))
    # mv = 4*m2 (55 bits) times b = 5**i (at most 52 bits), from 32-bit
    # halves, as the 64-bit words hi and lo
    a0 |= np.uint64(1 << 52)
    a0 <<= np.uint64(2)
    a1 = np.right_shift(a0, np.uint64(32), out=w("a1", n))
    a0 &= _LOW32
    b1 = np.right_shift(b, np.uint64(32), out=w("b1", n))
    np.bitwise_and(b, _LOW32, out=t)
    lo = np.multiply(a0, t, out=w("lo", n))
    t *= a1
    mid = a0
    mid *= b1
    mid += t
    np.right_shift(lo, np.uint64(32), out=t)
    mid += t
    lo &= _LOW32
    np.left_shift(mid, np.uint64(32), out=t)
    lo |= t
    hi = a1
    hi *= b1
    mid >>= np.uint64(32)
    hi += mid
    # vr = floor(mv*b / 2**q) and r = mv*b mod 2**q; r = 0 exactly when mv
    # has q trailing zero bits (Ryu's vrIsTrailingZeros)
    np.subtract(np.uint64(64), q, out=t)
    vr = hi
    vr <<= t
    np.right_shift(lo, q, out=t)
    vr |= t
    t <<= q
    r = lo
    r -= t
    ok &= np.not_equal(r, 0, out=flag)
    # vp = floor((mv + 2)*b / 2**q) and vm = floor((mv - 1 - mmShift)*b
    # / 2**q), the latter by an arithmetic shift of the signed r - c
    vp = b
    vp <<= np.uint64(1)
    vp += r
    vp >>= q
    vp += vr
    vm = r
    vm -= c
    np.right_shift(vm.view(np.int64), q.view(np.int64), out=vm.view(np.int64))
    vm += vr
    # Drop the most digits d with vp // 10**d > vm // 10**d; that holds for
    # every d up to the largest, so binary decomposition finds it.
    removed = w("removed", n, np.uint8)
    removed[:] = 0
    step_d = w("step_d", n, np.uint8)
    qm = c
    for d in (16, 8, 4, 2, 1):
        scale = np.uint64(10 ** d)
        np.floor_divide(vp, scale, out=t)
        np.floor_divide(vm, scale, out=qm)
        np.greater(t, qm, out=flag)
        np.copyto(vp, t, where=flag)
        np.copyto(vm, qm, where=flag)
        removed += np.multiply(flag.view(np.uint8), np.uint8(d), out=step_d)
    # Round up when the last digit dropped is 5 or more, or when the kept
    # digits fall on the excluded vm.
    ridx = w("ridx", n, np.intp)
    ridx[:] = removed
    scale = pow10.take(ridx, out=t, mode="clip")
    digits = np.floor_divide(vr, scale, out=w("digits", n))
    scale *= digits
    vr -= scale
    up = np.greater_equal(vr, half.take(ridx, out=t, mode="clip"), out=flag)
    up |= np.equal(digits, vm, out=w("up", n, bool))
    digits += up
    frac = frac_tab.take(exp, out=w("frac", n, np.uint8), mode="clip")
    ok &= np.greater(frac, removed, out=flag)
    frac -= removed
    # integer digits (at least one), the point, and the fraction digits
    length = ints.take(exp, out=w("length", n, np.uint8), mode="clip")
    length += np.greater_equal(ax, step.take(exp, out=w("step", n, np.float64), mode="clip"),
                               out=flag)
    np.maximum(length, 1, out=length)
    length += frac
    length += np.uint8(1)
    return ok, digits, frac, length


def _digit_rows(digits, nrows, w):
    """ASCII decimal digits of `digits` (< 10**17), digit k from the right
    in row k, for k < nrows."""
    n = digits.size
    # 8-digit words in uint32: digits = (top*10**8 + words[1])*10**8 + words[0]
    hi = np.floor_divide(digits, np.uint64(10 ** 8), out=w("dig_hi", n))
    low = np.multiply(hi, np.uint64(10 ** 8), out=w("dig_low", n))
    words = w("words", (2, n), np.uint32)
    np.subtract(digits, low, out=words[0], casting="unsafe")
    top = np.floor_divide(hi, np.uint64(10 ** 8), out=low)
    hi -= top * np.uint64(10 ** 8)
    words[1] = hi
    # 2-digit pairs of each word in uint8, then tens and ones of each pair
    pairs = w("pairs", (2, 4, n), np.uint8)
    rest = w("rest", (2, n), np.uint32)
    for i in range(3):
        np.floor_divide(words, np.uint32(100), out=rest)
        np.subtract(words, rest * np.uint32(100), out=pairs[:, i], casting="unsafe")
        words, rest = rest, words
    pairs[:, 3] = words
    rows = w("rows", (max(nrows, 17), n), np.uint8)
    digit = rows[:16].reshape(2, 4, 2, n)
    np.floor_divide(pairs, np.uint8(10), out=digit[:, :, 1])
    np.multiply(digit[:, :, 1], np.uint8(10), out=digit[:, :, 0])
    np.subtract(pairs, digit[:, :, 0], out=digit[:, :, 0])
    rows[16] = top
    rows[:17] += np.uint8(ord("0"))
    rows[17:] = ord("0")
    return rows[:nrows]


def _layout(out, digits, frac, length, w):
    """Write into out[j] the character j from the right of each positional
    text: `digits` with `frac` fraction digits, padded with leading zero
    digits to `length` characters, and zero bytes beyond it."""
    nrows, n = out.shape
    rows = _digit_rows(digits, nrows, w)
    pos = np.arange(nrows, dtype=np.uint8)[:, None]
    flag = w("flag2", (nrows, n), bool)
    text = w("text", (nrows, n), np.uint8)
    tmp = w("tmp", (nrows, n), np.uint8)
    # pos < frac: fraction digit pos; pos > frac: integer digit pos - 1
    np.less(pos, frac, out=flag)
    text[0] = rows[0]
    np.subtract(rows[1:], rows[:-1], out=text[1:])
    text[1:] *= flag[1:].view(np.uint8)
    text[1:] += rows[:-1]
    # pos = frac: the point
    np.equal(pos, frac, out=flag)
    np.subtract(np.uint8(ord(".")), text, out=tmp)
    tmp *= flag.view(np.uint8)
    text += tmp
    np.multiply(text, np.less(pos, length, out=flag), out=out)


def _format_block(cols, w) -> str:
    """CSV text of the rows of `cols`, equal-length float64 arrays, using
    the scratch w: every value as repr(float(v)), fields joined by ',' and
    each row ended by a newline."""
    k = len(cols)
    x = w("x", (cols[0].size, k), np.float64)
    for i, c in enumerate(cols):
        x[:, i] = c
    x = x.reshape(-1)
    n = x.size
    # Only a value with 1e-4 <= |v| < 2**50 and a fraction can take the fast
    # path.  A block with none (zeros, integers, tiny tails) is all repr,
    # and the vector stages would only add to its cost.
    ax = np.abs(x, out=w("ax", n, np.float64))
    with np.errstate(invalid="ignore"):  # a signalling NaN payload is no error here
        whole = np.floor(ax, out=w("whole", n, np.float64))
    if not ((ax >= 1e-4) & (ax < 2.0 ** 50) & (ax != whole)).any():
        return "".join(",".join(map(repr, row)) + "\n" for row in x.reshape(-1, k).tolist())
    ok, digits, frac, length = _shortest_digits(x, w)
    rest = np.flatnonzero(~ok)
    slow = [repr(v).encode() for v in x[rest].tolist()]
    # A value's field holds its text right-aligned after zero bytes, and a
    # '-' in its first byte, which a negative value leaves free; then comes
    # the separator.  Field bytes are the rows of m, values its columns.
    neg = np.signbit(x, out=w("neg", n, bool))
    wide = np.add(length, neg, out=w("wide", n, np.uint8))
    wide *= ok
    width = max([int(wide.max(initial=0))] + [len(s) for s in slow])
    m = w("m", (width + 1, n), np.uint8)
    used = min(width, _TEXT)
    m[:width - used] = 0
    _layout(m[width - used:width][::-1], digits, frac, length, w)
    m[0] += np.multiply(neg, np.uint8(ord("-")), out=wide)
    m[width] = ord(",")
    m[width, k - 1::k] = ord("\n")
    if slow:
        m[:width, rest] = np.array(slow, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T
    return m.T.tobytes(order="C").translate(None, b"\0").decode("ascii")


def write_rows(fileobj, columns) -> None:
    """Write the rows of `columns` (equal-length arrays, read as float64) to
    the text file `fileobj` as CSV: every value as repr(float(v)), fields
    joined by ',' and each row ended by a newline.  Rows are formatted and
    written BLOCK_ROWS at a time, so no string of the whole file is built."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    scratch = _Scratch()
    for lo in range(0, cols[0].size, BLOCK_ROWS):
        fileobj.write(_format_block([c[lo:lo + BLOCK_ROWS] for c in cols], scratch))
