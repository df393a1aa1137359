"""CSV rows of float64 columns, each value written exactly as `repr(float(v))`.

A `RowWriter` writes the rows BLOCK_ROWS (8192) at a time.  `repr` of a float
is the shortest decimal string that reads back as the same double, and of
those the nearest to it; it costs about a microsecond per value.  Here the
digits come from Ryu (Ulf Adams, "Ryu: fast float-to-string conversion",
PLDI 2018), which finds the same digits with fixed-width integer arithmetic,
so it runs over whole uint64 arrays.  A block is laid out column by column:
the values of all its columns go through Ryu together, and get `repr`'s
positional layout (`0.000ddd`, `ddd.ddd`, sign) one character position at a
time, as rows of a uint8 matrix.  Each column then fills the fields of its
own width in a row-major matrix of the block's rows, whose zero bytes are
deleted to give the block's text.

Only Ryu's common case is computed, and only where `repr` is positional.  A
value takes the fast path when it is finite, 1e-4 <= |v| < 2**50, and its
scaled value mv * 2**e2 is not a whole number of Ryu's first digit units
(Ryu's `vrIsTrailingZeros` is false; `vmIsTrailingZeros` is always false
there).  In that range Ryu's multiplier 5**i has at most 52 bits, so its
product with the 55-bit mv is computed exactly from 32-bit halves.  Every
other value, such as +-0.0, nan, inf, |v| < 1e-4 or >= 2**50, and dyadic
rationals like 0.5, is written by `repr` itself, so the output is `repr`'s
by construction.  tests/test_shortest.py checks it against `repr`.

A writer lives for one command (`simulate`, `density`).  Its work arrays,
about 100 bytes per value of a block besides the block's text, live for one
file and are reused from block to block.  Between files it keeps the field
bytes of the last file's first column: a file whose first column has the
same bits as the last one's (the time grid of every path of a `simulate`
call, the `y` grid of every horizon of `density`) reuses those bytes instead
of formatting the column again.
"""

from __future__ import annotations

import io
import math
from functools import cache

import numpy as np

__all__ = ["BLOCK_ROWS", "RowWriter", "write_rows"]

# Rows per block of a `RowWriter`.
BLOCK_ROWS = 8192

# Biased exponents of [2**-14, 2**50), which holds the fast range
# [1e-4, 2**50).  Ryu's e2 there is in [-68, -5], so its q is at least 2.
_EXP_LO, _EXP_HI = 1009, 1072
# Longest fast-path text without its sign: "0." and 20 fraction digits.
_TEXT = 22
# Digit positions of a fast-path value's digits with a point slot (< 10**18).
_DIGITS = 18
# Widest field: the longest repr of a float (24 characters, as in
# -2.2250738585072014e-308) and its separator.
_FIELD = 25
_LOW32 = np.uint64(0xFFFFFFFF)
# uint64 rows of a block's work arena, `u`, each holding one word per value.
# Ryu's stage uses all of them and leaves the digits in u[5].  The layout
# then reuses the dead rows, as the uint8 rows U of the same memory: the
# 8-digit words and their temporaries in u[0..3] and u[6] first, then the
# digit pairs in U[32:41], the field matrix in U[0:25], and last the
# position masks in U[25:47].
_WORDS = 7


@cache
def _tables():
    """Per-exponent tables, built from Python ints on first use.

    For the biased exponent `exp` of the fast range, e2 = exp - 1077,
    q = floor(log10(5**-e2)) - 1 and i = -e2 - q, so floor(mv * 5**i / 2**q)
    is mv * 2**e2 in units of 10**e10, e10 = q + e2; `frac` is -e10.
    |v| in [2**(exp-1023), 2**(exp-1022)) has `ints` integer digits and a
    point (the "0." of "0.ddd" for |v| < 1), one more digit from `step`, the
    power of ten inside that range (+inf if none).
    Other exponents get harmless entries; their values are written by repr."""
    q = np.full(2048, 2, dtype=np.uint64)
    pow5 = np.ones(2048, dtype=np.uint64)
    frac = np.zeros(2048, dtype=np.uint8)
    ints = np.full(2048, 2, dtype=np.uint8)
    step = np.full(2048, np.inf)
    for exp in range(_EXP_LO, _EXP_HI + 1):
        e2 = exp - 1077
        qe = len(str(5 ** -e2)) - 2
        q[exp] = qe
        pow5[exp] = 5 ** (-e2 - qe)
        frac[exp] = -(qe + e2)
        if exp >= 1023:
            low = 2 ** (exp - 1023)
            digits = len(str(low))
            ints[exp] = digits + 1
            if 10 ** digits < 2 * low:
                step[exp] = 10.0 ** digits
    pow10 = np.array([10 ** d for d in range(20)], dtype=np.uint64)
    return q, pow5, frac, ints, step, pow10


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


def _shortest_digits(x, ax, ok, w):
    """Ryu's shortest digits of x (float64, 1-D) where `ok` is true.

    `ok` must hold only values with 1e-4 <= |v| < 2**50 and a fraction, and
    `ax` is |x| (`_fields` keeps it in the arena row u[1], which is
    overwritten once it is read).  `ok` is then cleared where the fast path
    does not apply.  Returns (digits, frac, length): where ok is true,
    repr(float(x)) is positional with `length` characters besides its sign:
    the digits of the integer `digits`, padded with leading zeros to at
    least frac + 1 digits, with the decimal point before the last `frac`
    (at least one)."""
    n = x.size
    q_tab, pow5_tab, frac_tab, ints, step, pow10 = _tables()
    u = w("u", (_WORDS, n))
    bits = x.view(np.uint64)
    flag = w("flag", n, bool)
    exp = np.right_shift(ax.view(np.uint64), np.uint64(52), out=u[0]).view(np.int64)
    # integer digits and the point, and the fraction digits of Ryu's units
    length = ints.take(exp, out=w("length", n, np.uint8), mode="clip")
    length += np.greater_equal(ax, step.take(exp, out=u[2].view(np.float64), mode="clip"),
                               out=flag)
    frac = frac_tab.take(exp, out=w("frac", n, np.uint8), mode="clip")
    q = q_tab.take(exp, out=u[1], mode="clip")
    b = pow5_tab.take(exp, out=u[2], mode="clip")
    # mmShift = 0 only at a power of two, where the mantissa bits are zero
    a0 = np.bitwise_and(bits, np.uint64((1 << 52) - 1), out=u[0])
    mm = np.not_equal(a0, 0, out=w("mm", n, bool))
    # mv = 4*m2 (55 bits) times b = 5**i (at most 52 bits), from 32-bit
    # halves, as the 64-bit words hi and lo
    a0 |= np.uint64(1 << 52)
    a0 <<= np.uint64(2)
    a1 = np.right_shift(a0, np.uint64(32), out=u[3])
    a0 &= _LOW32
    b1 = np.right_shift(b, np.uint64(32), out=u[4])
    t = np.bitwise_and(b, _LOW32, out=u[5])
    lo = np.multiply(a0, t, out=u[6])
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
    # vm = floor((mv - 1 - mmShift)*b / 2**q), by an arithmetic shift of the
    # signed r - (1 + mmShift)*b, and vp = floor((mv + 2)*b / 2**q)
    vm = np.left_shift(b, mm, out=u[0])
    np.subtract(r, vm, out=vm)
    np.right_shift(vm.view(np.int64), q.view(np.int64), out=vm.view(np.int64))
    vm += vr
    vp = b
    vp <<= np.uint64(1)
    vp += r
    vp >>= q
    vp += vr
    # Drop the most digits d with vp // 10**d > vm // 10**d; that holds for
    # every d up to the largest, so a value that fails one d fails every
    # larger one.  It holds for every d with 10**d <= vp - vm, so the least
    # gap of the block gives d0 digits that all values drop.  Beyond d0 each
    # step tests one more digit, with no masked copies, on the whole block
    # while many values drop it, then on the values left.
    gap = np.subtract(vp, vm, out=u[1])
    d0 = len(str(int(np.minimum.reduce(gap, where=ok, initial=np.uint64(1 << 63))))) - 1
    np.floor_divide(vp, pow10[d0], out=vp)
    removed = w("removed", n, np.uint8)
    removed[:] = d0
    for d in range(d0 + 1, len(pow10)):
        vp //= np.uint64(10)
        np.less(vm, np.multiply(vp, pow10[d], out=gap), out=flag)
        flag &= ok
        removed += flag.view(np.uint8)
        if np.count_nonzero(flag) <= n // 4:
            break
    left = np.flatnonzero(flag)
    p, v = vp[left], vm[left] // pow10[d]
    more = np.zeros(left.size, np.uint8)
    while True:
        p //= np.uint64(10)
        v //= np.uint64(10)
        drop = p > v
        if not drop.any():
            break
        more += drop
    removed[left] += more
    # Round up when the dropped digits are at least half of 10**removed (the
    # last one dropped is 5 or more), or when the kept digits fall on the
    # excluded vm, which holds them exactly when vm >= digits * 10**removed.
    ridx = u[4].view(np.intp)
    ridx[:] = removed
    scale = pow10.take(ridx, out=u[1], mode="clip")
    digits = np.floor_divide(vr, scale, out=u[5])
    trunc = np.multiply(digits, scale, out=u[6])
    vr -= trunc
    vr <<= np.uint64(1)
    up = np.greater_equal(vr, scale, out=flag)
    up |= np.greater_equal(vm, trunc, out=mm)
    digits += up
    ok &= np.greater(frac, removed, out=flag)
    frac -= removed
    length += frac
    return digits, frac, length


def _digit_rows(number, rows, u):
    """ASCII decimal digits of `number` (< 10**18, in u[5]), digit k from
    the right in rows[k], for k < 18; rows[k] beyond them are '0'."""
    n = number.size
    # 8-digit words in uint32: number = (top*10**8 + words[1])*10**8 + words[0]
    hi = np.floor_divide(number, np.uint64(10 ** 8), out=u[0])
    low = np.multiply(hi, np.uint64(10 ** 8), out=u[1])
    words = u[2].view(np.uint32).reshape(2, n)
    np.subtract(number, low, out=words[0], casting="unsafe")
    top = np.floor_divide(hi, np.uint64(10 ** 8), out=low)
    hi -= np.multiply(top, np.uint64(10 ** 8), out=u[3])
    words[1] = hi
    # 2-digit pairs, pair p holding digits 2p and 2p + 1, then their ones
    # and tens
    U = u.view(np.uint8).reshape(-1, n)
    pairs = U[32:32 + _DIGITS // 2]
    pairs[8] = top
    quads = pairs[:8].reshape(2, 4, n)
    rest = u[3].view(np.uint32).reshape(2, n)
    tmp = u[6].view(np.uint32).reshape(2, n)
    for i in range(3):
        np.floor_divide(words, np.uint32(100), out=rest)
        np.subtract(words, np.multiply(rest, np.uint32(100), out=tmp), out=quads[:, i],
                    casting="unsafe")
        words, rest = rest, words
    quads[:, 3] = words
    digit = rows[:_DIGITS].reshape(_DIGITS // 2, 2, n)
    np.floor_divide(pairs, np.uint8(10), out=digit[:, 1])
    np.multiply(digit[:, 1], np.uint8(10), out=digit[:, 0])
    np.subtract(pairs, digit[:, 0], out=digit[:, 0])
    rows[:_DIGITS] += np.uint8(ord("0"))
    rows[_DIGITS:] = ord("0")


def _layout(m, digits, frac, length, u):
    """Write into m, a (width, n) uint8 matrix with width >= 18 in the arena
    rows U[0:25], each positional text right-aligned in its column: `digits`
    with `frac` fraction digits, padded with leading zero digits to `length`
    characters, and zero bytes above it.  `digits` is overwritten."""
    width, n = m.shape
    nrows = min(width, _TEXT)
    # the digits with a zero digit at the point, whose place is then taken
    # by '.': digits + 9 * (integer part) * 10**frac
    idx = u[1].view(np.intp)
    idx[:] = frac
    p = _tables()[5].take(idx, out=u[0], mode="clip")
    ip = np.floor_divide(digits, p, out=u[1])
    ip *= p
    ip *= np.uint64(9)
    digits += ip
    rows = m[width - nrows:][::-1]
    _digit_rows(digits, rows, u)
    pos = np.arange(nrows, dtype=np.uint8)[:, None]
    flag = u.view(np.uint8).reshape(-1, n)[25:25 + nrows].view(bool)
    np.equal(pos, frac, out=flag)
    dot = flag.view(np.uint8)
    dot *= np.uint8((ord(".") - ord("0")) % 256)
    rows += dot
    rows *= np.less(pos, length, out=flag)
    m[:width - nrows] = 0


def _fields(cols, w, first=None):
    """The field matrix of a block of rows of `cols`, equal-length float64
    arrays: row i holds row i's CSV bytes, each field padded with zero bytes
    to its column's width, then ',' or, after the last column, a newline.
    Every value is written as repr(float(v)).  `first`, if not None, is the
    matrix's part for cols[0], from an earlier block of the same values,
    which is then not formatted again.  Returns the matrix and the width of
    its part for cols[0]."""
    rows = cols[0].size
    fmt = cols[0 if first is None else 1:]
    done = 0 if first is None else first.shape[1]
    if not fmt:
        return first, done
    k = len(fmt)
    n = k * rows
    x = w("x", (k, rows), np.float64)
    for i, c in enumerate(fmt):
        x[i] = c
    x = x.reshape(-1)
    u = w("u", (_WORDS, n))
    # Only a value with 1e-4 <= |v| < 2**50 and a fraction can take the fast
    # path.  A block with none (zeros, integers, tiny tails) is all repr,
    # and the vector stages would only add to its cost.
    ax = np.abs(x, out=u[1].view(np.float64))
    with np.errstate(invalid="ignore"):  # a signalling NaN payload is no error here
        whole = np.floor(ax, out=u[2].view(np.float64))
    ok = np.greater_equal(ax, 1e-4, out=w("ok", n, bool))
    ok &= np.less(ax, 2.0 ** 50, out=w("flag", n, bool))
    ok &= np.not_equal(ax, whole, out=w("flag", n, bool))
    fast = bool(ok.any())
    if fast:
        digits, frac, length = _shortest_digits(x, ax, ok, w)
    # A field's width is its column's longest text, with a '-' in front of a
    # negative fast value.
    neg = np.signbit(x, out=w("neg", n, bool))
    wide = w("wide", n, np.uint8)
    if fast:
        np.add(length, neg, out=wide)
        wide *= ok
    else:
        wide[:] = 0
    widths = wide.reshape(k, rows).max(axis=1).astype(np.intp)
    rest = np.flatnonzero(~ok)
    col = rest // rows
    slow = [repr(v).encode() for v in x[rest].tolist()]
    np.maximum.at(widths, col, np.array([len(s) for s in slow], dtype=np.intp))
    width = int(widths.max())
    m = u.view(np.uint8).reshape(-1, n)[:max(width, _DIGITS) + 1]
    sep = m.shape[0] - 1
    if fast:
        _layout(m[:sep], digits, frac, length, u)
    else:
        m[:sep] = 0
    m[sep] = ord(",")
    m[sep, n - rows:] = ord("\n")
    widths = widths.tolist()
    for c, wc in enumerate(widths):
        part = m[sep - wc:, c * rows:(c + 1) * rows]
        part[0] += np.multiply(neg[c * rows:(c + 1) * rows], np.uint8(ord("-")), out=wide[:rows])
        mine = np.flatnonzero(col == c)
        if mine.size:
            text = np.array([slow[i] for i in mine.tolist()], dtype=f"S{wc}")
            part[:wc, rest[mine] - c * rows] = text.view(np.uint8).reshape(-1, wc).T
    out = w("out", (rows, done + sum(widths) + k), np.uint8)
    if first is not None:
        out[:, :done] = first
    at = done
    for c, wc in enumerate(widths):
        out[:, at:at + wc + 1] = m[sep - wc:, c * rows:(c + 1) * rows].T
        at += wc + 1
    return out, done or widths[0] + 1


class RowWriter:
    """Writes CSV rows of float64 columns, every value as repr(float(v)),
    fields joined by ',' and each row ended by a newline.

    A writer serves the files of one command and is dropped with it.
    Unless `keep_first` is false, it keeps the field bytes of the last
    call's first column, with a copy of that column.  A call whose first
    column has the same bits, whose columns are as many or as few as one,
    and whose BLOCK_ROWS is the same writes those bytes again instead of
    formatting the column.  The work arrays live for one call: held from
    file to file, they would sit beside the next file's data (a path being
    sampled, say) and raise the command's peak memory."""

    def __init__(self, keep_first: bool = True):
        self._keep_first = keep_first
        # ((BLOCK_ROWS, more than one column), first column, its field
        # matrices by block)
        self._first = None

    def write(self, fileobj, columns) -> None:
        """Write the rows of `columns` (equal-length arrays, read as float64)
        to `fileobj`, a text file, or a binary one, which gets the ASCII
        bytes.  Rows are formatted and written BLOCK_ROWS at a time, so no
        string of the whole file is built."""
        cols = [np.asarray(c, dtype=np.float64) for c in columns]
        size, rows = cols[0].size, BLOCK_ROWS
        key = (rows, len(cols) > 1)
        memo = self._first
        if memo is not None and not (memo[0] == key and np.array_equal(
                memo[1].view(np.uint64), cols[0].view(np.uint64))):
            memo = self._first = None
        keep = memo is None and self._keep_first
        if keep:
            # one buffer takes every block's fields, so that the kept bytes
            # fragment no free memory
            first, store, kept, at = cols[0].copy(), np.empty(_FIELD * size, np.uint8), [], 0
        scratch = _Scratch()
        binary = not isinstance(fileobj, io.TextIOBase)
        for i, lo in enumerate(range(0, size, rows)):
            block = [c[lo:lo + rows] for c in cols]
            fields, width = _fields(block, scratch, None if memo is None else memo[2][i])
            if keep:
                part = store[at:at + fields.shape[0] * width].reshape(-1, width)
                part[...] = fields[:, :width]
                kept.append(part)
                at += part.size
            text = fields.tobytes().translate(None, b"\0")
            fileobj.write(text if binary else text.decode("ascii"))
        if keep:
            self._first = (key, first, kept)


def write_rows(fileobj, columns) -> None:
    """Write the rows of `columns` to `fileobj` with a writer of its own,
    which keeps nothing after the call (see `RowWriter.write`)."""
    RowWriter(keep_first=False).write(fileobj, columns)
