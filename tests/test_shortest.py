"""The block CSV formatter writes every value exactly as repr(float(v)).

The oracle is Python's repr itself, value by value, over bit patterns that
cover every exponent, the edges of the fast range, and the values repr
writes in scientific form.  `reference_path_csv` is the per-row loop that
`write_path_csv` used before the block formatter.
"""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyou import _shortest
from levyou.simulate import DriverSpec, sample_path, write_path_csv
from levyou.cumulants import ModelParams


def reference_path_csv(path, fileobj):
    fileobj.write("t,X,Y\n")
    for t, x, y in zip(path.times, path.X, path.Y):
        fileobj.write(f"{float(t)!r},{float(x)!r},{float(y)!r}\n")


def repr_rows(cols):
    """The per-row repr loop's text of the rows of `cols`."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols))


def assert_values_match_repr(values):
    """write_rows of one column of `values` is repr of each value."""
    values = np.asarray(values, dtype=np.float64)
    buf = io.StringIO()
    _shortest.write_rows(buf, [values])
    got = buf.getvalue().split("\n")
    assert got.pop() == ""
    expected = [repr(v) for v in values.tolist()]
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert len(got) == len(expected) and not bad, bad[:10]


def assert_bit_patterns_match(count, seed, block=1 << 20):
    """`count` seeded uniform 64-bit patterns, as doubles, against repr."""
    rng = np.random.default_rng(seed)
    for lo in range(0, count, block):
        bits = rng.integers(0, 1 << 64, min(block, count - lo), dtype=np.uint64,
                            endpoint=False)
        assert_values_match_repr(bits.view(np.float64))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60))
def test_hypothesis_floats_match_repr(values):
    assert_values_match_repr(values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_random_bit_patterns_match_repr():
    assert_bit_patterns_match(1_000_000, seed=20240601)


def test_powers_of_two_and_their_neighbours_match_repr():
    powers = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_values_match_repr(np.concatenate([values, -values]))


def test_edge_values_match_repr():
    edges = [1e-4, 1e16, 9999999999999998.0, 5e-324, np.finfo(np.float64).max, 2.0 ** 50,
             np.finfo(np.float64).tiny, 0.1, 0.3, 2.675, 123456789012345.6]
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        edges += [np.nextafter(v, d) for v in edges for d in (0.0, np.inf)]
    values = edges + [-v for v in edges] + [0.0, -0.0, np.nan, np.inf, -np.inf]
    assert_values_match_repr(values)


def test_decimal_grids_match_repr():
    # short decimals drop many digits, linspace values few or none
    k = np.arange(1, 200_001)
    assert_values_match_repr(np.concatenate([k / 1000.0, k * 1e-4, np.linspace(0.0, 5.0, k.size)]))


def test_rows_join_columns_and_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(50), -rng.exponential(size=50) * 1e-3, np.arange(50) / 7.0]
    expected = repr_rows(cols)
    for block in (7, 50, 8192):
        monkeypatch.setattr(_shortest, "BLOCK_ROWS", block)
        buf = io.StringIO()
        _shortest.write_rows(buf, cols)
        assert buf.getvalue() == expected


@pytest.mark.parametrize("kind", ["zeros", "integers", "tiny"])
def test_blocks_without_fast_values_skip_the_vector_stages(monkeypatch, kind):
    # three blocks of such values are all repr; three normal blocks after
    # them still take the vector stages
    slow = {"zeros": np.tile([0.0, -0.0], 96),
            "integers": np.concatenate([np.arange(-48.0, 48.0), 2.0 ** 49 + np.arange(96)]),
            "tiny": np.random.default_rng(8).uniform(-1e-6, 1e-6, 192)}[kind]
    rng = np.random.default_rng(9)
    cols = [np.concatenate([rng.permutation(slow), rng.standard_normal(192)]) for _ in range(3)]
    vector_blocks = []
    real = _shortest._shortest_digits
    monkeypatch.setattr(_shortest, "_shortest_digits",
                        lambda x, *args: vector_blocks.append(x.size) or real(x, *args))
    monkeypatch.setattr(_shortest, "BLOCK_ROWS", 64)
    buf = io.StringIO()
    _shortest.write_rows(buf, cols)
    assert buf.getvalue() == repr_rows(cols)
    assert vector_blocks == [3 * 64] * 3


def next_first_column(first, kind, k):
    """A first column for a writer's next call: the same bits in a new
    array, one bit flipped, a zero of the other sign than the value it
    replaces, a NaN with payload k, or a column k % 5 - 2 rows longer."""
    col = first.copy()
    bits = col.view(np.uint64)
    i = k % col.size
    if kind == "bit":
        bits[i] ^= np.uint64(1 << (k % 64))
    elif kind == "zero sign":
        col[i] = 0.0 if np.signbit(col[i]) else -0.0
    elif kind == "nan payload":
        bits[i] = np.uint64(0x7FF8000000000000 | k)
    elif kind == "length":
        more = k % 5 - 2
        col = np.concatenate([col, col[:more]]) if more > 0 else col[:max(col.size + more, 1)]
    return col


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
       st.lists(st.tuples(st.sampled_from(["same", "bit", "zero sign", "nan payload", "length"]),
                          st.integers(0, 2**16), st.sampled_from([3, 7, 8192]),
                          st.integers(1, 3)),
                min_size=1, max_size=6))
def test_a_writer_reuses_a_first_column_only_with_the_same_bits(values, calls):
    # successive calls through one writer, each changing the first column by
    # `kind`, BLOCK_ROWS and the number of columns; every call must write
    # the per-row repr loop's text
    rng = np.random.default_rng(len(values))
    first = np.array(values)
    writer = _shortest.RowWriter()
    block_rows = _shortest.BLOCK_ROWS
    try:
        for kind, k, block, ncols in calls:
            first = next_first_column(first, kind, k)
            cols = [first] + [rng.standard_normal(first.size) for _ in range(ncols - 1)]
            _shortest.BLOCK_ROWS = block
            buf = io.StringIO()
            writer.write(buf, cols)
            assert buf.getvalue() == repr_rows(cols)
    finally:
        _shortest.BLOCK_ROWS = block_rows


def test_a_writer_formats_an_equal_first_column_once(monkeypatch):
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 5.0, 201)
    formatted = []
    real = _shortest._shortest_digits
    monkeypatch.setattr(_shortest, "_shortest_digits",
                        lambda x, *args: formatted.append(x.size) or real(x, *args))
    monkeypatch.setattr(_shortest, "BLOCK_ROWS", 64)
    writer = _shortest.RowWriter()
    for _ in range(3):
        cols = [t.copy(), rng.standard_normal(t.size), rng.standard_normal(t.size)]
        buf = io.BytesIO()
        writer.write(buf, cols)
        assert buf.getvalue().decode() == repr_rows(cols)
    blocks = [3 * 64] * 3 + [3 * 9]
    assert formatted == blocks + [2 * size // 3 for size in blocks] * 2


def test_write_path_csv_holds_one_block_of_work_arrays():
    # a 100k-step example path: ~100 bytes per value of a 3 x 8192-value
    # block, and the block's field matrix and text; a writer of its own
    # keeps no time column
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    path = sample_path(params, driver, 5.0, n_steps=100_000, seed=11)
    with open(os.devnull, "wb") as sink:
        write_path_csv(path, sink)  # a first call also counts numpy's lazy imports
        tracemalloc.start()
        try:
            write_path_csv(path, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4e6, peak


def test_common_values_take_the_fast_path():
    # values that repr writes positionally with 15-17 digits skip repr
    x = np.random.default_rng(3).standard_normal(100_000)
    ok = (np.abs(x) >= 1e-4) & (np.abs(x) < 2.0 ** 50)
    _shortest._shortest_digits(x, np.abs(x), ok, _shortest._Scratch())
    assert ok.mean() > 0.999


def test_write_path_csv_matches_the_reference_loop():
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    path = sample_path(params, driver, 5.0, n_steps=100_000, seed=11)
    got, want = io.StringIO(), io.StringIO()
    write_path_csv(path, got)
    reference_path_csv(path, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("block", [1, 3, 8192])
def test_write_path_csv_does_not_depend_on_the_block(monkeypatch, block):
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
    path = sample_path(params, DriverSpec.gaussian(b=0.5, C=2.0), 1.0, n_steps=20, seed=3)
    want = io.StringIO()
    reference_path_csv(path, want)
    monkeypatch.setattr(_shortest, "BLOCK_ROWS", block)
    got = io.StringIO()
    write_path_csv(path, got)
    assert got.getvalue() == want.getvalue()
