"""The numpy row kernel: ``format_rows`` writes exactly what ``str.format``
writes row by row, ``repr`` for every float64, ``str`` for every int and
``true``/``false`` for every bool."""

import ast
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegaps.errors import DomainError
from primegaps.rowfmt import ROW_CHUNK, format_rows
from primegaps.runner import RowSink

SRC = Path(__file__).resolve().parents[1] / "src"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _oracle(row_fmt, *cols):
    """The rows as ``str.format`` writes them, with a bool as true or false."""
    values = ([("false", "true")[v] for v in c.tolist()] if c.dtype == bool else c.tolist()
              for c in cols)
    return "\n".join(map(row_fmt.format, *values)).encode("ascii")


def _floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_lanes_equal_repr_over_bit_patterns(bits):
    col = _floats_from_bits(bits)
    assert format_rows(col) == _oracle("{!r}", col)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=1, max_size=64),
       st.booleans())
def test_float_lanes_equal_repr_in_fixed_notation(values, negate):
    # Bit patterns land in fixed notation (1e-4 <= |x| < 1e16) about one
    # time in thirty; this draws around it.
    col = np.array(values, dtype=np.float64) * (-1.0 if negate else 1.0)
    assert format_rows(col) == _oracle("{!r}", col)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=64))
@example([INT64_MIN, INT64_MAX, 0, -1])
@example([10**8 - 1, 10**8, 10**14 - 1, 10**14, -(10**6), 10**6 - 1])
def test_int64_lanes_equal_str(values):
    col = np.array(values, dtype=np.int64)
    assert format_rows(col) == _oracle("{}", col)


_EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, np.inf, np.nan,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-05,
    1e22, 1e23, 0.1, 0.30000000000000004, 1.0, 1.5, 123.0,
    # fraction digits: 18 (the longest the kernel writes) and 20 (repr)
    0.001234567890123456, 0.00012345678901234567, 1234567890123456.8,
    # where the spacing of the doubles is irregular: each power of two
    *(2.0**e for e in range(-1074, 1024)),
]


@pytest.mark.parametrize("value", _EDGES[:24] + [2.0**-14, 2.0**53, 2.0**54, 2.0**-1022])
def test_edge_values_equal_repr(value):
    value = float(value)
    col = np.array([value, -value])
    assert format_rows(col) == f"{value!r}\n{-value!r}".encode("ascii")


def test_edge_table_in_one_column_equals_repr():
    col = np.array(_EDGES + [-x for x in _EDGES])
    with np.errstate(over="ignore"):  # past the largest double is inf
        around = np.concatenate([np.nextafter(col, np.inf), np.nextafter(col, -np.inf)])
    for values in (col, around):
        assert format_rows(values) == _oracle("{!r}", values)


def test_seeded_sweep_equals_repr():
    rng = np.random.default_rng(20200720)
    bits = rng.integers(0, 2**64, size=2_000_000, dtype=np.uint64)
    # Random sign and significand bits under biased exponents 1000..1085,
    # 2^-23 to 2^62: fixed notation, its two ends and a margin around them.
    exponents = rng.integers(1000, 1086, size=len(bits), dtype=np.uint64)
    near = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
    # Any bit pattern: mostly scientific notation, subnormals, inf and nan.
    anywhere = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
    rounded = np.round(rng.uniform(-1e7, 1e7, 200_000), 6)
    for col in (near.view(np.float64), anywhere.view(np.float64), rounded):
        assert format_rows(col) == _oracle("{!r}", col)


def test_single_binade_chunks_equal_repr():
    # Every lane of a chunk in one binade and none a power of two: the
    # kernel takes the exponent's k, h and 10^-k once, as scalars.
    rng = np.random.default_rng(1021)
    pick = rng.integers(0, 128, ROW_CHUNK)
    for e in range(-1021, 1023):
        mag = (np.uint64(e + 1023) << np.uint64(52)) | rng.integers(1, 2**52, 64, dtype=np.uint64)
        values = np.concatenate([mag, mag | np.uint64(1 << 63)]).view(np.float64)
        text = np.array([repr(v).encode("ascii") for v in values.tolist()])
        assert format_rows(values[pick]) == b"\n".join(text[pick].tolist()), e


def test_powers_of_two_in_single_binade_chunks_equal_repr():
    # A power of two takes its chunk to the per-lane exponents, where its
    # interval's lower end moves in (except in the least binade).  About
    # one binade in eight has a power of two whose digits would differ.
    rng = np.random.default_rng(1023)
    for e in range(-1022, 1024):
        bits = (np.uint64(e + 1023) << np.uint64(52)) | rng.integers(0, 2**52, 64,
                                                                       dtype=np.uint64)
        bits[::16] &= np.uint64(0xFFF0000000000000)
        bits[1::2] |= np.uint64(1 << 63)
        col = bits.view(np.float64)
        assert format_rows(col) == _oracle("{!r}", col), e


def test_fixed_fast_path_edges_equal_repr():
    # [1e-2, 1e16) takes the fixed path with no masks; one lane past
    # either end takes the general one.
    edges = [1e-2, np.nextafter(1e-2, 1.0), np.nextafter(1e16, 0.0), 2.0**53 - 2, 2.0**53,
             2.0**53 + 2, 0.5, 1.0, 123.0, 1e15]
    inside = np.array(edges + [-x for x in edges])
    for col in (inside, np.append(inside, np.nextafter(1e-2, 0.0)), np.append(inside, 1e16),
                np.append(inside, -1e16)):
        assert format_rows(col) == _oracle("{!r}", col)


def test_integer_valued_doubles_below_1e16_equal_repr():
    # Their shortest decimal has e >= 0, so the fraction is empty: a lane
    # like 3673584401162700.0 must not write "...700.5".
    rng = np.random.default_rng(1015)
    ints = rng.integers(10**15, 10**16, ROW_CHUNK)
    ints //= 10 ** rng.integers(0, 16, ROW_CHUNK)
    ints *= 10 ** rng.integers(0, 16, ROW_CHUNK)
    ints = np.clip(ints, 10**15, 10**16 - 2)
    col = ints.astype(np.float64) * np.where(rng.random(ROW_CHUNK) < 0.5, -1.0, 1.0)
    col[:4] = [3673584401162700.0, -3673584401162700.0, 1e15, 9999999999999998.0]
    assert format_rows(col) == _oracle("{!r}", col)


@pytest.mark.parametrize("special", [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                                     2.0**-1030, 2.0**-1022, 1e-3, 0.0012345678901234567,
                                     1.5e-5, 1e20])
def test_one_lane_outside_the_fixed_range_equals_repr(special):
    # One lane sends the whole chunk to the general path.
    rng = np.random.default_rng(7)
    col = rng.uniform(1e-2, 1e6, ROW_CHUNK) * np.where(rng.random(ROW_CHUNK) < 0.5, -1.0, 1.0)
    col[rng.integers(ROW_CHUNK)] = special
    assert format_rows(col) == _oracle("{!r}", col)


def test_lanes_ending_in_zeros_equal_repr():
    # Shorter decimals among 17-digit ones: the digits found end in one
    # to sixteen zeros, stripped in rounds over fewer and fewer lanes.
    rng = np.random.default_rng(17)
    col = rng.uniform(1.0, 1e6, ROW_CHUNK)
    short = [f"{rng.integers(1, 10 ** int(d))}e{rng.integers(-20, 12)}"
             for d in rng.integers(1, 18, len(col[::7]))]
    col[::7] = np.array(short, dtype=np.float64)
    col[1::7] = np.resize([1.5, 0.1, 1e15, 100.0, 1234567890123450.0], len(col[1::7]))
    fixed = col[(col >= 1e-2) & (col < 1e16)]  # the fast path's lanes
    for chunk in (col, -col, fixed, -fixed):
        assert format_rows(chunk) == _oracle("{!r}", chunk)


def test_peak_memory_stays_below_twice_the_output():
    # One block of delta-scan-like rows (p, delta, delta_hat): the word
    # matrix is one chunk's, and each chunk's text goes straight to the
    # one output buffer.
    rng = np.random.default_rng(32768)
    n = 32_768
    p = 29_000_001 + np.cumsum(2 * rng.integers(1, 30, n))
    delta = 4.5e8 + np.cumsum(rng.uniform(0.0, 30.0, n))
    delta_hat = rng.uniform(-1.3e5, 3.0, n)
    format_rows(p[:1], delta[:1], delta_hat[:1])  # builds the 10^-k table
    tracemalloc.start()
    try:
        out = format_rows(p, delta, delta_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == _oracle("{},{!r},{!r}", p, delta, delta_hat)
    assert peak < 2 * len(out), peak / len(out)


@pytest.mark.parametrize("rows", [1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 1])
def test_blocks_around_the_chunk_size_equal_str_format(rows):
    assert ROW_CHUNK == 4096
    rng = np.random.default_rng(rows)
    n = np.arange(rows, dtype=np.int64) - 7
    x = rng.uniform(-3e4, 3e7, rows)
    x[::97] = 0.0  # repr lanes spread over every chunk
    y = 10.0 ** rng.uniform(-6.0, 18.0, rows)
    ok = rng.random(rows) < 0.5
    buf = io.BytesIO()
    sink = RowSink(buf)
    writes = []
    sink.write = lambda line: (writes.append(line), RowSink.write(sink, line))
    sink.write_rows(n, x, y, ok)
    expected = _oracle("{},{!r},{!r},{}", n, x, y, ok)
    assert writes == [expected]
    assert buf.getvalue() == expected + b"\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_bool_lanes_are_true_or_false(values):
    # first in the row (after "\n") and later (after ",")
    col = np.array(values, dtype=bool)
    n = np.arange(len(col), dtype=np.int64)
    assert format_rows(col, n, col) == _oracle("{},{},{}", col, n, col)


@pytest.mark.parametrize(
    "cols",
    [
        [np.array([1.5], dtype=np.float32)],
        [np.array([1], dtype=np.uint64)],
        [np.array(["a"])],
        [np.array([b"a"])],
        [np.array([1], dtype=object)],
        [np.array([1j])],
        [],
        [np.array([1]), np.array([1, 2])],
        [np.array([[1]])],
        [np.array(1)],
    ],
    ids=["float32", "uint64", "str", "bytes", "object", "complex", "no-columns",
         "lengths-differ", "2-d", "0-d"],
)
def test_unsupported_columns_raise_domain_error(cols):
    with pytest.raises(DomainError):
        format_rows(*cols)


def test_the_kernel_checks_without_assert():
    # python -O strips assert statements, so no check of the kernel may be one.
    source = (SRC / "primegaps" / "rowfmt.py").read_text()
    assert not [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_import_does_not_build_the_power_table():
    # setup_s of every command includes the import; the 10^-k table is
    # built by the first float row instead.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import numpy as np, primegaps.cli\n"
            "from primegaps import rowfmt\n"
            "print(rowfmt._g_table.cache_info().currsize)\n"
            "rowfmt.format_rows(np.array([0.5]))\n"
            "print(rowfmt._g_table.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]
