"""The numpy row kernel: ``format_rows`` writes exactly what ``str.format``
writes row by row, ``repr`` for every float64, ``str`` for every int and
``true``/``false`` for every bool."""

import ast
import io
import os
import subprocess
import sys
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
