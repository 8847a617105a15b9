import json
import math
import os
import subprocess
import sys
import threading
import time
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.errors import DomainError, RangeLimitError, ResourceLimitError
from primegaps.sieve import (
    _WHEEL,
    _WHEEL_PERIOD,
    PrimeBlock,
    PrimeData,
    PrimeStream,
    nth_prime,
    ordered_map,
    prime_count,
    _base_primes,
    _sieve_odd_segment,
    primes_up_to,
)

from .oracles import trial_division_primes, trial_division_window


def test_primes_up_to_small():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(0).tolist() == []


def test_primes_up_to_p10000():
    ps = primes_up_to(104729)
    assert len(ps) == 10000
    assert int(ps[-1]) == 104729


def test_sieve_matches_trial_division_to_1e5():
    assert np.array_equal(primes_up_to(10**5), trial_division_primes(10**5))


def test_sieve_segment_size_invariance():
    big = primes_up_to(10**5, segment_size=1 << 20)
    small = primes_up_to(10**5, segment_size=4096)
    tiny = primes_up_to(10**5, segment_size=64)
    assert np.array_equal(big, small)
    assert np.array_equal(big, tiny)


@cache
def _primes_to_3e5():
    return trial_division_primes(3 * 10**5)


@settings(max_examples=60, deadline=None)
@given(
    limit=st.integers(2, 3 * 10**5),
    segment_size=st.integers(64, 2**14),
    workers=st.sampled_from([1, 2]),
)
def test_sieve_equals_trial_division(limit, segment_size, workers):
    expected = _primes_to_3e5()
    expected = expected[expected <= limit]
    got = primes_up_to(limit, segment_size=segment_size, workers=workers)
    assert np.array_equal(got, expected)


# The wheel primes, their squares and p * p for the first primes the
# wheel leaves to the slices and the scatter.
_EDGES = sorted({*_WHEEL, *(q * q for q in _WHEEL), 17**2, 19**2, 23**2,
                 29**2, 31**2})


@pytest.mark.parametrize("edge", _EDGES)
def test_segments_starting_or_ending_on_an_edge(edge):
    expected = _primes_to_3e5()

    def window(lo, hi):
        odd_bases = _base_primes(math.isqrt(hi))[1:]
        got = _sieve_odd_segment(lo, hi, odd_bases)
        assert np.array_equal(got, expected[(expected >= lo) & (expected < hi)])

    # Up to three wheel periods of odd positions: the pattern is doubled.
    for width in (1, 2, 63, 64, 2000, 6 * _WHEEL_PERIOD):
        window(edge, edge + width)
        if edge - width >= 3:
            window(edge - width + 1 | 1, edge + 1)
    for limit in (edge - 1, edge, edge + 1):
        for segment_size in {64, max(64, edge - 3), max(64, edge - 2)}:
            # segment_size edge - 3 starts the second segment on edge
            got = primes_up_to(max(limit, 2), segment_size=segment_size)
            assert np.array_equal(got, expected[expected <= limit])


def test_segment_near_1e12_equals_trial_division():
    # Offsets of primes up to 1e6 from a start near 1e12: the int64 start
    # arithmetic far above the limits the rest of the suite sieves to.
    # 2 048 odd positions put 17..31 on slices and the rest on the scatter.
    lo, hi = 10**12 - 4095, 10**12 + 1
    odd_bases = primes_up_to(math.isqrt(hi))[1:]
    got = _sieve_odd_segment(lo, hi, odd_bases)
    assert np.array_equal(got, trial_division_window(lo, hi))
    assert len(got) == 144


_KERNEL_MEMORY = """
import json, math, tracemalloc
import numpy as np
from primegaps import sieve
lo = 999_000_001
hi = lo + sieve.DEFAULT_SEGMENT_SIZE
odd_bases = sieve._base_primes(math.isqrt(hi))[1:]
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
primes = sieve._sieve_odd_segment(lo, hi, odd_bases)
current, peak = tracemalloc.get_traced_memory()
module_arrays = sum(v.nbytes for v in vars(sieve).values() if isinstance(v, np.ndarray))
print(json.dumps({"primes": len(primes), "mask": (hi - lo) // 2, "peak": peak - before,
                  "held": current - before - primes.nbytes + module_arrays}))
"""


def test_segment_kernel_memory():
    # The first sieve call of a fresh process, on one default segment near
    # 1e9, traces below twice its mask and leaves less than one wheel
    # period alive besides its result, counting arrays held at module
    # level: a whole-run pattern or an unbounded scatter array would not fit.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _KERNEL_MEMORY], env=env,
                         capture_output=True, text=True, check=True).stdout
    measured = json.loads(out)
    assert measured["primes"] == 50284
    assert measured["peak"] < 2 * measured["mask"]
    assert measured["held"] < _WHEEL_PERIOD


def test_prime_count_small():
    assert prime_count(1) == 0
    assert prime_count(2) == 1
    assert prime_count(10) == 4


def test_prime_count_1e6_second_code_path():
    # Trial division is an independent route to pi(1e6); the sieve must agree.
    assert prime_count(10**6) == 78498
    assert len(trial_division_primes(10**6)) == 78498


def test_prime_count_equals_len_primes_up_to():
    rng = np.random.default_rng(7)
    for x in rng.integers(0, 10**5, size=12):
        x = int(x)
        assert prime_count(x) == len(primes_up_to(x))


def test_nth_prime():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(10000) == 104729
    with pytest.raises(DomainError):
        nth_prime(0)


def test_prime_data_lookups(data_1e5):
    assert data_1e5.pi(10**5) == 9592
    assert data_1e5.nth(9592) == 99991
    with pytest.raises(RangeLimitError):
        data_1e5.nth(9593)
    with pytest.raises(RangeLimitError):
        data_1e5.pi(10**5 + 1)


@pytest.mark.parametrize("entry", [PrimeStream, primes_up_to, prime_count],
                         ids=lambda entry: entry.__name__)
def test_plan_validation(monkeypatch, entry):
    # Refused on the call, so PrimeStream(1) raises when it is built, not
    # at its first block.
    monkeypatch.setattr("primegaps.sieve.iter_segments", None)  # nothing is sieved
    for args, kwargs, message in [
        ((1,), {}, "sieve limit must be >= 2, got 1"),
        ((2**63 + 1,), {}, "exceeds the 64-bit cap"),
        ((100,), {"segment_size": 32}, "segment_size must be >= 64, got 32"),
        ((100,), {"workers": 0}, "workers must be >= 1, got 0"),
    ]:
        if entry is not PrimeStream and args == (1,):
            continue  # below 2 the functions answer without sieving
        with pytest.raises(DomainError, match=message):
            entry(*args, **kwargs)


def test_memory_budget_error_names_budget(monkeypatch):
    monkeypatch.setattr("primegaps.sieve.iter_segments", None)  # nothing is sieved
    with pytest.raises(ResourceLimitError, match="budget of 6442450944 bytes"):
        primes_up_to(10**11)


def test_stream_beyond_the_memory_budget_yields_blocks():
    # Only a held table is checked against the budget: the stream sieves
    # block by block up to a limit whose table the budget refuses above.
    block = next(PrimeStream(10**11).blocks())
    assert block.index == 0 and block.n0 == 1
    assert np.array_equal(block.primes, primes_up_to(int(block.primes[-1])))
    assert block.succ == nth_prime(len(block.primes) + 1)


def _gaps(limit, **kwargs):
    """(n, p_n, g_n) for every prime p_n with p_{n+1} <= limit."""
    ps = primes_up_to(limit, **kwargs)
    return list(zip(range(1, len(ps)), ps[:-1].tolist(), np.diff(ps).tolist()))


def test_gap_stream_first_records():
    recs = _gaps(30)
    assert recs[0] == (1, 2, 1)
    assert recs[3] == (4, 7, 4)
    # primes <= 30: 2 3 5 7 11 13 17 19 23 29 -> 9 records
    assert len(recs) == 9
    assert recs[-1] == (9, 23, 6)


def test_gap_stream_invariants(data_1e5):
    recs = _gaps(10**5)
    assert len(recs) == data_1e5.pi(10**5) - 1
    # gaps telescope to (last prime <= limit) - 2
    assert sum(g for n, p, g in recs) == data_1e5.nth(data_1e5.pi(10**5)) - 2
    ns, ps, gs = (np.array(col) for col in zip(*recs))
    assert gs[0] == 1
    assert np.all(gs[1:] % 2 == 0)
    assert np.all(np.diff(ns) == 1)
    assert np.all(np.diff(ps) > 0)


def test_gap_stream_record_count_1e6(data_1e6):
    n = len(_gaps(10**6, workers=2))
    assert n == 78497


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_gap_stream_bytes_identical_across_workers(workers):
    out = primes_up_to(10**5, segment_size=8192, workers=workers)
    expected = primes_up_to(10**5, segment_size=8192, workers=1)
    assert np.array_equal(out, expected)


def test_block_iteration_covers_everything(data_1e5):
    seen = []
    last_succ = None
    for block in data_1e5.blocks(block_size=1000):
        assert block.n0 == len(seen) + 1
        seen.extend(block.primes.tolist())
        last_succ = block.succ
    assert seen == data_1e5.primes.tolist()
    assert last_succ is None
    count = sum(1 for _ in data_1e5.blocks(limit=10**4, block_size=500))
    assert count == (data_1e5.pi(10**4) + 499) // 500


def _block_tuples(blocks):
    return [(b.index, b.n0, b.primes.tolist(), b.succ) for b in blocks]


@settings(max_examples=40, deadline=None)
@given(
    limit=st.integers(2, 10**6),
    cut_fraction=st.none() | st.floats(0.0, 1.0),
    block_size=st.integers(1, 4000),
    segments=st.integers(1, 1500),
    workers=st.sampled_from([1, 2]),
)
def test_stream_blocks_equal_table_blocks(limit, cut_fraction, block_size,
                                          segments, workers):
    # segment_size runs from limit / 1500 (a few dozen primes, below most
    # block sizes) up to the whole range (above every block size).
    segment_size = max(64, limit // segments)
    cut = None if cut_fraction is None else int(cut_fraction * limit)
    table = PrimeData.build(limit, segment_size=segment_size, workers=workers)
    stream = PrimeStream(limit, segment_size=segment_size, workers=workers)
    expected = _block_tuples(table.blocks(limit=cut, block_size=block_size))
    assert _block_tuples(stream.blocks(limit=cut, block_size=block_size)) == expected


def test_stream_blocks_refuse_limit_beyond_sieve():
    with pytest.raises(RangeLimitError):
        next(PrimeStream(1000).blocks(limit=1001))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_ordered_map_takes_a_generator_once_in_order(workers):
    pulled = []
    consumed = 0
    lock = threading.Lock()

    def items():
        for i in range(50):
            pulled.append(i)
            yield i

    def square(i):
        with lock:
            # the window: nothing is taken more than workers + 2 ahead
            assert len(pulled) <= consumed + workers + 2
        return i * i

    out = []
    for item, value in ordered_map(square, items(), workers):
        assert len(pulled) <= consumed + workers + 2
        out.append((item, value))
        with lock:
            consumed += 1
    assert out == [(i, i * i) for i in range(50)]
    assert pulled == list(range(50))


def test_block_column_is_built_once_under_concurrent_callers():
    # More threads than cores and a short switch interval: an unlocked
    # check-then-build would run the slow build more than once.
    block = PrimeBlock(0, 1, np.array([2, 3, 5], dtype=np.int64), 7)
    builds = []
    got = []
    start = threading.Barrier(8)

    def build():
        builds.append(1)
        time.sleep(0.01)  # every other caller arrives meanwhile
        return np.arange(3)

    def caller():
        start.wait(timeout=10)
        got.append(block.column("grid", build))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(got) == 8 and all(g is got[0] for g in got)
    assert block.column("other", lambda: "x") == "x" and len(builds) == 1


def test_nested_block_column_build_does_not_deadlock():
    # A builder that asks for another column of its block (say a grid
    # built on top of _jump_grid) re-enters the block's lock; with a
    # plain Lock this hung for ever.
    block = PrimeBlock(0, 1, np.array([2, 3, 5], dtype=np.int64), 7)
    got = []

    def caller():
        outer = block.column(
            "outer", lambda: block.column("inner", lambda: block.primes * 2) + 1)
        got.append((outer, block.column("inner", lambda: None)))

    t = threading.Thread(target=caller, daemon=True)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive(), "nested column build deadlocked"
    outer, inner = got[0]
    assert outer.tolist() == [5, 7, 11] and inner.tolist() == [4, 6, 10]
