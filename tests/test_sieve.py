import numpy as np
import pytest

from primegaps.errors import DomainError, RangeLimitError, ResourceLimitError
from primegaps.sieve import SievePlan, nth_prime, prime_count, primes_up_to

from .oracles import trial_division_primes


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


def test_plan_validation():
    with pytest.raises(DomainError):
        SievePlan(1)
    with pytest.raises(DomainError):
        SievePlan(100, segment_size=32)
    with pytest.raises(DomainError):
        SievePlan(100, worker_count=0)
    with pytest.raises(DomainError):
        SievePlan(2**63 + 1)


def test_memory_budget_error_names_budget():
    with pytest.raises(ResourceLimitError, match="budget of 1024 bytes"):
        primes_up_to(10**7, memory_budget=1024)


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
    assert count == data_1e5.block_count(limit=10**4, block_size=500)
