import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.accum import fixed_prefix_units, fixed_sum, fixed_units, fixed_value
from primegaps.errors import DomainError
from primegaps.sieve import BLOCK_PRIMES, primes_up_to


@pytest.fixture(scope="module")
def logsq_1e7():
    logs = np.log(primes_up_to(10**7).astype(np.float64))
    return logs * logs


def test_fixed_sum_equals_fsum_on_every_block_to_1e7(logsq_1e7):
    blocks = range(0, len(logsq_1e7), BLOCK_PRIMES)
    assert len(blocks) == 21
    for start in blocks:
        terms = logsq_1e7[start:start + BLOCK_PRIMES]
        assert fixed_sum(terms) == math.fsum(terms), start
    assert fixed_sum(logsq_1e7) == math.fsum(logsq_1e7)


_PRIMES_1E7 = 664579


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(0, _PRIMES_1E7 - 1),
    length=st.integers(1, 40000),
    step=st.integers(1, 7),
    split=st.floats(0.0, 1.0),
)
def test_fixed_sum_equals_fsum_on_prime_subsets(logsq_1e7, start, length, step, split):
    # every step-th prime of a slice: a random subset of the log^2 p terms
    terms = logsq_1e7[start:start + length * step:step]
    assert fixed_sum(terms) == math.fsum(terms)
    # a sum carried across a cut, as a fold carries it across blocks
    cut = int(split * len(terms))
    carried = fixed_units(terms[:cut]) + fixed_units(terms[cut:])
    assert fixed_value(carried) == math.fsum(terms)
    # running sums read at cuts, as the Selberg scan reads its runs
    cuts = [0, cut // 3, cut, len(terms)]
    prefix = fixed_prefix_units(terms, cuts)
    assert prefix == [fixed_units(terms[:c]) for c in cuts]
    assert [fixed_value(u) for u in prefix] == [math.fsum(terms[:c]) for c in cuts]


def test_fixed_sum_edges():
    assert fixed_units(np.empty(0)) == 0 and fixed_sum(np.empty(0)) == 0.0
    assert fixed_sum(np.array([0.25])) == 0.25
    # Exact sums halfway between two doubles (the last place of 1.5 * 2**31
    # is 2**-21) round to even, as math.fsum does: one down, one up.
    big = 1.5 * 2.0**30
    for tail, expected in ((2.0**-22, 0.0), (3 * 2.0**-22, 2.0**-20)):
        terms = np.array([big, big, 0.25 + tail, 0.75])
        assert fixed_sum(terms) == math.fsum(terms) == 2 * big + 1.0 + expected
    for bad in ([0.2, 1.0], [1.0, -1.0], [np.nan], [2.0**31]):
        with pytest.raises(DomainError):
            fixed_units(np.array(bad))
