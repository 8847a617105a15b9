import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.accum import (
    fixed_prefix_units,
    fixed_column_units,
    fixed_sum,
    fixed_units,
    fixed_value,
)
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


def test_fixed_column_units_sum_products_above_2_31_exactly():
    # The Selberg scan's products log p * theta(x // p) pass 2**31 near
    # x = 6.2e9; at 1e10 they reach about 3.5e9.  Each column, fed rows of
    # terms at a time, must still be the exactly rounded sum of its terms.
    rng = np.random.default_rng(5)
    pieces, terms = [], [[] for _ in range(300)]
    for _ in range(100):
        at = int(rng.integers(0, 300))
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 301 - at)))
        # large products mixed with small ones, whose low bits must survive,
        # and zeros, as outside a row's slice
        rows = np.select([rng.random(shape) < 0.4, rng.random(shape) < 0.7],
                         [rng.uniform(0.25, 10.0, shape), rng.uniform(2.0**31, 3.5e9, shape)])
        pieces.append((at, rows))
        for i, column in enumerate(rows.T.tolist()):
            terms[at + i] += column
    assert max(max(ts) for ts in terms if ts) > 2.0**31
    units = fixed_column_units(300, iter(pieces))
    assert [fixed_value(u) for u in units] == [math.fsum(ts) for ts in terms]
    assert fixed_column_units(0, iter([])) == []
    with pytest.raises(DomainError):
        fixed_units(np.array([3.5e9]))
