import io
import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.errors import DomainError, RangeLimitError
from primegaps.runner import RowSink, run_scan, run_to_end
from primegaps.selberg import (
    PartialSumScan,
    SelbergScan,
    lemma_scan,
    partial_sum_scan,
    s1,
    s2,
    selberg_residual_scan,
    theta,
)
from primegaps.sieve import PrimeData, PrimeStream

from .oracles import (
    pair_product_table,
    pair_terms_at,
    s1_longdouble,
    s2_halfrange,
    s2_pair_loop,
    selberg_sums_at,
)

# Values frozen from the long-double plain-loop / direct pair-loop oracles.
S1_10 = 8.064258676907489
S1_104729 = 1102735.1698017446
S2_10_ORDERED = 5.441556698148363
S2_10_UNORDERED = 3.5644793364395735
S2_104729_ORDERED = 830441.195464867
S2_104729_UNORDERED = 415947.9165022509
THETA_100 = 83.72839039906393


def test_s1_small_values(data_1e6):
    assert s1(data_1e6, 2) == pytest.approx(math.log(2.0) ** 2, rel=1e-15)
    assert s1(data_1e6, 10) == pytest.approx(S1_10, rel=1e-14)


def test_s1_dual_path_at_104729(data_1e6):
    assert s1(data_1e6, 104729) == pytest.approx(S1_104729, rel=1e-12)
    assert s1(data_1e6, 104729) == pytest.approx(
        s1_longdouble(data_1e6.primes, 104729), rel=1e-13
    )


def test_s1_errors(data_1e6):
    with pytest.raises(DomainError):
        s1(data_1e6, 1)
    with pytest.raises(RangeLimitError):
        s1(data_1e6, 10**7)


def test_theta_values(data_1e6):
    assert theta(data_1e6, 1) == 0.0
    assert theta(data_1e6, 10) == pytest.approx(math.log(210.0), rel=1e-14)
    assert theta(data_1e6, 100) == pytest.approx(THETA_100, rel=1e-13)
    with pytest.raises(RangeLimitError):
        theta(data_1e6, 10**6 + 1)


def test_s2_small_values(data_1e6):
    assert s2(data_1e6, 10, "ordered") == pytest.approx(S2_10_ORDERED, rel=1e-13)
    assert s2(data_1e6, 4, "ordered") == pytest.approx(math.log(2.0) ** 2, rel=1e-14)
    assert s2(data_1e6, 10, "unordered") == pytest.approx(S2_10_UNORDERED, rel=1e-13)
    with pytest.raises(DomainError):
        s2(data_1e6, 3)
    with pytest.raises(DomainError):
        s2(data_1e6, 10, "bogus")


def test_s2_theta_algorithm_vs_pair_loop_all_x_to_1e4(data_1e6):
    # Criterion-style oracle equivalence: every integer x in [4, 1e4].
    prods, terms = pair_product_table(data_1e6.primes, 10**4)
    prefix = np.concatenate([[0.0], np.cumsum(terms)])
    for x in range(4, 10**4 + 1):
        expected = prefix[np.searchsorted(prods, x, side="right")]
        assert abs(s2(data_1e6, x, "ordered") - expected) <= 1e-8


def test_s2_unordered_vs_pair_loop_sampled(data_1e6):
    rng = np.random.default_rng(23)
    for x in rng.integers(4, 10**4, size=12):
        x = int(x)
        assert s2(data_1e6, x, "unordered") == pytest.approx(
            s2_pair_loop(data_1e6.primes, x, "unordered"), abs=1e-8
        )


def test_s2_at_104729_both_conventions(data_1e6):
    assert s2(data_1e6, 104729, "ordered") == pytest.approx(
        S2_104729_ORDERED, rel=1e-12
    )
    assert s2(data_1e6, 104729, "unordered") == pytest.approx(
        S2_104729_UNORDERED, rel=1e-12
    )


def test_s2_halfrange_matches_hyperbola(data_1e6):
    for x in (10, 100, 104729, 10**6):
        assert s2_halfrange(data_1e6, x) == pytest.approx(
            s2(data_1e6, x, "ordered"), rel=1e-11
        )


def test_lemma_check(data_1e6):
    rng = np.random.default_rng(31)
    xs = sorted([10, 4, *rng.integers(4, 10**6, size=25).tolist()])
    assert lemma_scan(data_1e6, xs).all_hold


def test_lemma_scan_matches_pointwise(data_1e6):
    xs = [4, 10, 101, 1009, 104729, 10**6]
    result = lemma_scan(data_1e6, xs)
    assert result.all_hold
    assert result.points == len(xs)
    margins = [s1(data_1e6, x) - s2(data_1e6, x, "ordered") for x in xs]
    assert result.min_margin == min(margins)
    assert result.min_margin_at == xs[margins.index(min(margins))]


def test_lemma_scan_every_prime_to_1e5(data_1e6):
    xs = data_1e6.primes[(data_1e6.primes >= 4) & (data_1e6.primes <= 10**5)]
    result = lemma_scan(data_1e6, xs)
    assert result.all_hold
    assert result.points == 9590
    assert result.min_margin_at == 5


@pytest.mark.parametrize("xs, error", [
    ([], DomainError),
    ([10, 5], DomainError),
    ([3, 10], DomainError),
    ([10, 10**5 + 1], RangeLimitError),
], ids=["empty", "descending", "below-4", "past-the-table"])
def test_lemma_scan_refusals(data_1e5, xs, error):
    # SelbergScan refuses the points and the table refuses the range.
    with pytest.raises(error):
        lemma_scan(data_1e5, np.array(xs, dtype=np.int64))


def test_residual_scan(data_1e6):
    rows = selberg_residual_scan(data_1e6, [10**4, 10**5, 10**6])
    assert [r.x for r in rows] == [10**4, 10**5, 10**6]
    # s1 and s2 nondecreasing along the scan
    assert rows[0].s1 < rows[1].s1 < rows[2].s1
    assert rows[0].s2 < rows[1].s2 < rows[2].s2
    for r in rows:
        assert r.lemma_holds
        assert r.residual_per_x == pytest.approx(
            (r.s1 + r.s2 - 2.0 * r.x * math.log(r.x)) / r.x, rel=1e-12
        )
        # the residual-per-x stays bounded and of stable sign at desk scale
        assert -6.0 < r.residual_per_x < -3.0
    assert rows[0].s2_unordered < rows[0].s2


def test_residual_scan_matches_pointwise_sums(data_1e6):
    xs = [4, 10, 11, 11, 1000, 104729, 10**6]
    rows = selberg_residual_scan(data_1e6, xs)
    for x, row in zip(xs, rows):
        assert row == selberg_sums_at(data_1e6, x)
    assert rows[2] == rows[3]
    assert selberg_residual_scan(data_1e6, []) == []


def test_residual_scan_errors(data_1e6):
    with pytest.raises(DomainError):
        selberg_residual_scan(data_1e6, [10, 3])
    with pytest.raises(DomainError):
        selberg_residual_scan(data_1e6, [100, 10])
    with pytest.raises(RangeLimitError):
        selberg_residual_scan(data_1e6, [10, 10**6 + 1])


def test_residual_identity_incremental_at_100_random_x(data_1e6):
    # s1 + s2 must change by exactly the new terms across integer steps.
    rng = np.random.default_rng(47)
    primeset = set(data_1e6.primes[data_1e6.primes <= 10**4].tolist())
    for x in rng.integers(6, 10**4, size=100):
        x = int(x)
        ds1 = s1(data_1e6, x) - s1(data_1e6, x - 1)
        expected_s1 = math.log(x) ** 2 if x in primeset else 0.0
        assert ds1 == pytest.approx(expected_s1, abs=1e-8)
        ds2 = s2(data_1e6, x, "ordered") - s2(data_1e6, x - 1, "ordered")
        assert ds2 == pytest.approx(
            pair_terms_at(data_1e6.primes, x), abs=1e-8
        )


def test_selberg_sums_at_104729_difference(data_1e6):
    sums = selberg_sums_at(data_1e6, 104729)
    assert sums.s1 - sums.s2 == pytest.approx(272293.97433687793, rel=1e-10)
    assert sums.s1 - sums.s2_unordered == pytest.approx(686787.2532994939, rel=1e-10)


PartialSumRow = namedtuple("PartialSumRow", "N gap_sum logsq_sum holds")


def _partial_sum_rows(data, n_max):
    """The partial-sum scan's CSV rows up to index ``n_max``, parsed."""
    buf = io.BytesIO()
    run_to_end(data, PartialSumScan(data.nth(n_max)), sink=RowSink(buf))
    lines = buf.getvalue().decode("ascii").splitlines()[1:]
    return [
        PartialSumRow(int(n), int(g), float(lsq), holds == "true")
        for n, g, lsq, holds in (line.split(",") for line in lines)
    ]


def test_gap_records_first_six(data_1e6):
    recs = _partial_sum_rows(data_1e6, 6)
    assert [r.holds for r in recs] == [False, False, False, False, True, True]
    assert recs[0].gap_sum == 1
    assert recs[0].logsq_sum == pytest.approx(math.log(2.0) ** 2, rel=1e-14)
    assert recs[3].gap_sum == 9  # p_5 - 2
    for r in recs:
        assert r.gap_sum + 2 == data_1e6.nth(r.N + 1)


def test_partial_sum_scan_1e6(data_1e6):
    result = partial_sum_scan(data_1e6, len(data_1e6.primes) - 1)
    assert result.n0 == 5
    assert result.identity_exact
    assert result.n_max == 78497
    # final squared-log partial sum equals the one-shot compensated sum
    # over the same primes
    expected = s1(data_1e6, data_1e6.nth(78497))
    assert result.final_logsq == pytest.approx(expected, rel=1e-12)


def test_partial_sum_scan_range_check(data_1e6):
    with pytest.raises(RangeLimitError):
        partial_sum_scan(data_1e6, len(data_1e6.primes))


def test_partial_sum_rows_deterministic_across_workers(data_1e6):
    outs = []
    for workers in (1, 2, 8):
        buf = io.BytesIO()
        scan = PartialSumScan(data_1e6.nth(20000))
        state, finished = run_scan(data_1e6, scan, workers=workers, sink=RowSink(buf))
        assert finished
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.integers(4, 2 * 10**5), min_size=1, max_size=12),
    block_size=st.integers(1, 5000),
    workers=st.sampled_from([1, 2]),
)
def test_selberg_scan_on_stream_equals_table_scan(data_1e6, xs, block_size, workers):
    # theta is one running sum and S1 one exact integer, so the bits do
    # not depend on where the blocks are cut.
    xs = sorted(xs)
    stream = PrimeStream(xs[-1], segment_size=4096, workers=workers)
    rows = run_to_end(stream, SelbergScan(xs), block_size=block_size, workers=workers)
    assert rows == selberg_residual_scan(data_1e6, xs)
    assert rows == [selberg_sums_at(data_1e6, x) for x in xs]


def test_selberg_scan_resumed_from_json_at_every_block(data_1e6):
    xs = [4, 10, 11, 11, 1000, 104729, 500000, 10**6]
    fold = {"block_size": 2000}
    scan = SelbergScan(xs)
    expected = run_to_end(data_1e6, scan, **fold)
    state, finished = None, False
    most_open = 0
    while not finished:
        state, finished = run_scan(data_1e6, scan, state=state, stop_after_blocks=1,
                                   **fold)
        # one exact integer per open point
        assert all(type(units) is int for units in state["open"])
        most_open = max(most_open, len(state["open"]))
        state = json.loads(json.dumps(state))  # as a checkpoint stores it
    assert scan.result(state) == expected
    assert state["open"] == []
    assert 0 < most_open <= len(xs)


def test_selberg_scan_rows_at_every_prime_to_1e5(data_1e6):
    xs = data_1e6.primes[(data_1e6.primes >= 4) & (data_1e6.primes <= 10**5)]
    assert len(xs) == 9590
    buf = io.BytesIO()
    rows = run_to_end(data_1e6, SelbergScan(xs), sink=RowSink(buf))
    expected = [selberg_sums_at(data_1e6, x) for x in xs.tolist()]
    assert rows == expected
    lines = buf.getvalue().decode("ascii").splitlines()
    assert lines[0] == "x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds"
    assert [line.split(",") for line in lines[1:]] == [
        [str(e.x), repr(e.s1), repr(e.s2), repr(e.s2_unordered),
         repr(e.residual_per_x), "true" if e.lemma_holds else "false"]
        for e in expected
    ]


def test_selberg_scan_errors():
    for xs in ([], [3, 10], [100, 10], [10, 2**42]):
        with pytest.raises(DomainError):
            SelbergScan(xs)
    assert SelbergScan([2**42 - 1]).limit == 2**42 - 1


def test_selberg_scan_refuses_blocks_that_end_below_a_point():
    # The scan's limit is its last point, so a source that ends below it
    # refuses the blocks.  Folded to the source's end, the last block has
    # no successor and the scan would close the open points there, with
    # the sums up to that end (S1 = 309.09... at 100 for x = 1000).
    with pytest.raises(RangeLimitError, match="blocks up to 1000 are beyond the "
                       "sieved limit 100"):
        run_to_end(PrimeStream(100), SelbergScan([1000]))
    with pytest.raises(RangeLimitError, match=r"pi\(2000\) is beyond the sieved "
                       "limit 1000"):
        run_to_end(PrimeData.build(1000), SelbergScan([500, 2000]))


def test_partial_sum_scan_without_n_max_takes_every_gap(data_1e6):
    # A stream that ends at the scan's limit: the last prime has no
    # successor, so every gap of the source, as the CLI folds it.
    streamed = run_to_end(PrimeStream(10**6), PartialSumScan(10**6))
    assert streamed == partial_sum_scan(data_1e6, len(data_1e6.primes) - 1)
    assert streamed.n_max == 78497
    with pytest.raises(DomainError):
        PartialSumScan(1)
    with pytest.raises(TypeError):
        PartialSumScan()
