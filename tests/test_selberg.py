import io
import math

import numpy as np
import pytest

from primegaps.errors import DomainError, RangeLimitError
from primegaps.runner import RowSink, run_scan
from primegaps.selberg import (
    PartialSumScan,
    gap_records,
    lemma_scan,
    partial_sum_scan,
    s1,
    s1_exceeds_s2,
    s2,
    s2_halfrange,
    selberg_residual_scan,
    selberg_sums_at,
    theta,
)

from .oracles import (
    pair_product_table,
    pair_terms_at,
    s1_longdouble,
    s2_pair_loop,
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
    assert s1_exceeds_s2(data_1e6, 10)
    assert s1_exceeds_s2(data_1e6, 4)
    rng = np.random.default_rng(31)
    for x in rng.integers(4, 10**6, size=25):
        assert s1_exceeds_s2(data_1e6, int(x))


def test_lemma_scan_matches_pointwise(data_1e6):
    xs = [4, 10, 101, 1009, 104729, 10**6]
    result = lemma_scan(data_1e6, xs)
    assert result.all_hold
    assert result.points == len(xs)
    margins = [s1(data_1e6, x) - s2(data_1e6, x, "ordered") for x in xs]
    assert result.min_margin == pytest.approx(min(margins), rel=1e-9)


def test_lemma_scan_every_prime_to_1e5(data_1e6):
    xs = data_1e6.primes[(data_1e6.primes >= 4) & (data_1e6.primes <= 10**5)]
    result = lemma_scan(data_1e6, xs)
    assert result.all_hold
    assert result.points == 9590
    assert result.min_margin_at == 5


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
        ref = selberg_sums_at(data_1e6, x)
        assert row.x == x
        assert row.s1 == pytest.approx(ref.s1, rel=1e-14)
        assert row.s2 == ref.s2 and row.s2_unordered == ref.s2_unordered
        assert row.residual_per_x == pytest.approx(ref.residual_per_x, rel=1e-13)
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


def test_gap_records_first_six(data_1e6):
    recs = gap_records(data_1e6, 6)
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
        scan = PartialSumScan(20000)
        state, finished = run_scan(
            data_1e6,
            scan,
            limit=data_1e6.nth(20001),
            workers=workers,
            sink=RowSink(buf),
        )
        assert finished
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]
