import io
import math

import numpy as np
import pytest

from primegaps.analytic import bprime_threshold, kprime_threshold, li
from primegaps.errors import DomainError, PrimeGapsError, RangeLimitError
from primegaps.fluct import (
    bbound_scan,
    bprime_records,
    cg_scan,
    delta_samples,
    delta_scan,
    deriv_scan,
    dusart_scan,
    fluctuation_at,
    interpolate_derivative,
    kprime_records,
    schoenfeld_scan,
)
from primegaps.runner import RowSink, run_scan, run_to_end
from primegaps.fluct import CgScan, DerivScan

# Frozen regression values (1e6 scans, double-checked against the
# quadrature li oracle and hand evaluation at small x).
FLUCT_1E6_FHAT = 117.9186617784435
FLUCT_1E6_B = 0.3109448434712321
FLUCT_1E6_K = -0.009301429371204888
CG_MAX_FROM_N5_1E6 = 0.6812538256835908
CG_MAX_FROM_N5_AT_1E6 = 370261
SCHOENFELD_WINDOW_1E4_1E6 = 0.026721534427544946
SCHOENFELD_MAX_AFTER_2657_1E6 = 0.036106350003937956
BBOUND_MAX_1E6 = 4.7212545819681


def test_fluctuation_at_x2(data_1e6):
    s = fluctuation_at(data_1e6, 2)
    assert s.pi == 1
    assert s.li == 0.0
    assert s.f == 1.0
    assert s.k == pytest.approx(1.0 / (math.sqrt(2.0) * math.log(2.0)), rel=1e-14)


def test_fluctuation_at_1e6(data_1e6):
    s = fluctuation_at(data_1e6, 10**6)
    assert s.pi == 78498
    assert s.f == pytest.approx(78498 - li(10**6), rel=1e-12)
    assert s.fhat == pytest.approx(FLUCT_1E6_FHAT, rel=1e-10)
    assert s.b == pytest.approx(FLUCT_1E6_B, rel=1e-10)
    assert s.k == pytest.approx(FLUCT_1E6_K, rel=1e-10)


def test_fluctuation_sign_of_k_equals_sign_of_f(data_1e6):
    rng = np.random.default_rng(13)
    for x in rng.integers(2, 10**6, size=40):
        s = fluctuation_at(data_1e6, int(x))
        assert math.copysign(1.0, s.k) == math.copysign(1.0, s.f)


def test_fluctuation_range_error(data_1e6):
    with pytest.raises(RangeLimitError):
        fluctuation_at(data_1e6, 10**6 + 1)
    with pytest.raises(DomainError):
        fluctuation_at(data_1e6, 1)


# ----------------------------------------------------------------------
# cg scan


def test_cg_scan_violations_and_ratio(data_1e6):
    rep = cg_scan(data_1e6, 10**6, 1.0)
    assert rep.violations == [1, 2, 4]
    assert rep.max_ratio == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-14)
    assert rep.max_ratio_at == 2
    assert rep.thresholds["least_n_holds_onward"] == 5
    assert rep.thresholds["max_ratio_from_n5"] == pytest.approx(
        CG_MAX_FROM_N5_1E6, rel=1e-12
    )
    assert rep.thresholds["max_ratio_from_n5_at"] == CG_MAX_FROM_N5_AT_1E6


def test_cg_scan_larger_c_weakens(data_1e6):
    rep_granville = cg_scan(data_1e6, 10**6, 1.122918)
    rep_one = cg_scan(data_1e6, 10**6, 1.0)
    assert set(rep_granville.violations) <= set(rep_one.violations)


def test_cg_scan_limit_100():
    from primegaps.sieve import PrimeData

    data = PrimeData.build(200)
    rep = cg_scan(data, 100, 1.0)
    assert rep.violations == [1, 2, 4]


# ----------------------------------------------------------------------
# delta scan


def test_delta_samples_start(data_1e6):
    samples = delta_samples(data_1e6, 10, 1.0)
    assert samples[0].p == 2 and samples[0].delta == 0.0
    # delta(3) has the single term log^2 2 - g_1/c with g_1 = 1
    assert samples[1].p == 3
    assert samples[1].delta == pytest.approx(math.log(2.0) ** 2 - 1.0, rel=1e-14)


def test_delta_scan_violations_match_hand_check(data_1e6):
    assert delta_scan(data_1e6, 100, 1.0).violations == [1, 2, 4]
    assert delta_scan(data_1e6, 10**6, 1.0).violations == [1, 2, 4]


def test_delta_violations_equal_cg_violations(data_1e6):
    for c in (1.0, 1.122918, 2.0):
        dv = delta_scan(data_1e6, 10**5, c).violations
        cv = cg_scan(data_1e6, 10**5, c).violations
        assert dv == cv


def test_delta_telescoping(data_1e6):
    samples = delta_samples(data_1e6, 10**4, 1.0)
    for i in range(len(samples) - 1):
        p, g = samples[i].p, samples[i + 1].p - samples[i].p
        step = samples[i + 1].delta - samples[i].delta
        assert step == pytest.approx(math.log(p) ** 2 - g, abs=1e-9)


def test_delta_equals_partial_sum_view(data_1e6):
    # The discrete partial sums D(N) coincide with delta at the next prime.
    samples = delta_samples(data_1e6, 10**4, 1.0)
    c = 1.0
    running = 0.0
    for i in range(len(samples) - 1):
        p, nxt = samples[i].p, samples[i + 1].p
        running += math.log(p) ** 2 - (nxt - p) / c
        assert samples[i + 1].delta == pytest.approx(running, abs=1e-9)


def test_delta_hat_definition(data_1e6):
    samples = delta_samples(data_1e6, 10**3, 2.0)
    c = 2.0
    for s in samples[-5:]:
        expected = s.delta - s.p * math.log(s.p) + ((c + 1.0) / c) * s.p
        assert s.delta_hat == pytest.approx(expected, rel=1e-12)


def test_delta_scan_drift_recorded(data_1e6):
    res = delta_scan(data_1e6, 10**6, 1.0)
    # the two b reconstructions differ by an O(1)-scale drift that is
    # recorded, never asserted away
    assert res.max_bhat_drift > 0.0
    assert res.max_bhat_drift_at >= 2
    assert res.count == 78498


# ----------------------------------------------------------------------
# derivative records


def test_deriv_scan_violations(data_1e6):
    res = deriv_scan(data_1e6, 10**6, 1.0)
    assert res.b_violations == [(1, 2), (2, 3)]
    assert res.k_violations == [(1, 2), (2, 3)]
    assert res.b_pass() and res.k_pass()
    assert res.count == 78497


def test_bprime_records_match_independent_recomputation(data_1e6):
    recs = bprime_records(data_1e6, 10**5, 1.0)
    assert len(recs) == data_1e6.pi(10**5) - 1
    rng = np.random.default_rng(5)
    for i in rng.integers(0, len(recs) - 1, size=20):
        r = recs[int(i)]
        nxt = recs[int(i) + 1].p
        a = fluctuation_at(data_1e6, r.p)
        bnext = fluctuation_at(data_1e6, nxt)
        assert r.b_prime == pytest.approx((bnext.b - a.b) / (nxt - r.p), rel=1e-9)
        assert r.k_prime == pytest.approx((bnext.k - a.k) / (nxt - r.p), rel=1e-9)
        assert r.b_rhs == pytest.approx(bprime_threshold(r.p, 1.0), rel=1e-12)
        assert r.k_rhs == pytest.approx(kprime_threshold(r.p, 1.0), rel=1e-12)


def test_bprime_constant_case_passes_beyond_e():
    # A zero derivative always beats the (negative) threshold once p > e^(1/c).
    for c in (0.5, 1.0, 2.0):
        for p in (5, 101, 99991):
            if p > math.exp(1.0 / c):
                assert 0.0 > bprime_threshold(p, c)


def test_kprime_twin_gap_magnitude(data_1e6):
    recs = kprime_records(data_1e6, 10**4, 1.0)
    for r, nxt in zip(recs, recs[1:]):
        if nxt.p - r.p == 2:
            a = fluctuation_at(data_1e6, r.p)
            b = fluctuation_at(data_1e6, nxt.p)
            assert abs(r.k_prime) <= abs(b.k - a.k) / 2.0 + 1e-15


def test_kprime_sign_logic(data_1e6):
    recs = kprime_records(data_1e6, 10**4, 1.0)
    for r in recs:
        if r.p > math.e and r.k_prime >= 0:
            assert r.k_ok


def test_records_identical_across_workers(data_1e6):
    outs = []
    for workers in (1, 2, 8):
        buf = io.BytesIO()
        scan = DerivScan(10**5, 1.0)
        state, finished = run_scan(
            data_1e6, scan, limit=10**5, workers=workers, sink=RowSink(buf)
        )
        assert finished
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]


def test_run_to_end_raises_when_stopped_early(data_1e6):
    # An explicit error, not an assert, so it holds under python -O too.
    scan = CgScan(10**6, 1.0)
    assert run_to_end(data_1e6, scan, limit=10**6).violations == [1, 2, 4]
    with pytest.raises(PrimeGapsError, match="stopped at block 1"):
        run_to_end(data_1e6, scan, limit=10**6, stop_after_blocks=1)


def test_interpolate_derivative(data_1e6):
    recs = bprime_records(data_1e6, 10**3, 1.0)
    r5, r6 = recs[4], recs[5]
    assert interpolate_derivative(r5.p, recs) == r5.b_prime
    mid = (r5.p + r6.p) / 2.0
    assert interpolate_derivative(mid, recs) == pytest.approx(
        (r5.b_prime + r6.b_prime) / 2.0, rel=1e-12
    )
    eps = 1e-9
    left = interpolate_derivative(r6.p - eps, recs)
    right = interpolate_derivative(r6.p + eps, recs)
    assert left == pytest.approx(right, abs=1e-6)
    assert interpolate_derivative(r5.p, recs, field="k_prime") == r5.k_prime
    with pytest.raises(RangeLimitError):
        interpolate_derivative(1.0, recs)
    with pytest.raises(RangeLimitError):
        interpolate_derivative(10**6, recs)


# ----------------------------------------------------------------------
# jump-edge grid scans


def test_schoenfeld_scan(data_1e6):
    res = schoenfeld_scan(data_1e6, 10**6, windows={"w": (10**4, 10**6)})
    # ratio at x = 2 exceeds 1/3, so the enlarged bound needs a cutoff
    assert res.max_ratio == pytest.approx(
        1.0 / (math.sqrt(2.0) * math.log(2.0)), rel=1e-12
    )
    assert res.max_ratio_at == 2
    assert res.max_after_cutoff == pytest.approx(
        SCHOENFELD_MAX_AFTER_2657_1E6, rel=1e-10
    )
    assert res.max_after_cutoff_at == 2658
    assert res.max_after_cutoff <= 1.0 / (8.0 * math.pi)
    assert res.x_star == 4
    assert res.window_max["w"] == pytest.approx(SCHOENFELD_WINDOW_1E4_1E6, rel=1e-10)


def test_schoenfeld_k_negative_at_desk_scale(data_1e6):
    # pi(x) < Li(x) throughout the sieveable range: k stays negative.
    for p in data_1e6.primes[data_1e6.primes >= 10**3][::2000]:
        assert fluctuation_at(data_1e6, int(p)).k < 0


def test_bbound_scan(data_1e6):
    res = bbound_scan(data_1e6, 10**6, 5.0)
    assert res.passed()
    assert res.max_abs_b == pytest.approx(BBOUND_MAX_1E6, rel=1e-12)
    assert res.max_abs_b_at == 10
    assert res.max_abs_b_at < 10**3
    assert res.violations == []


def test_bbound_b_value_at_1e6(data_1e6):
    s = fluctuation_at(data_1e6, 10**6)
    assert abs(s.b) < 5.0
    assert s.b == pytest.approx(0.311, abs=5e-4)


def test_dusart_scan_clean(data_1e6):
    res = dusart_scan(data_1e6, 10**6)
    assert res.passed()
    assert res.violations == []
    assert res.checked > 0


def test_dusart_point_check(data_1e6):
    from primegaps.analytic import dusart_bounds

    assert data_1e6.pi(400000) == 33860
    lower, upper = dusart_bounds(400000)
    assert lower < 33860 < upper


def test_dusart_minimum_limit(data_1e6):
    with pytest.raises(DomainError):
        dusart_scan(data_1e6, 300000)
