import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.analytic import skewes_log10
from primegaps.errors import DomainError, InsufficientDataError, SingularFitError
from primegaps.fit import (
    FitScan,
    SampleScan,
    bin_average_k,
    fit_from_data,
    fit_skewes,
    sample_fluctuations,
)
from primegaps.fluct import FluctuationSample, fluctuation_at
from primegaps.runner import run_to_end
from primegaps.sieve import PrimeStream

from .oracles import sampled_indices


def _mk_samples(xs, ks):
    return [
        FluctuationSample(x=float(x), pi=0, li=0.0, f=0.0, fhat=0.0, b=0.0, k=float(k))
        for x, k in zip(xs, ks)
    ]


def _model_binned(a, alpha, xs):
    w = np.log(np.asarray(xs, dtype=np.float64))
    us = np.log(np.log(w))
    ks = -a * (alpha - us)
    return [(float(w[i]), float(ks[i])) for i in range(len(xs))]


def test_bin_average_single_bin_is_overall_mean():
    xs = np.geomspace(100, 10**6, 50)
    ks = np.linspace(-0.02, -0.01, 50)
    out = bin_average_k(_mk_samples(xs, ks), 1)
    assert len(out) == 1
    assert out[0][1] == pytest.approx(float(np.mean(ks)), rel=1e-14)


def test_bin_average_constant_k():
    xs = np.geomspace(100, 10**6, 200)
    out = bin_average_k(_mk_samples(xs, np.full(200, -0.01)), 10)
    assert len(out) == 10
    for _, k in out:
        assert k == pytest.approx(-0.01, rel=1e-14)


def test_bin_average_density():
    xs = np.geomspace(10**3, 10**6, 1000)
    ks = -0.01 * np.ones(1000)
    out = bin_average_k(_mk_samples(xs, ks), 20)
    assert len(out) == 20  # log-uniform samples leave no bin empty


def test_bin_average_errors():
    with pytest.raises(InsufficientDataError):
        bin_average_k([], 4)
    with pytest.raises(DomainError):
        bin_average_k(_mk_samples([10.0, 100.0], [-0.1, -0.1]), 4)
    with pytest.raises(DomainError):
        bin_average_k(_mk_samples([100.0, 50.0], [-0.1, -0.1]), 4)


def test_fit_exact_model_recovery():
    binned = _model_binned(0.2, 1.4, np.geomspace(100, 1e9, 40))
    res = fit_skewes(binned)
    assert res.A == pytest.approx(0.2, abs=1e-9)
    assert res.alpha == pytest.approx(1.4, abs=1e-9)
    assert res.rms_residual < 1e-12


def test_fit_alpha_13_gives_sk1_1e17():
    binned = _model_binned(0.15, 1.3, np.geomspace(100, 1e9, 30))
    res = fit_skewes(binned)
    assert res.log10_sk1 == pytest.approx(17.0, abs=0.1)
    assert res.log10_sk1 == pytest.approx(skewes_log10(res.alpha), rel=1e-9)


def test_fit_matches_lstsq_on_random_inputs():
    rng = np.random.default_rng(71)
    for _ in range(10):
        xs = np.geomspace(50, 1e10, 25)
        w = np.log(xs)
        us = np.log(np.log(w))
        ks = -0.05 * (1.2 - us) + rng.normal(0.0, 0.002, size=len(us))
        res = fit_skewes(list(zip(w.tolist(), ks.tolist())))
        design = np.column_stack([np.ones_like(us), us])
        beta, *_ = np.linalg.lstsq(design, ks, rcond=None)
        assert res.A == pytest.approx(beta[1], rel=1e-12, abs=1e-15)
        assert res.alpha == pytest.approx(-beta[0] / beta[1], rel=1e-12)


def test_fit_sensitivity_to_alpha():
    assert skewes_log10(1.5) / skewes_log10(1.3) > 2.0


def test_fit_errors():
    with pytest.raises(InsufficientDataError):
        fit_skewes([(3.0, -0.1), (4.0, -0.2)])
    with pytest.raises(SingularFitError):
        fit_skewes([(5.0, -0.1), (5.0, -0.2), (5.0, -0.3)])


def test_fit_drop_last_delta_reported():
    binned = _model_binned(0.2, 1.4, np.geomspace(100, 1e9, 12))
    res = fit_skewes(binned)
    assert res.alpha_drop_last_delta is not None
    assert abs(res.alpha_drop_last_delta) < 1e-9  # exact model: no drift


def test_sample_fluctuations_stride(data_1e6):
    samples = sample_fluctuations(data_1e6, 10**4, 10**6, stride=500)
    xs = [s.x for s in samples]
    assert xs == sorted(xs)
    assert all(10**4 <= x <= 10**6 for x in xs)
    assert len(samples) > 100
    thinned = sample_fluctuations(
        data_1e6, 10**4, 10**6, stride=500, per_decade=10
    )
    assert len(thinned) <= 30


def test_fit_from_real_data_1e6(data_1e6):
    res = fit_from_data(data_1e6, 10**4, 10**6)
    # loose sanity at the small desk range; the wide-range interval is
    # pinned in the acceptance suite
    assert res.A > 0
    assert 0.8 < res.alpha < 2.0
    assert res.log10_sk1 == pytest.approx(skewes_log10(res.alpha), rel=1e-9)
    assert res.bin_count >= 3
    assert math.isfinite(res.rms_residual)


@settings(max_examples=30, deadline=None)
@given(
    x_min=st.integers(2, 10**5),
    span=st.integers(1, 9 * 10**5),
    stride=st.integers(40, 3000),
    per_decade=st.none() | st.integers(1, 300),
    block_size=st.integers(1, 20000),
)
def test_sample_scan_equals_table_thinning(data_1e6, x_min, span, stride,
                                           per_decade, block_size):
    x_max = min(x_min + span, 10**6)
    if x_max <= x_min:
        return
    scan = SampleScan(x_min, x_max, stride=stride, per_decade=per_decade)
    samples = run_to_end(PrimeStream(x_max), scan, block_size=block_size)
    idx = sampled_indices(data_1e6.primes, x_min, x_max, stride, per_decade)
    assert [s.x for s in samples] == data_1e6.primes[idx].tolist()
    assert samples == [fluctuation_at(data_1e6, s.x) for s in samples]


def test_fit_scan_on_stream_equals_fit_from_data(data_1e6):
    streamed = run_to_end(PrimeStream(10**6), FitScan(10**4, 10**6))
    assert streamed == fit_from_data(data_1e6, 10**4, 10**6)
    with pytest.raises(DomainError):
        FitScan(10, 10**6)
    with pytest.raises(InsufficientDataError):
        run_to_end(PrimeStream(20000), FitScan(10**4, 20000))


class _NoBlocks:
    """A source that fails the test if a fold asks it for a block."""

    limit = 10**6

    def blocks(self, **kwargs):
        raise AssertionError("folded before refusing bin_count")


@pytest.mark.parametrize("bin_count", [0, -1])
def test_fit_scan_refuses_bin_count_below_one_before_folding(bin_count):
    with pytest.raises(DomainError, match="bin_count must be >= 1"):
        FitScan(10**4, 10**6, bin_count=bin_count)
    with pytest.raises(DomainError, match="bin_count must be >= 1"):
        fit_from_data(_NoBlocks(), 10**4, 10**6, bin_count=bin_count)
