import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from primegaps.analytic import (
    Constants,
    _EI_SWITCH,
    _GL_CHUNK,
    _GL_NODES,
    _GL_WEIGHTS,
    _SERIES_MAX_TERMS,
    _bprime_threshold,
    _dusart_bounds,
    _ei,
    _ei_asymptotic,
    _ei_series,
    _ei_series_scalar,
    _kprime_threshold,
    bprime_threshold,
    dusart_bounds,
    kprime_threshold,
    li,
    li_ascending,
    monotonicity_threshold,
    skewes_log10,
    skewes_mean_kprime,
    smooth_s1,
    smooth_s2,
)
from primegaps.errors import DomainError
from primegaps.fluct import _gap_pairs, _jump_grid
from primegaps.sieve import PrimeData

from .oracles import li_array_path, li_ascending_unchunked, li_quad

# Frozen from the adaptive-quadrature oracle (cross-checked against a
# 50-digit evaluation during development).
LI_1E6 = 78626.50399568206
LI_1E8 = 5762208.330284251


def test_li_at_lower_endpoint_is_zero():
    assert li(2) == 0.0


def test_li_frozen_values():
    assert li(10**6) == pytest.approx(LI_1E6, rel=1e-12)
    assert li(10**8) == pytest.approx(LI_1E8, rel=1e-12)
    assert li(10**6) == pytest.approx(li_quad(10**6), rel=1e-12)


def test_li_monotone():
    assert li(10**6) < li(10**6 + 1)


def test_li_domain_error():
    with pytest.raises(DomainError):
        li(1.5)
    with pytest.raises(DomainError):
        li(np.array([10.0, 1.0]))


def test_li_refuses_nan_and_infinity():
    # NaN passed the old `np.any(arr < 2.0)` test, and li(inf) came out
    # as NaN with a RuntimeWarning.
    for bad in (math.nan, math.inf, -math.inf, np.array([3.0, np.nan]),
                np.array([np.inf])):
        with pytest.raises(DomainError):
            li(bad)


def test_bounds_refuse_nan_and_infinity():
    for bad in (math.nan, math.inf, np.array([1e6, np.nan])):
        with pytest.raises(DomainError):
            dusart_bounds(bad)
        with pytest.raises(DomainError):
            bprime_threshold(bad, 1.0)
        with pytest.raises(DomainError):
            kprime_threshold(bad, 1.0)
    with pytest.raises(DomainError):
        bprime_threshold(101, math.nan)
    with pytest.raises(DomainError):
        kprime_threshold(101, math.nan)


def _series_stop(t):
    """The k at which the Ei power series at t breaks off."""
    term, total = 1.0, 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * t / k
        total += term / k
        if k % 8 == 0 and term < 1e-17 * total:
            return k
    return None


def test_scalar_ei_path_equals_the_array_series():
    ts = [_EI_SWITCH, float(np.nextafter(_EI_SWITCH, 0)), math.log(2.0),
          1e-3, 0.05, 0.3, 1.0, 2.0, 7.5, 20.0, 39.9]
    ts += list(np.log(np.arange(2, 4000, 37, dtype=np.float64)))
    ts += list(np.random.default_rng(7).uniform(1e-6, _EI_SWITCH, 300))
    assert {8, 16, 24} <= {_series_stop(t) for t in ts}
    for t in ts:
        ref = _ei_series(np.array([t]))[0]
        assert _ei_series_scalar(float(t)) == ref
        one = _ei(np.array([t]))
        assert one.shape == (1,) and one[0] == ref
        zero_d = _ei(np.float64(t))
        assert zero_d.shape == () and zero_d == ref
    # li on one point takes the scalar path; on an array, the array path
    xs = np.exp(np.array([t for t in ts if t > math.log(2.0)]))
    assert [li(float(x)) for x in xs] == li_array_path(xs).tolist()


def test_li_vectorized_matches_scalar():
    xs = np.array([2.0, 10.0, 1e4, 1e8])
    vec = li(xs)
    for i, x in enumerate(xs):
        assert vec[i] == li(float(x))


def test_li_against_quadrature_100_random_points():
    rng = np.random.default_rng(42)
    xs = np.exp(rng.uniform(math.log(2.0), math.log(1e9), size=100))
    for x in xs:
        x = float(x)
        assert li(x) == pytest.approx(li_quad(x), rel=1e-10)


def test_li_difference_is_the_integral():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = float(np.exp(rng.uniform(math.log(2.0), math.log(1e8))))
        b = a * float(np.exp(rng.uniform(0.5, 3.0)))
        segment, _ = quad(
            lambda t: 1.0 / math.log(t), a, b, epsabs=0.0, epsrel=2e-14, limit=400
        )
        assert li(b) - li(a) == pytest.approx(segment, rel=1e-10)


def test_ei_branches_agree_at_the_seam():
    ts = np.linspace(_EI_SWITCH - 0.5, _EI_SWITCH + 0.5, 21)
    series = _ei_series(ts.copy())
    asym = _ei_asymptotic(ts.copy())
    assert np.max(np.abs(series - asym) / np.abs(asym)) <= 1e-12


def test_li_asymptotic_branch_matches_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in (1e18, 1e20, 1e25):
        ref = float(mp.li(x) - mp.li(2))
        assert li(x) == pytest.approx(ref, rel=1e-12)


def _li_ascending_worst_rel(xs):
    fast = li_ascending(xs)
    ref = li(xs)
    assert fast[0] == ref[0]
    nz = ref != 0.0
    assert np.all(fast[~nz] == 0.0)
    return float(np.max(np.abs(fast[nz] - ref[nz]) / ref[nz]))


def test_li_ascending_on_scan_grids_to_1e7():
    # Every block exactly as the scans call it: the jump grid (p - 1, p)
    # of the ratio scan and the primes of the derivative scan.
    limit = 10**7
    data = PrimeData.build(limit)
    worst_grid = worst_primes = 0.0
    points = 0
    for block in data.blocks(limit=limit):
        xs, _ = _jump_grid(block)
        ps, succ = _gap_pairs(block, limit)
        ps_ext = np.concatenate([ps, [succ[-1]]]).astype(np.float64)
        worst_grid = max(worst_grid, _li_ascending_worst_rel(xs.astype(np.float64)))
        worst_primes = max(worst_primes, _li_ascending_worst_rel(ps_ext))
        points += len(xs)
    assert points == 2 * 664579 - 2  # every prime and every p - 1 but 1 and 2
    assert worst_grid <= 1e-12
    assert worst_primes <= 1e-12


def test_li_ascending_rule_is_10_point_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert tuple(nodes[5:]) == _GL_NODES
    assert tuple(weights[5:]) == _GL_WEIGHTS
    assert np.array_equal(nodes[:5], -nodes[:4:-1])
    assert np.array_equal(weights[:5], weights[:4:-1])


def test_li_ascending_anchor_equals_li():
    for xs in ([2.0, 3.0], [10.0, 11.0, 13.0], [1e8 - 1, 1e8], [7.5]):
        assert li_ascending(np.array(xs))[0] == li(xs[0])


def test_li_ascending_equal_neighbours_add_zero():
    out = li_ascending(np.array([1e6, 1e6, 1e6 + 2, 1e6 + 2]))
    assert out[0] == out[1]
    assert out[2] == out[3]
    assert li_ascending(np.array([2.0, 2.0, 2.0])).tolist() == [0.0, 0.0, 0.0]


def test_li_ascending_wide_steps_take_the_ei_difference():
    xs = np.array([2.0, 1e3, 1e9, 1e12])
    assert li_ascending(xs) == pytest.approx(li(xs), rel=1e-13)


def test_li_ascending_domain_errors():
    with pytest.raises(DomainError):
        li_ascending(np.array([10.0, 9.0]))
    with pytest.raises(DomainError):
        li_ascending(np.array([1.5, 3.0]))
    with pytest.raises(DomainError):
        li_ascending(np.array([3.0, np.nan]))
    for xs in ([3.0, np.inf], [np.inf], [np.inf, np.inf]):
        with pytest.raises(DomainError):
            li_ascending(np.array(xs))
    with pytest.raises(DomainError):
        li_ascending(np.array([[3.0, 4.0]]))
    assert len(li_ascending(np.array([]))) == 0


def test_li_ascending_chunks_equal_the_unchunked_kernel():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, _GL_CHUNK - 1, _GL_CHUNK, _GL_CHUNK + 1, _GL_CHUNK + 2,
              3 * _GL_CHUNK + 5):
        xs = 1e6 + np.cumsum(rng.integers(0, 200, size=n)).astype(np.float64)
        got = li_ascending(xs)
        assert got.shape == (n,)
        assert np.array_equal(got, li_ascending_unchunked(xs))
    # wide steps, which take the Ei difference, inside the second chunk
    xs = 1e3 + np.cumsum(rng.integers(0, 3, size=2 * _GL_CHUNK + 7)).astype(np.float64)
    for at, factor in ((_GL_CHUNK + 3, 2.0), (_GL_CHUNK + 900, 10.0),
                       (2 * _GL_CHUNK - 1, 1.6)):
        xs[at:] = xs[at:] - xs[at] + factor * xs[at - 1]
    assert np.count_nonzero(xs[1:] > 1.5 * xs[:-1]) == 3
    assert np.array_equal(li_ascending(xs), li_ascending_unchunked(xs))


def test_private_bound_helpers_equal_the_public_functions(data_1e6):
    block = list(data_1e6.blocks(limit=10**6))[-1]
    pf = block.primes.astype(np.float64)
    lg = np.log(pf)
    lower, upper = dusart_bounds(pf)
    mine = _dusart_bounds(pf, lg, lg**3)
    assert np.array_equal(mine[0], lower) and np.array_equal(mine[1], upper)
    for c in (1.0, 0.7, 2.0):
        assert np.array_equal(_bprime_threshold(pf, lg, c), bprime_threshold(pf, c))
        assert np.array_equal(_kprime_threshold(pf, lg, c), kprime_threshold(pf, c))


# Log-uniform points in [2, 1e12], and a cluster of prime-gap-sized
# steps so that the quadrature steps are drawn as well as the wide ones.
_X = st.floats(min_value=math.log(2.0), max_value=math.log(1e12)).map(
    lambda w: min(1e12, max(2.0, math.exp(w)))
)
_STEPS = st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=20)


@settings(max_examples=60, deadline=None)
@given(st.lists(_X, min_size=1, max_size=20), _X, _STEPS)
def test_li_ascending_property_against_mpmath(values, base, steps):
    import mpmath

    cluster = np.minimum(1e12, base + np.cumsum(steps))
    xs = np.sort(np.concatenate([values, [base], cluster]))
    out = li_ascending(xs)
    with mpmath.workdps(30):
        li2 = mpmath.li(2)
        refs = [float(mpmath.li(x) - li2) for x in xs]
    for got, ref in zip(out, refs):
        # Li vanishes at 2, where relative error loses its meaning; the
        # absolute floor only matters for values below 1.
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_smooth_closed_forms():
    assert smooth_s1(2) == pytest.approx(0.0, abs=1e-15)
    assert smooth_s1(math.e) == pytest.approx(2.0 - 2.0 * math.log(2.0), rel=1e-14)
    # frozen from 50-digit evaluation
    assert smooth_s1(104729) == pytest.approx(1105847.8798501122, rel=1e-12)
    assert smooth_s2(4) == pytest.approx(4.0 * math.log(2.0) - 4.0, rel=1e-14)
    assert smooth_s2(104729) == pytest.approx(928529.6550716109, rel=1e-12)


def test_smooth_difference_identity_20_points():
    rng = np.random.default_rng(11)
    xs = np.exp(rng.uniform(math.log(4.0), math.log(1e9), size=20))
    for x in xs:
        x = float(x)
        expected = (1.0 + math.log(2.0)) * x - 2.0 * math.log(2.0) - 2.0
        assert smooth_s1(x) - smooth_s2(x) == pytest.approx(expected, rel=1e-9)


def test_smooth_matches_high_precision_expansion():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(5)
    for x in np.exp(rng.uniform(math.log(2.0), math.log(1e10), size=20)):
        x = float(x)
        ref1 = float(mp.mpf(x) * mp.log(x) - mp.mpf(x) - 2 * mp.log(2) + 2)
        ref2 = float(mp.mpf(x) * mp.log(x) - (2 + mp.log(2)) * mp.mpf(x) + 4)
        assert smooth_s1(x) == pytest.approx(ref1, rel=1e-13, abs=1e-9)
        assert smooth_s2(x) == pytest.approx(ref2, rel=1e-13, abs=1e-9)


def test_dusart_bounds():
    lower, upper = dusart_bounds(10**6)
    # frozen from 50-digit evaluation
    assert lower == pytest.approx(78304.23595004140, rel=1e-12)
    assert upper == pytest.approx(78573.48707808090, rel=1e-12)
    assert lower < 78498 < upper
    x = 12345.0
    lg = math.log(x)
    lo, up = dusart_bounds(x)
    assert up - lo == pytest.approx(0.71 * x / lg**3, rel=1e-12)
    with pytest.raises(DomainError):
        dusart_bounds(1.0)


def test_monotonicity_threshold_values():
    assert monotonicity_threshold(1, 5) == pytest.approx(16.31, abs=0.01)
    assert monotonicity_threshold(1, 0) == pytest.approx(math.e, rel=1e-14)
    # frozen from 50-digit evaluation (exp(1/4 + sqrt(1/16 + 5)))
    assert monotonicity_threshold(2, 5) == pytest.approx(12.182493960703473, rel=1e-12)


def test_monotonicity_threshold_grid_monotone():
    bs = np.linspace(0.0, 9.0, 10)
    cs = np.linspace(0.5, 4.0, 8)
    for c in cs:
        vals = [monotonicity_threshold(float(c), float(b)) for b in bs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    for b in bs:
        vals = [monotonicity_threshold(float(c), float(b)) for c in cs]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_derivative_thresholds_at_zero_point():
    for c in (0.5, 1.0, 2.0):
        p = math.exp(1.0 / c)
        assert bprime_threshold(p, c) == pytest.approx(0.0, abs=1e-15)
        assert kprime_threshold(p, c) == pytest.approx(0.0, abs=1e-15)


def test_derivative_thresholds_frozen_values():
    # frozen from 50-digit evaluation at (p, c) = (101, 1)
    assert bprime_threshold(101, 1.0) == pytest.approx(-0.16519026602106806, rel=1e-12)
    assert kprime_threshold(101, 1.0) == pytest.approx(-0.0036594258674508740, rel=1e-12)


def test_derivative_thresholds_sign_and_decay():
    rng = np.random.default_rng(17)
    for c in (1.0, 1.5):
        ps = np.exp(rng.uniform(math.log(math.exp(1.0 / c) + 0.1), math.log(1e9), 50))
        assert np.all(bprime_threshold(ps, c) < 0)
        assert np.all(kprime_threshold(ps, c) < 0)
    # |k-threshold| strictly decreasing on [10, 1e6]
    grid = np.geomspace(10, 1e6, 200)
    vals = np.abs(kprime_threshold(grid, 1.0))
    assert np.all(np.diff(vals) < 0)
    # both tend to zero
    assert abs(bprime_threshold(1e15, 1.0)) < 1e-11
    assert abs(kprime_threshold(1e15, 1.0)) < 1e-9


def test_skewes_log10():
    assert skewes_log10(1.3) == pytest.approx(17.0, abs=0.1)
    assert skewes_log10(1.5) == pytest.approx(38.4, abs=0.1)
    assert skewes_log10(2.0) == pytest.approx(702.8, abs=0.5)
    with pytest.raises(OverflowError):
        skewes_log10(7.0)


def test_skewes_mean_kprime():
    assert skewes_mean_kprime(1e14) == pytest.approx(3.9788735772973834e-16, rel=1e-12)
    assert skewes_mean_kprime(1.0 / (8.0 * math.pi)) == pytest.approx(1.0, rel=1e-14)
    assert skewes_mean_kprime(2e14) == pytest.approx(
        skewes_mean_kprime(1e14) / 2.0, rel=1e-14
    )


@pytest.mark.parametrize("call", [
    lambda: monotonicity_threshold(math.nan, 5.0),
    lambda: monotonicity_threshold(1.0, math.nan),
    lambda: skewes_mean_kprime(math.nan),
    lambda: skewes_log10(math.nan),
], ids=["threshold-c", "threshold-B", "mean-kprime", "log10"])
def test_analytic_checks_refuse_nan(call):
    # Each returned nan: NaN fails no <= or < comparison.
    with pytest.raises(DomainError):
        call()


def test_constants_defaults_and_validation():
    c = Constants()
    assert c.c == 1.0
    assert c.B == 5.0
    assert c.K_rh == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-15)
    assert c.K_all == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert c.granville_c == pytest.approx(2.0 * math.exp(-0.5772156649015329), abs=1e-6)
    assert 0 < c.K_rh < c.K_all
    with pytest.raises(DomainError):
        Constants(B=-1.0)
    with pytest.raises(DomainError):
        Constants(K_all=0.01)
    # Fixed by theorem and conjecture: readable, not settable.
    with pytest.raises(TypeError):
        Constants(K_rh=0.5)
    with pytest.raises(TypeError):
        Constants(granville_c=1.0)
