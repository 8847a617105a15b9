"""The Schoenfeld and derivative scans folded without rows: the blocks they
clear without Li at every lane cannot change the result, so it is that of
the same scans folded with rows, which evaluate every lane.

No scipy here, so these also run under the oldest numpy allowed, whose
int64-against-float64 comparisons follow the rules before NEP 50.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import fluct
from primegaps.analytic import li
from primegaps.errors import DomainError
from primegaps.fluct import (
    SCHOENFELD_CUTOFF,
    BBoundScan,
    DerivScan,
    SchoenfeldScan,
    _jump_grid,
)
from primegaps.runner import FusedScan, run_scan
from primegaps.sieve import PrimeBlock, PrimeStream

from .oracles import RowCounter


def _parts(limit, windows):
    return {
        "schoenfeld": SchoenfeldScan(limit, 1.0 / 3.0, windows),
        "deriv": DerivScan(limit, 1.0),
        "deriv_c05": DerivScan(limit, 0.5),
    }


def _fold(data, scan, workers, stop=None, sink=None, **fold):
    """The scan's result JSON, the fold stopped after ``stop`` blocks and
    resumed from its state as a checkpoint holds it."""
    state, finished = run_scan(data, scan, workers=workers, stop_after_blocks=stop,
                               sink=sink, **fold)
    if stop is not None:
        assert not finished
        state = json.loads(json.dumps(state))
        state, finished = run_scan(data, scan, workers=workers, state=state,
                                   sink=sink, **fold)
    assert finished
    return json.loads(json.dumps(scan.result(state).to_json()))


@pytest.mark.parametrize("source", ["table", "stream"])
def test_cleared_folds_equal_every_lane(data_1e6, source):
    # The window ends inside the range, so later blocks clear; at 3e7 it is
    # the acceptance gate's 1e4..1e6, which its blocks evaluate.
    if source == "table":
        limit, data, windows = 10**6, data_1e6, {"mid": (10**4, 2 * 10**5)}
        runs = [(fold, workers, stop) for fold in ({}, {"block_size": 1000})
                for workers in (1, 2) for stop in (None, 1)]
    else:
        limit, windows = 3 * 10**7, {"1e4_1e6": (10**4, 10**6)}
        data = PrimeStream(limit)
        runs = [({}, 1, None), ({}, 2, 1)]
    for fold, workers, stop in runs:
        got = {}
        for name, scan in _parts(limit, windows).items():
            got[name] = _fold(data, scan, workers, stop, **fold)
            assert got[name] == _fold(data, scan, workers, stop, RowCounter(), **fold), \
                (name, fold, workers, stop)
    assert got["schoenfeld"]["window_max"][next(iter(windows))] > 0
    assert got["deriv_c05"]["k_violations"]


def test_cleared_folds_take_li_in_their_first_block_only(monkeypatch):
    # The point of the clearing: to 3e7 neither scan evaluates Li past its
    # first block, where the running maximum past the cutoff and x_star
    # are set and the gaps are too wide for their bound.
    schoenfeld_at, deriv_block = fluct._schoenfeld_at, fluct._deriv_block
    exact = {"schoenfeld": [], "deriv": []}
    monkeypatch.setattr(fluct, "_schoenfeld_at", lambda xs, pis: (
        exact["schoenfeld"].append(int(xs[0])) or schoenfeld_at(xs, pis)))
    monkeypatch.setattr(fluct, "_deriv_block", lambda ps_ext, n0, c: (
        exact["deriv"].append(n0) or deriv_block(ps_ext, n0, c)))
    limit = 3 * 10**7
    scan = FusedScan({"schoenfeld": SchoenfeldScan(limit, 1.0 / 3.0),
                      "deriv": DerivScan(limit, 1.0)})
    state, finished = run_scan(PrimeStream(limit), scan)
    assert finished and state["block"] > 50
    assert exact == {"schoenfeld": [2], "deriv": [1]}


def test_the_sink_decides_which_lanes_the_default_scans_evaluate(monkeypatch):
    # The scans as built with their defaults: folded without a sink they
    # evaluate lanes only where the run bounds let them, all in block 0
    # (for Li too); given a sink, every lane, to write its row.  The
    # results are the same.
    limit = 3 * 10**7
    lanes = []

    def spy(name):
        fn = getattr(fluct, name)
        monkeypatch.setattr(fluct, name,
                            lambda *args: lanes.append(len(args[0])) or fn(*args))

    for name in ("_schoenfeld_at", "_deriv_block", "_b_at"):
        spy(name)
    for scan in (SchoenfeldScan(limit, 1.0 / 3.0), DerivScan(limit, 1.0),
                 BBoundScan(limit, 5.0)):
        lanes.clear()
        state, finished = run_scan(PrimeStream(limit), scan)
        assert finished and state["block"] > 50
        # no lane past block 0: a later block is evaluated whole or not at all
        assert lanes[0] > 0 and not any(lanes[1:]), scan.name
        cleared = json.loads(json.dumps(scan.result(state).to_json()))
        lanes.clear()
        sink = RowCounter()
        state, finished = run_scan(PrimeStream(limit), scan, sink=sink)
        assert finished and len(lanes) == state["block"]
        # the derivative scan's extended blocks hold one prime past the pairs
        every = sum(lanes) - (len(lanes) if scan.name == "deriv" else 0)
        assert every == sink.rows == (state["count"] if scan.name == "deriv"
                                      else 2 * 1857859 - 2)  # 2 pi(3e7) - 2
        assert json.loads(json.dumps(scan.result(state).to_json())) == cleared


def test_sink_mode_is_records_or_figure():
    # The scans take no rows setting: a fold without a sink asks for none.
    for mode in ("figur", None):
        with pytest.raises(DomainError, match="sink_mode"):
            DerivScan(1000, 1.0, sink_mode=mode)
    assert DerivScan(1000, 1.0, sink_mode="figure").header() == "p,k_prime,rhs24"


# ----------------------------------------------------------------------
# Synthetic blocks: the bounds take any ascending "primes" with any count
# at the first, so pi - Li is planted through n0.


def _block(n0, primes, index=1):
    return PrimeBlock(index, n0, np.asarray(primes, dtype=np.int64), None)


def _reduced(scan, state, block, rows=False):
    """``state`` after ``scan`` maps and folds ``block`` into a copy."""
    state = copy.deepcopy(state)
    scan.reduce(state, scan.map_block(block), rows=rows)
    return state


def _schoenfeld(windows=None):
    return SchoenfeldScan(10**7, 1.0 / 3.0, windows)


def _bump(x0=1_000_003):
    """(n0, primes) of one run with pi - Li near 0 at both ends and about 34
    at a cluster of 40 in its middle."""
    primes = [x0 + 14 * i for i in range(10)]
    primes += [primes[-1] + 14 + 2 * i for i in range(40)]
    primes += [primes[-1] + 470]
    return int(round(li(x0 - 1.0))) + 1, primes


def _ratios(block):
    xs, pis = _jump_grid(block)
    return xs, fluct._schoenfeld_at(xs, pis)[1]


def _state(max_tail, x_star=4, windows=()):
    return {"max_ratio": 1.02, "max_at": 2, "max_tail": max_tail,
            "max_tail_at": 2658, "x_star": x_star,
            "windows": {name: 0.0 for name in windows}}


@pytest.fixture
def cleared(monkeypatch):
    """``fold(scan, state, block)``: the state ``scan`` leaves without rows,
    checked against the state it leaves with rows, at every lane, and
    whether it left the block's ratio unevaluated without rows."""
    seen = []
    schoenfeld_at = fluct._schoenfeld_at
    monkeypatch.setattr(fluct, "_schoenfeld_at", lambda xs, pis: (
        seen.append(int(xs[0])) or schoenfeld_at(xs, pis)))

    def fold(scan, state, block):
        want = _reduced(scan, state, block, rows=True)
        seen.clear()
        got = _reduced(scan, state, block)
        assert got == want
        return got, not seen
    return fold


@pytest.mark.parametrize("running", ["above-run-bound", "run-bound", "largest-lane",
                                     "below-largest-lane"])
def test_schoenfeld_run_bound_against_the_running_tail_maximum(running, cleared):
    # The largest ratio lies mid-run, where no end shows it: only the bound
    # from pi at one end and Li at the other reaches it.
    block = _block(*_bump())
    xs, ratio = _ratios(block)
    assert len(xs) <= fluct.RUN_LANES
    assert ratio.max() > 20 * max(ratio[0], ratio[-1])
    scan = _schoenfeld()
    (bound,) = fluct._schoenfeld_runs(block)
    assert ratio.max() < bound < 2 * ratio.max()
    top = {"above-run-bound": float(np.nextafter(bound, 1.0)),
           "run-bound": float(bound), "largest-lane": float(ratio.max()),
           "below-largest-lane": float(np.nextafter(ratio.max(), 0.0))}[running]
    state = _state(top)
    got, clear = cleared(scan, state, block)
    # a run bound tied with the maximum is not below it
    assert clear == (running == "above-run-bound")
    if running == "below-largest-lane":
        assert got["max_tail"] == float(ratio.max())
        assert got["max_tail_at"] == int(xs[np.argmax(ratio)])
    else:
        assert got == state


def test_schoenfeld_window_that_ends_mid_run_is_evaluated(cleared):
    block = _block(*_bump())
    xs, ratio = _ratios(block)
    hi = int(xs[len(xs) // 2])
    windows = {"w": (10**4, hi)}
    got, clear = cleared(_schoenfeld(windows), _state(1.0, windows=windows), block)
    assert not clear
    assert got["windows"]["w"] == float(ratio[xs <= hi].max())


def test_schoenfeld_block_without_x_star_is_evaluated(cleared):
    # x_star is None after a block whose last lane exceeds k_all; the next
    # block without a violation puts it at its first lane.
    block = _block(*_bump())
    got, clear = cleared(_schoenfeld(), _state(1.0, x_star=None), block)
    assert not clear
    assert got["x_star"] == int(_jump_grid(block)[0][0])


def test_schoenfeld_lanes_past_k_all_below_the_maximum_are_evaluated(cleared):
    # Lanes above k_all move x_star, also below the running maximum.
    block = _block(*_bump())
    xs, ratio = _ratios(block)
    k_all = float(ratio.max()) / 2
    got, clear = cleared(SchoenfeldScan(10**7, k_all), _state(1.0), block)
    assert not clear
    assert got["x_star"] == int(xs[np.flatnonzero(ratio > k_all)[-1] + 1])


def test_schoenfeld_block_at_the_cutoff_is_evaluated(cleared):
    # A fold's maximum past the cutoff is set only once its blocks are past
    # it; the reduce does not lean on that, so this state, which no fold
    # reaches, is evaluated too.
    primes = [2591, 2593, 2609, 2617, 2621, 2633, 2647, 2657, 2659, 2663]
    block = _block(377, primes)
    assert _jump_grid(block)[0][0] <= SCHOENFELD_CUTOFF
    got, clear = cleared(_schoenfeld(), {**_state(1.0), "max_ratio": 0.0}, block)
    assert not clear
    assert got["max_ratio"] > 0


def _gap_block(f0, gap, x0=1_000_003):
    """(n0, primes) with pi - Li about ``f0`` at x0, gaps of 14 and one of
    ``gap`` at its 60th prime."""
    primes = [x0 + 14 * i for i in range(60)]
    primes += [primes[-1] + gap + 14 * i for i in range(5)]
    return int(round(li(float(x0)))) + f0, primes


def _deriv_state(scan, block, rows=False):
    return _reduced(scan, scan.start(), block, rows)


def _clears(block, c):
    """Whether the k side's and the b side's gap bounds clear ``block``."""
    ps, succ = fluct._gap_pairs(block, 10**7)
    return fluct._gaps_clear(block, ps, succ, c)


@pytest.mark.parametrize("c", [1.0, 0.6])
@pytest.mark.parametrize("f0", [0, 2000, -2000])
def test_deriv_gap_just_under_and_just_over_the_bound(f0, c):
    gap = 1
    while all(_clears(_block(*_gap_block(f0, gap + 1)), c)):
        gap += 1
    lg = np.log(1_000_003.0)
    assert 0.5 * c * lg * lg < gap < c * lg * lg
    for g, clear in ((gap, True), (gap + 1, False)):
        block = _block(*_gap_block(f0, g))
        assert all(_clears(block, c)) is clear
        scan = DerivScan(10**7, c)
        got = _deriv_state(scan, block)
        assert got == _deriv_state(scan, block, rows=True), (g, clear)
        assert not got["k_violations"] and not got["b_violations"]


@pytest.mark.parametrize("f0", [2000, -2000])
def test_deriv_gap_below_c_log2_p_that_fails_is_found(f0):
    # With f = pi - Li = 2000, and fhat = pi - E about 2170, a gap of
    # 0.94 c L^2 fails both k' > k_rhs and b' > b_rhs: the |f| (rho - 1)
    # and |fhat| t terms of the two eps are what send the block to its
    # lanes.  At f = -2000 the same terms help, and the lane holds.
    block = _block(*_gap_block(f0, 180))
    scan = DerivScan(10**7, 1.0)
    got = _deriv_state(scan, block)
    assert got == _deriv_state(scan, block, rows=True)
    assert bool(got["k_violations"]) == bool(got["b_violations"]) == (f0 > 0)
    assert _clears(block, 1.0) == (False, False)


@settings(max_examples=300, deadline=None)
@given(
    x0=st.integers(5, 10**12),
    gaps=st.lists(st.integers(1, 400), min_size=2, max_size=300),
    shift=st.integers(-3000, 3000),
    scale=st.sampled_from([0.5, 1.0, 1.01, 1.1, 2.0, 10.0]),
    below=st.booleans(),
    x_star=st.sampled_from([None, 4]),
    window=st.booleans(),
    k_all=st.sampled_from([1.0 / 3.0, 1e-3]),
    c=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_cleared_reduce_equals_every_lane_on_random_blocks(x0, gaps, shift, scale, below,
                                                           x_star, window, k_all, c):
    # pi starts near Li, shifted; the running maximum past the cutoff is a
    # multiple of the block's largest ratio, or the double just below it.
    primes = x0 + np.cumsum(gaps, dtype=np.int64)
    block = _block(max(int(li(float(primes[0]))) + shift, 1), primes)
    top = float(_ratios(block)[1].max()) * scale
    if below:
        top = float(np.nextafter(top, 0.0))
    windows = {"w": (x0, x0 + 1000)} if window else {}
    scan = SchoenfeldScan(10**7, k_all, windows)
    state = _state(top, x_star, windows)
    assert _reduced(scan, state, block) == _reduced(scan, state, block, rows=True)
    scan = DerivScan(10**7, c)
    want = _deriv_state(scan, block, rows=True)
    assert _deriv_state(scan, block) == want
    # each side's bound holds on its own
    k_clear, b_clear = _clears(block, c)
    assert not (k_clear and want["k_violations"])
    assert not (b_clear and want["b_violations"])
