"""The |b| and Dusart scans' run bounds: the blocks they leave unevaluated
can neither violate nor set a maximum, so every result and row is that of
the same scans at every lane: the |b| reduce as it folds with rows, the
full-lane Dusart fold in ``oracles``.

No scipy here, so these also run under the oldest numpy allowed, whose
int64-against-float64 comparisons follow the rules before NEP 50.
"""

import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import fluct
from primegaps.analytic import DUSART_LOWER_MIN_X
from primegaps.fluct import RUN_LANES, BBoundScan, DusartScan, _jump_grid
from primegaps.runner import RowSink, run_scan
from primegaps.sieve import PrimeBlock, PrimeStream

from .oracles import RowCounter, fold_oracle


class _FullLaneDusart(DusartScan):
    """DusartScan with both bounds at every lane of every block, folded by
    the reference in ``oracles``, not by its own reduce."""

    def reduce(self, state, block, rows=False):
        return fold_oracle(self, state, block, rows)


class _FullLaneBBound(BBoundScan):
    """BBoundScan that evaluates b at every lane of every block, also
    without rows, as its reduce does with rows."""

    def reduce(self, state, block, rows=False):
        got = super().reduce(state, block, rows=True)
        return got if rows else None


def _plain(result):
    return json.loads(json.dumps(result.to_json()))


def _fold(data, scan, workers, stop=None, rows=True, **fold):
    """The result JSON and CSV bytes of ``scan``, with rows or without (a
    fold without a sink), stopped after ``stop`` blocks and resumed from
    its state as a checkpoint holds it."""
    buf = io.BytesIO()
    sink = RowSink(buf) if rows else None
    state, finished = run_scan(data, scan, workers=workers, sink=sink,
                               stop_after_blocks=stop, **fold)
    if stop is not None:
        assert not finished
        state = json.loads(json.dumps(state))
        state, finished = run_scan(data, scan, workers=workers, sink=sink,
                                   state=state, **fold)
    assert finished
    return _plain(scan.result(state)), buf.getvalue()


def _pairs(limit, bound, rows=True):
    """(scan, full-lane scan, rows) to fold alike."""
    pairs = [
        (DusartScan(limit), _FullLaneDusart(limit), True),
        (BBoundScan(limit, bound), _FullLaneBBound(limit, bound), False),
    ]
    # with rows every lane is evaluated: its CSV is checked on the table
    if rows:
        pairs.append((BBoundScan(limit, bound), _FullLaneBBound(limit, bound), True))
    return pairs


@pytest.mark.parametrize("bound", [5.0, 0.5])
@pytest.mark.parametrize("source", ["table", "stream"])
def test_run_bounds_fold_as_every_lane(data_1e6, source, bound):
    # At B = 5 nothing violates and the maximum is set at x = 10 in the
    # first block; at B = 0.5 lanes of later blocks reach B.  Blocks of
    # 1000 primes are short; to 3e7 the run bounds clear most blocks, and
    # the fold is stopped in the middle of them.
    if source == "table":
        limit, data = 10**6, data_1e6
        runs = [(fold, workers, stop) for fold in ({}, {"block_size": 1000})
                for workers in (1, 2) for stop in (None, 2)]
    else:
        limit = 3 * 10**7
        data = PrimeStream(limit)
        runs = [({}, 1, None), ({}, 2, 20)]
    for fold, workers, stop in runs:
        for scan, full, rows in _pairs(limit, bound, rows=source == "table"):
            got = _fold(data, scan, workers, stop, rows, **fold)
            assert got == _fold(data, full, workers, stop, rows, **fold), \
                (scan.name, rows, fold, workers, stop)
    if bound == 0.5:
        assert got[0]["violations"]


def test_run_bounds_leave_most_blocks_unevaluated(monkeypatch):
    # The point of the runs: to 3e7 the |b| scan evaluates b in its first
    # block only, and the Dusart scan its bounds in fewer than a quarter of
    # its blocks.  No fold evaluates part of a block's grid: each call
    # takes a whole grid (Dusart's from 32299 on), with a sink or without.
    limit = 3 * 10**7
    grids = {"bbound": {}, "dusart": {}}
    for block in PrimeStream(limit).blocks(limit=limit):
        xs = _jump_grid(block)[0]
        for name, lanes in (("bbound", xs), ("dusart", xs[xs >= DUSART_LOWER_MIN_X])):
            if len(lanes):
                grids[name][int(lanes[0]), int(lanes[-1]), len(lanes)] = block.index
    blocks = len(grids["bbound"])
    calls = []
    for name, at in (("bbound", "_b_at"), ("dusart", "_dusart_at")):
        def spy(xs, *rest, name=name, fn=getattr(fluct, at)):
            calls.append(grids[name].get((int(xs[0]), int(xs[-1]), len(xs))))
            return fn(xs, *rest)
        monkeypatch.setattr(fluct, at, spy)
    assert blocks > 50
    for rows in (False, True):
        evaluated = {}
        for scan in (BBoundScan(limit, 5.0), DusartScan(limit)):
            calls.clear()
            _, finished = run_scan(PrimeStream(limit), scan,
                                   sink=RowCounter() if rows else None)
            assert finished and None not in calls, (scan.name, rows)
            assert calls == sorted(set(calls))  # once per evaluated block
            evaluated[scan.name] = calls[:]
        # with a sink the |b| scan evaluates every block, to write its rows
        assert evaluated["bbound"] == (list(range(blocks)) if rows else [0])
        assert 0 < len(evaluated["dusart"]) < blocks // 4


# ----------------------------------------------------------------------
# Synthetic blocks: the run bounds take only an ascending grid with a
# non-decreasing pi, so the "primes" below are any ascending integers.


def _block(n0, primes, index=1):
    return PrimeBlock(index, n0, np.asarray(primes, dtype=np.int64), None)


def _reduced(scan, state, block, rows=False):
    """``state`` after ``scan`` folds ``block`` into a copy, and the rows."""
    state = copy.deepcopy(state)
    rows = scan.reduce(state, block, rows=rows)
    return state, None if rows is None else [col.tolist() for col in rows]


def _lower(xs):
    return fluct._dusart_at(np.asarray(xs, dtype=np.int64))[0]


def _upper(xs):
    return fluct._dusart_at(np.asarray(xs, dtype=np.int64))[1]


def _dusart_case(name):
    """(n0, primes) of one block that violates inside one run."""
    x0 = 1_000_003
    if name == "lower-mid-run":
        # pi 3 above the lower bound at the head; a gap of 300 puts it
        # below; a cluster of 40 lifts the tail 15 above.
        primes = [x0 + 14 * i for i in range(10)]
        primes += [primes[-1] + 300 + 2 * i for i in range(40)]
        return int(_lower([x0 - 1])[0]) + 4, primes
    if name == "upper-mid-run":
        # pi 3 below the upper bound at the head; a cluster of 30 takes it
        # above; a gap of 600 puts the tail 20 below.
        primes = [x0 + 2 * i for i in range(30)]
        primes += [primes[-1] + 600 + 14 * i for i in range(10)]
        return int(_upper([x0 - 1])[0]) - 2, primes
    # Near 4.5e15 a bound rises by about 1/36 from p - 1 to p, and its
    # doubles, ulps of 1/64 apart, are out of order at about one p in 500:
    # take a p where an integer falls between them, so that only the 1e-9 margins send the
    # two-lane run of p - 1 and p to its lanes.
    ps = np.arange(2**52 + 3, 2**52 + 3 + 2 * 200_000, 2, dtype=np.int64)
    if name == "lower-rounding":
        head, tail = _lower(ps - 1), _lower(ps)
        k = np.floor(head)
        i = int(np.flatnonzero(k > tail)[0])
        # pi(p - 1) = k <= lower(p - 1): a violation at the head
        return int(k[i]) + 1, [int(ps[i])]
    head, tail = _upper(ps - 1), _upper(ps)
    k = np.ceil(tail)
    i = int(np.flatnonzero(k < head)[0])
    # pi(p) = k >= upper(p): a violation at the tail
    return int(k[i]), [int(ps[i])]


@pytest.mark.parametrize("name", ["lower-mid-run", "upper-mid-run",
                                  "lower-rounding", "upper-rounding"])
def test_dusart_runs_keep_a_planted_violation(name):
    n0, primes = _dusart_case(name)
    block = _block(n0, primes)
    xs, pis = _jump_grid(block)
    assert len(xs) <= RUN_LANES  # one run
    scan, full = DusartScan(10**16), _FullLaneDusart(10**16)
    state = {"violations": [7], "checked": 11}
    got = _reduced(scan, state, block, rows=True)
    assert got == _reduced(full, state, block, rows=True)
    bad = got[0]["violations"][1:]
    assert bad and got[0]["checked"] == 11 + len(xs)
    if name.endswith("mid-run"):
        assert xs[0] < min(bad) and max(bad) < xs[-1]


def _bump():
    """(n0, primes) of one run with pi - E near 0 at both ends and about
    34 at a cluster of 40 in its middle: |b| about 0.09 there."""
    x0 = 1_000_003
    primes = [x0 + 14 * i for i in range(10)]
    primes += [primes[-1] + 14 + 2 * i for i in range(40)]
    primes += [primes[-1] + 470]
    e0 = fluct._expansion(np.array([x0 - 1.0]))[0]
    return int(round(e0)) + 1, primes


@pytest.mark.parametrize("running, bound", [
    pytest.param(0.05, 5.0, id="new-maximum"),
    pytest.param(4.72, 0.08, id="reaches-B-below-the-maximum"),
    pytest.param(0.05, 0.08, id="both"),
])
def test_bbound_runs_keep_a_planted_maximum_and_violation(running, bound):
    n0, primes = _bump()
    block = _block(n0, primes, index=5)
    xs, pis = _jump_grid(block)
    assert len(xs) <= RUN_LANES
    scan = BBoundScan(10**7, bound)
    state = {"max_abs": running, "max_at": 10, "violations": [10]}
    got = _reduced(scan, state, block)
    assert got == _reduced(_FullLaneBBound(10**7, bound), state, block)
    assert got[1] is None
    b = np.abs(fluct._b_at(xs, pis))
    assert 0.08 < b.max() < 0.1 and abs(b[0]) < 0.01 and abs(b[-1]) < 0.01
    if running < b.max():
        assert got[0]["max_at"] == int(xs[np.argmax(b)])
    assert got[0]["violations"][1:] == xs[b >= bound].tolist()


def _ends_case(name):
    """(n0, primes, running maximum) whose lane maximum only a bound with
    the head's L^3/x, or with the forced runs below x = 21, reaches."""
    if name == "below-21":
        # From a later block's maximum 3.5 (|b(2)| is 3.0): the maximum
        # 4.72 at x = 10 lies where L^3/x still rises and E falls.
        return 1, [2, 3, 5, 7, 11, 13], 3.5
    if name == "head-L3/x":
        # pi far above E: the maximum is at the head, where L^3/x is 5.7e-4
        # above its value at the tail, and pi - E at most 1 short of the
        # run's spread.
        return 10_001, [1001], None
    # Near 4.5e15 the doubles of E at p - 1 and at p, ulps of 1/64 apart,
    # are out of order at about one p in 500: there the run's tail has the
    # larger pi - E by their difference, which only the 1e-6 E slack covers.
    ps = np.arange(2**52 + 3, 2**52 + 3 + 2 * 200_000, 2, dtype=np.int64)
    eh, et = fluct._expansion(ps - 1.0), fluct._expansion(ps.astype(np.float64))
    i = int(np.flatnonzero(eh > et)[0])
    return int(round(et[i])) + 1000, [int(ps[i])], None


@pytest.mark.parametrize("name", ["below-21", "head-L3/x", "slack"])
def test_bbound_runs_bound_from_the_right_ends(name):
    n0, primes, running = _ends_case(name)
    block = _block(n0, primes)
    xs, pis = _jump_grid(block)
    b = np.abs(fluct._b_at(xs, pis))
    if running is None:
        running = float(b.max()) * (1.0 - 1e-6)
    scan = BBoundScan(10**16, 1e9)
    state = {"max_abs": running, "max_at": 7, "violations": []}
    got = _reduced(scan, state, block)
    assert got == _reduced(_FullLaneBBound(10**16, 1e9), state, block)
    assert got[0]["max_abs"] == float(b.max())
    assert got[0]["max_at"] == int(xs[np.argmax(b)])


def test_bbound_run_equal_to_the_running_maximum_leaves_its_place():
    # A later lane that only ties the running maximum does not move it:
    # _raise_max is strict, and the tie's run is evaluated.
    n0, primes = _bump()
    block = _block(n0, primes, index=5)
    xs, pis = _jump_grid(block)
    top = float(np.abs(fluct._b_at(xs, pis)).max())
    state = {"max_abs": top, "max_at": 10, "violations": []}
    got = _reduced(BBoundScan(10**7, 5.0), state, block)
    assert got[0] == state


@settings(max_examples=300, deadline=None)
@given(
    x0=st.integers(5, 10**15),
    gaps=st.lists(st.integers(1, 60), min_size=1, max_size=400),
    shift=st.integers(-40, 40),
    pick=st.integers(0, 10**6),
    below=st.booleans(),
    bound=st.sampled_from([0.05, 0.5, 5.0]),
)
def test_run_bounds_equal_every_lane_on_random_blocks(x0, gaps, shift, pick, below,
                                                      bound):
    # pi starts near E, and so near both Dusart bounds; the running maximum
    # is some lane's |b|, or the double just below it.
    primes = x0 + 2 * np.cumsum(gaps, dtype=np.int64)
    e0 = fluct._expansion(np.array([primes[0] - 1.0]))[0]
    block = _block(max(int(e0) + shift, 1), primes)
    xs, pis = _jump_grid(block)
    b = np.abs(fluct._b_at(xs, pis))
    running = float(b[pick % len(b)])
    if below:
        running = float(np.nextafter(running, 0.0))
    limit = max(int(primes[-1]), 10**6)
    state = {"max_abs": running, "max_at": 7, "violations": []}
    assert (_reduced(BBoundScan(limit, bound), state, block)
            == _reduced(_FullLaneBBound(limit, bound), state, block))
    state = {"violations": [], "checked": 0}
    assert (_reduced(DusartScan(limit), state, block, rows=True)
            == _reduced(_FullLaneDusart(limit), state, block, rows=True))
