import dataclasses
import io
import json
import math
import tracemalloc
from collections import namedtuple
from itertools import islice

import numpy as np
import pytest

from primegaps.analytic import bprime_threshold, kprime_threshold, li
from primegaps.errors import DomainError, PrimeGapsError, RangeLimitError
from primegaps.fluct import (
    bbound_scan,
    cg_scan,
    deriv_scan,
    dusart_scan,
    fluctuation_at,
    schoenfeld_scan,
)
from primegaps.runner import BlockScan, FusedScan, RowSink, run_scan, run_to_end
from primegaps.fluct import (
    BBoundScan,
    CgScan,
    DeltaScan,
    DerivScan,
    DusartScan,
    SchoenfeldScan,
    _jump_grid,
)
from primegaps.selberg import PartialSumScan
from primegaps.sieve import BLOCK_PRIMES, PrimeBlock, PrimeData, PrimeStream

from .oracles import deriv_records_li, fold_oracle, lane_rows_oracle

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

DeltaRow = namedtuple("DeltaRow", "p delta delta_hat")


def _delta_rows(data, limit, c):
    """The delta scan's CSV rows up to ``limit``, parsed."""
    buf = io.BytesIO()
    run_to_end(data, DeltaScan(limit, c), sink=RowSink(buf))
    lines = buf.getvalue().decode("ascii").splitlines()[1:]
    return [
        DeltaRow(int(p), float(d), float(dh))
        for p, d, dh in (line.split(",") for line in lines)
    ]


def test_delta_samples_start(data_1e6):
    samples = _delta_rows(data_1e6, 10, 1.0)
    assert samples[0].p == 2 and samples[0].delta == 0.0
    # delta(3) has the single term log^2 2 - g_1/c with g_1 = 1
    assert samples[1].p == 3
    assert samples[1].delta == pytest.approx(math.log(2.0) ** 2 - 1.0, rel=1e-14)


def test_delta_scan_violations_match_hand_check(data_1e6):
    assert run_to_end(data_1e6, DeltaScan(100, 1.0)).violations == [1, 2, 4]
    assert run_to_end(data_1e6, DeltaScan(10**6, 1.0)).violations == [1, 2, 4]


def test_delta_violations_equal_cg_violations(data_1e6):
    for c in (1.0, 1.122918, 2.0):
        dv = run_to_end(data_1e6, DeltaScan(10**5, c)).violations
        cv = cg_scan(data_1e6, 10**5, c).violations
        assert dv == cv


def test_delta_telescoping(data_1e6):
    samples = _delta_rows(data_1e6, 10**4, 1.0)
    for i in range(len(samples) - 1):
        p, g = samples[i].p, samples[i + 1].p - samples[i].p
        step = samples[i + 1].delta - samples[i].delta
        assert step == pytest.approx(math.log(p) ** 2 - g, abs=1e-9)


def test_delta_equals_partial_sum_view(data_1e6):
    # The discrete partial sums D(N) coincide with delta at the next prime.
    samples = _delta_rows(data_1e6, 10**4, 1.0)
    c = 1.0
    running = 0.0
    for i in range(len(samples) - 1):
        p, nxt = samples[i].p, samples[i + 1].p
        running += math.log(p) ** 2 - (nxt - p) / c
        assert samples[i + 1].delta == pytest.approx(running, abs=1e-9)


def test_delta_hat_definition(data_1e6):
    samples = _delta_rows(data_1e6, 10**3, 2.0)
    c = 2.0
    for s in samples[-5:]:
        expected = s.delta - s.p * math.log(s.p) + ((c + 1.0) / c) * s.p
        assert s.delta_hat == pytest.approx(expected, rel=1e-12)


def test_delta_scan_drift_recorded(data_1e6):
    res = run_to_end(data_1e6, DeltaScan(10**6, 1.0))
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


def test_deriv_scan_refuses_c_that_is_not_positive(data_1e6):
    # The map's thresholds take c unchecked; at the parent a NaN c gave
    # NaN thresholds and no violation at all.
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            deriv_scan(data_1e6, 10**4, c)


def test_bprime_records_match_independent_recomputation(data_1e6):
    recs = deriv_records_li(data_1e6, 10**5, 1.0)
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
    # The records take Li by the same pointwise li() as fluctuation_at:
    # li()'s own error near 4019 exceeds the 1e-15 slack.
    recs = deriv_records_li(data_1e6, 10**4, 1.0)
    for r, nxt in zip(recs, recs[1:]):
        if nxt.p - r.p == 2:
            a = fluctuation_at(data_1e6, r.p)
            b = fluctuation_at(data_1e6, nxt.p)
            assert abs(r.k_prime) <= abs(b.k - a.k) / 2.0 + 1e-15


def test_kprime_sign_logic(data_1e6):
    recs = deriv_records_li(data_1e6, 10**4, 1.0)
    for r in recs:
        if r.p > math.e and r.k_prime >= 0:
            assert r.k_ok


def test_deriv_scan_rows_match_pointwise_li_records(data_1e6):
    # The scan steps Li by li_ascending; the oracle takes li() per prime.
    buf = io.BytesIO()
    res = run_to_end(data_1e6, DerivScan(10**6, 1.0), sink=RowSink(buf))
    lines = buf.getvalue().decode("ascii").splitlines()
    assert lines[0] == "n,p,b_prime,k_prime,b_rhs,k_rhs,b_ok,k_ok"
    rows = [line.split(",") for line in lines[1:]]
    recs = deriv_records_li(data_1e6, 10**6, 1.0)
    assert len(rows) == len(recs) == res.count == 78497
    for row, r in zip(rows, recs):
        assert (int(row[0]), int(row[1])) == (r.n, r.p)
        assert float(row[2]) == r.b_prime
        assert abs(float(row[3]) - r.k_prime) <= 2e-14
        assert (row[6] == "true", row[7] == "true") == (r.b_ok, r.k_ok)


def test_records_identical_across_workers(data_1e6):
    outs = []
    for workers in (1, 2, 8):
        buf = io.BytesIO()
        scan = DerivScan(10**5, 1.0)
        state, finished = run_scan(data_1e6, scan, workers=workers, sink=RowSink(buf))
        assert finished
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]


def test_run_to_end_raises_when_stopped_early(data_1e6):
    # An explicit error, not an assert, so it holds under python -O too.
    scan = CgScan(10**6, 1.0)
    assert run_to_end(data_1e6, scan).violations == [1, 2, 4]
    with pytest.raises(PrimeGapsError, match="stopped at block 1"):
        run_to_end(data_1e6, scan, stop_after_blocks=1)


@pytest.mark.parametrize("source", ["table", "stream"])
def test_stop_on_the_last_block_is_finished(data_1e6, source):
    # 78 498 primes make three blocks: a stop after the third ran out the
    # blocks, a stop after the second did not.
    data = data_1e6 if source == "table" else PrimeStream(10**6, workers=2)
    scan = CgScan(10**6, 1.0)
    state, finished = run_scan(data, scan, stop_after_blocks=2)
    assert (state["block"], finished) == (2, False)
    state, finished = run_scan(data, scan, stop_after_blocks=3)
    assert (state["block"], finished) == (3, True)
    resumed, finished = run_scan(data, scan, state=json.loads(json.dumps(state)))
    assert (resumed["block"], finished) == (3, True)
    assert scan.result(state).violations == [1, 2, 4]


def _traced_peak(fold) -> int:
    tracemalloc.start()
    try:
        fold()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_fold_memory_does_not_grow_with_the_limit():
    # A fold over the stream holds a block and a segment, not the table:
    # its traced peak is the same at 1e7 and 4e7 and below a quarter of
    # the 4e7 table's 19.5 MB.  Over PrimeData the peaks are about 10 and
    # 37 MB.
    peaks = {
        limit: _traced_peak(lambda: run_to_end(PrimeStream(limit), CgScan(limit, 1.0)))
        for limit in (10**7, 4 * 10**7)
    }
    table_bytes = 8 * 2433654  # pi(4e7) int64 primes
    assert abs(peaks[4 * 10**7] - peaks[10**7]) < 0.1 * peaks[10**7]
    assert peaks[4 * 10**7] < table_bytes / 4


def _plain(result):
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _report_scans():
    return {
        "partial_sums": PartialSumScan(10**6),
        "cramer_granville": CgScan(10**6, 1.0),
        "conditions": DerivScan(10**6, 1.0),
        "schoenfeld": SchoenfeldScan(10**6, 1.0 / 3.0),
        "b_bound": BBoundScan(10**6, 5.0),
        "dusart": DusartScan(10**6),
    }


def test_fused_scan_resumed_equals_each_scan_alone(data_1e6):
    # Blocks of 8192 primes give the 1e6 table ten blocks, so the stop at
    # block 3 falls mid-run; the default size gives only three.
    fold = {"block_size": 8192}
    fused = FusedScan(_report_scans())
    state, finished = run_scan(data_1e6, fused, stop_after_blocks=3, **fold)
    assert not finished and state["block"] == 3
    state = json.loads(json.dumps(state))  # as a checkpoint stores it
    state, finished = run_scan(data_1e6, fused, workers=2, state=state, **fold)
    assert finished
    results = fused.result(state)
    for name, scan in _report_scans().items():
        alone = run_to_end(data_1e6, scan, **fold)
        # exact equality; the round trip only turns tuples into lists
        assert _plain(results[name]) == _plain(alone), name


@pytest.mark.parametrize(
    "make",
    [lambda: CgScan(1000, 1.0), lambda: DeltaScan(1000, 1.0),
     lambda: DerivScan(1000, 1.0), lambda: BBoundScan(1000, 5.0)],
    ids=["cg", "delta", "deriv", "bbound"],
)
def test_scan_limit_cuts_a_longer_source(make):
    # The scan's own limit ends the fold: over the primes up to 1e4 a scan
    # to 1000 sees pi(1000) = 168 primes, as over a source that ends there.
    longer = run_to_end(PrimeData.build(10**4), make())
    assert _plain(longer) == _plain(run_to_end(PrimeData.build(1000), make()))


class _Logged(BlockScan):
    """A part that logs its map and reduce of each block."""

    def __init__(self, name, log):
        self.name, self.limit, self.log = name, 1000, log

    def start(self):
        return {}

    def map_block(self, block):
        self.log.append(("map", self.name, block.index))
        return block.index

    def reduce(self, state, payload):
        self.log.append(("reduce", self.name, payload))
        return (np.array([payload]),)

    def header(self):
        return "index"


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_scan_maps_each_part_just_before_it_reduces(workers):
    # So only one part's payload is alive at a time, on any worker count;
    # the parts' rows are dropped.
    log = []
    fused = FusedScan({"a": _Logged("a", log), "b": _Logged("b", log)})
    state, finished = run_scan(PrimeData.build(1000), fused, block_size=50,
                               workers=workers)
    assert finished and state == {"a": {}, "b": {}, "block": 4}
    assert log == [(step, part, index) for index in range(4)
                   for part in "ab" for step in ("map", "reduce")]


def test_fused_scan_refuses_parts_with_different_limits():
    # Refused when built, so before any block is folded: a part cut at
    # another limit would not see the blocks it sees alone.
    with pytest.raises(DomainError, match="share one limit.*cg=1000, delta=2000"):
        FusedScan({"cg": CgScan(1000, 1.0), "delta": DeltaScan(2000, 1.0)})
    with pytest.raises(DomainError, match="share one limit"):
        FusedScan({"cg": CgScan(1000, 1.0), "partial_sums": PartialSumScan(999)})
    assert FusedScan({"cg": CgScan(1000, 1.0),
                      "partial_sums": PartialSumScan(1000)}).limit == 1000


def test_fused_scan_refuses_no_parts():
    # An empty fused scan has no limit to fold to.
    with pytest.raises(DomainError, match="a fused scan needs at least one part"):
        FusedScan({})


@pytest.mark.parametrize("workers", [0, -3])
def test_run_scan_refuses_workers_below_one(workers):
    # Such a count folded on one thread, where the sieve refused it; the
    # refusal comes before the header, so before any block.
    buf = io.BytesIO()
    with pytest.raises(DomainError, match=f"workers must be >= 1, got {workers}"):
        run_scan(PrimeData.build(10**4), DeltaScan(10**4, 1.0), workers=workers,
                 sink=RowSink(buf))
    assert buf.getvalue() == b""
    with pytest.raises(DomainError, match=f"workers must be >= 1, got {workers}"):
        cg_scan(PrimeData.build(10**4), 10**4, 1.0, workers=workers)


@pytest.mark.parametrize(
    "make, least",
    [(lambda limit: CgScan(limit, 1.0), 3), (lambda limit: DeltaScan(limit, 1.0), 3),
     (lambda limit: DerivScan(limit, 1.0), 5),
     (lambda limit: SchoenfeldScan(limit, 1.0 / 3.0), 10),
     (lambda limit: BBoundScan(limit, 5.0), 10), (DusartScan, 355992)],
    ids=["cg", "delta", "deriv", "schoenfeld", "bbound", "dusart"],
)
def test_scans_refuse_a_limit_below_their_least_when_built(make, least):
    # Refused by the constructor, so also where a scan is folded without
    # its wrapper function, before any header or row is written.
    with pytest.raises(DomainError, match=f"requires limit >= {least}"):
        make(least - 1)
    assert make(least).limit == least


def test_delta_scan_refuses_c_that_is_not_positive():
    # reduce divides by c, after run_scan has written the header row, so
    # the constructor refuses it first.
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="c > 0"):
            DeltaScan(1000, c)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, what", [
    # At c = inf the delta CSV had NaN in every delta_hat and a drift of 0.
    (lambda v: DeltaScan(1000, v), "the delta scan requires finite c > 0"),
    (lambda v: DerivScan(1000, v), "the deriv scan requires finite c > 0"),
    # A NaN B passed every lane, and min(running maximum, NaN) would
    # leave the |b| runs unchecked.
    (lambda v: BBoundScan(1000, v), "the bbound scan requires finite B > 0"),
    # bbound_scan folds without rows; its scan is refused before any block.
    (lambda v: bbound_scan(PrimeStream(1000), 1000, v),
     "the bbound scan requires finite B > 0"),
    # A NaN k_all put x_star at the first grid point, 2.
    (lambda v: SchoenfeldScan(1000, v), "the schoenfeld scan requires finite k_all > 0"),
], ids=["delta", "deriv", "bbound", "bbound-no-rows", "schoenfeld"])
def test_scans_refuse_constants_that_are_not_positive_and_finite(make, what, value):
    with pytest.raises(DomainError, match=what):
        make(value)


def test_fused_scan_folds_without_a_sink(data_1e6):
    fused = FusedScan({"cg": CgScan(1000, 1.0), "bbound": BBoundScan(1000, 5.0)})
    buf = io.BytesIO()
    with pytest.raises(DomainError, match="without a sink"):
        run_scan(data_1e6, fused, sink=RowSink(buf))
    assert buf.getvalue() == b""


@pytest.mark.parametrize("make", [
    lambda: BBoundScan(10**5, 5.0),
    lambda: SchoenfeldScan(10**5, 1.0 / 3.0),
    lambda: DerivScan(10**5, 1.0),
], ids=["bbound", "schoenfeld", "deriv"])
def test_scan_given_a_sink_writes_every_lanes_rows(data_1e5, make):
    # The sink, not the scan, decides the rows: given one, each scan that
    # clears lanes without rows writes a row for every lane.  A fused scan
    # is still refused one (test_fused_scan_folds_without_a_sink).
    buf = io.BytesIO()
    scan = make()
    result = run_to_end(data_1e5, scan, sink=RowSink(buf))
    lines = buf.getvalue().decode("ascii").splitlines()
    assert lines[0] == scan.header()
    lanes = (result.count if scan.name == "deriv"
             else 2 * data_1e5.pi(10**5) - 2)  # p and p - 1, less 1 and 3 - 1
    assert len(lines) - 1 == lanes


def test_deriv_scan_resumed_from_json_equals_uninterrupted(data_1e6):
    # A JSON checkpoint turns the violation tuples into lists; the
    # result must not show which of the two runs it came from.
    fold = {"block_size": 8192}
    scan = DerivScan(10**6, 1.0)
    state, finished = run_scan(data_1e6, scan, stop_after_blocks=3, **fold)
    assert not finished
    state = json.loads(json.dumps(state))
    state, finished = run_scan(data_1e6, scan, state=state, **fold)
    assert finished
    assert scan.result(state) == run_to_end(data_1e6, scan, **fold)


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


@pytest.mark.parametrize("block_size", [1, 2, 3, 7, 1000, 32768])
def test_jump_grid_is_every_edge_but_one_and_two(data_1e5, block_size):
    # (x, pi(x)) at p and p - 1 for each prime p, without x = 1 (below
    # the grid) and 3's p - 1 = 2 (prime 2's own lane), read-only.
    for block in islice(data_1e5.blocks(limit=10**5, block_size=block_size), 50):
        edges = [(x, data_1e5.pi(x)) for p in block.primes.tolist()
                 for x in ((p - 1, p) if p > 3 else (p,))]
        xs, pis = _jump_grid(block)
        assert list(zip(xs.tolist(), pis.tolist())) == edges
        assert xs.dtype == pis.dtype == np.int64
        assert not (xs.flags.writeable or pis.flags.writeable)


def test_jump_grid_built_once_per_block_in_a_fused_fold(monkeypatch):
    # schoenfeld, bbound and dusart read one grid per block, also when
    # two workers hand the fused scan its blocks.
    from primegaps import fluct

    calls = []
    build = fluct._build_jump_grid
    monkeypatch.setattr(fluct, "_build_jump_grid",
                        lambda block: calls.append(block.index) or build(block))

    def grid_scans():
        return {"schoenfeld": SchoenfeldScan(10**6, 1.0 / 3.0),
                "bbound": BBoundScan(10**6, 5.0), "dusart": DusartScan(10**6)}

    fold = {"block_size": 8192, "workers": 2}
    fused = run_to_end(PrimeStream(10**6), FusedScan(grid_scans()), **fold)
    assert sorted(calls) == list(range(10))
    for name, scan in grid_scans().items():
        assert _plain(fused[name]) == _plain(run_to_end(PrimeStream(10**6), scan, **fold))


def _same_bits(got, ref):
    if isinstance(ref, tuple):
        return (isinstance(got, tuple) and len(got) == len(ref)
                and all(_same_bits(g, r) for g, r in zip(got, ref)))
    if isinstance(ref, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == ref.dtype
                and np.array_equal(got, ref))
    return type(got) is type(ref) and got == ref


def test_block_folds_equal_the_reference_kernels_block_by_block(data_1e6):
    # The scalar Ei anchors, the chunked quadrature loop, the shared logs
    # and the cg candidate lanes must leave every row and state bit as the
    # plain forms give them.  Bits, not a pinned digest: numpy's log may
    # take another SIMD kernel on another CPU, and both sides here run on
    # the same one.  The Schoenfeld, derivative and |b| rows are checked at
    # every lane of each block; the cg, delta and Dusart folds carry their
    # states from block to block, against the reference folds', and both
    # the rows and the states are checked after every block.
    limit = 10**6
    lane_scans = [SchoenfeldScan(limit, 1.0 / 3.0), DerivScan(limit, 1.0),
                  DerivScan(limit, 0.7), DerivScan(limit, 1.0, "figure"),
                  BBoundScan(limit, 5.0)]
    fold_scans = [CgScan(limit, 1.0), CgScan(limit, 0.3), DusartScan(limit),
                  DeltaScan(limit, 1.0), DeltaScan(limit, 1.3)]
    # the scans' own blocks, and short ones for more Li anchors
    for block_size, count in ((BLOCK_PRIMES, 3), (5000, 16)):
        blocks = list(data_1e6.blocks(limit=limit, block_size=block_size))
        assert len(blocks) == count
        for block in blocks:
            for scan in lane_scans:
                got = scan.reduce(scan.start(), block, rows=True)
                assert _same_bits(got, lane_rows_oracle(scan, block)), \
                    (scan.name, block_size, block.index)
        for scan in fold_scans:
            state, ref = scan.start(), scan.start()
            for block in blocks:
                got = scan.reduce(state, block, rows=True)
                assert _same_bits(got, fold_oracle(scan, ref, block, rows=True)), \
                    (scan.name, block_size, block.index)
                assert json.dumps(state) == json.dumps(ref), \
                    (scan.name, block_size, block.index)


class _FullLaneCg(CgScan):
    """CgScan with a log and a ratio for every lane of every block, folded
    by the reference in ``oracles``, not by its own reduce."""

    def reduce(self, state, block, rows=False):
        return fold_oracle(self, state, block, rows)


def _cg_fold(data, scan, workers, **fold):
    buf = io.BytesIO()
    state, finished = run_scan(data, scan, workers=workers, sink=RowSink(buf), **fold)
    assert finished
    return _plain(scan.result(state)), buf.getvalue()


@pytest.mark.parametrize("c", [1.0, 0.5, 0.3, 2.5])
@pytest.mark.parametrize("source", ["table", "stream"])
def test_cg_candidate_lanes_fold_as_every_lane(data_1e6, source, c):
    # The lanes the map leaves without logs can neither violate nor set a
    # maximum: the result and the rows are those of the full-lane map.
    # Blocks of 1000 primes put n = 5 in the first block and give short
    # blocks whose first and last logs lie close together.
    limit = 10**6 if source == "table" else 3 * 10**7
    data = data_1e6 if source == "table" else PrimeStream(limit)
    for fold in ({}, {"block_size": 1000}) if source == "table" else ({},):
        for workers in (1, 2):
            got = _cg_fold(data, CgScan(limit, c), workers, **fold)
            assert got == _cg_fold(data, _FullLaneCg(limit, c), workers, **fold), \
                (fold, workers)
    assert got[1].count(b"\n") - 1 == len(got[0]["violations"])


def _cg_block_alone(scan, block):
    """A block folded into a fresh state: the state and the rows."""
    state = scan.start()
    rows = scan.reduce(state, block, rows=True)
    return state, None if rows is None else [col.tolist() for col in rows]


@pytest.mark.parametrize("c", [1.0, 0.3])
def test_cg_candidate_lanes_give_each_blocks_own_maxima(data_1e6, c):
    # Each block from a fresh state, so its own maxima count, not only
    # those that beat the earlier blocks; the short blocks start below and
    # around n = 5, and those of 1000 primes span wide log ranges.
    for limit, block_size in ((10**6, BLOCK_PRIMES), (10**6, 1000), (10**4, 3),
                              (10**4, 7)):
        scan = CgScan(limit, c)
        for block in data_1e6.blocks(limit=limit, block_size=block_size):
            got = _cg_block_alone(scan, block)
            assert got == _cg_block_alone(_FullLaneCg(limit, c), block), \
                (block_size, block.index)


@pytest.mark.parametrize("n0, p0, gaps, c, kept, ties", [
    # Near 1e18 the doubles log(p) of nearby p are equal, so equal gaps
    # give equal ratios: the maximum is placed at the first of the tie.
    # c log^2 p is about 1716 and 34.3: at c = 0.02 the gaps 40, 40 and
    # 38 violate as well.
    pytest.param(100, 10**18 + 9, [2, 40, 6, 40, 2, 38, 4], 1.0, [101, 103], 2,
                 id="tie"),
    pytest.param(100, 10**18 + 9, [2, 40, 6, 40, 2, 38, 4], 0.02,
                 [101, 103, 105], 2, id="tie-violating"),
    # The gap 40 violates by the map's c * (lg * lg), but c * L0 * L0
    # rounds above 40: the margin keeps the lane.
    pytest.param(100, 1_000_003, [40, 100], 0.20956846122082698, [100, 101], 1,
                 id="bound-up-to-rounding"),
    # Logs far apart: the largest ratio is not at the largest gap, but its
    # gap 12 reaches 14 (L0/L1)^2, about 7.1.
    pytest.param(100, 11, [12, 2, 2, 2, 14], 10.0, [100, 104], 1, id="wide-logs"),
    # A block that starts below n = 5 keeps every lane: the bound would
    # drop n = 5, the largest ratio from n = 5 on.
    pytest.param(3, 5, [20, 2, 2], 1.0, [3, 4, 5], 1, id="below-n5"),
])
def test_cg_candidate_lanes_on_synthetic_blocks(monkeypatch, n0, p0, gaps, c, kept,
                                                ties):
    from primegaps import fluct

    primes = p0 + np.cumsum([0, *gaps], dtype=np.int64)
    block = PrimeBlock(1, n0, primes[:-1], int(primes[-1]))
    scan = CgScan(2 * int(primes[-1]), c)
    # the reduce raises the overall maximum over the lanes it keeps
    raised, raise_max = [], fluct._raise_max

    def spy(state, key, at, values, xs):
        raised.append(xs.tolist())
        raise_max(state, key, at, values, xs)

    monkeypatch.setattr(fluct, "_raise_max", spy)
    state, rows = _cg_block_alone(scan, block)
    assert raised[0] == primes[np.array(kept) - n0].tolist()
    assert (state, rows) == _cg_block_alone(_FullLaneCg(scan.limit, c), block)
    # np.argmax is the first lane at the maximum
    lg = np.log(primes[:-1].astype(np.float64))
    ratio = np.diff(primes) / (lg * lg)
    assert np.count_nonzero(ratio == ratio.max()) == ties
    assert state["max_at"] == int(primes[int(np.argmax(ratio))])


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_cg_scan_refuses_c_that_is_not_positive_and_finite(c):
    with pytest.raises(DomainError, match="cg scan requires finite c > 0"):
        CgScan(1000, c)
