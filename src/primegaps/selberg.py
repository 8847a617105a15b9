"""Selberg-style prime sums S1 and S2 and the partial-sum gap test.

S1(x) sums log^2 p over primes p <= x.  S2(x) sums log p log q over
ordered prime pairs with pq <= x; it is evaluated through the
Chebyshev-theta prefix table with a hyperbola split,

    S2(x) = 2 * sum_{p <= sqrt(x)} log p * theta(x // p) - theta(isqrt(x))^2,

which touches pi(sqrt(x)) primes instead of pi(x/2).  A one-pass
variant over p <= x/2 and a direct pair loop (test oracle) pin the
value down independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import NeumaierSum, block_sum
from .errors import DomainError, RangeLimitError
from .runner import BlockScan, RowSink, run_to_end
from .sieve import PrimeData


def theta(data: PrimeData, y: int) -> float:
    """Chebyshev theta: sum of log p over primes p <= y."""
    if y > data.limit:
        raise RangeLimitError(
            f"theta({y}) is beyond the sieved limit {data.limit}"
        )
    if y < 2:
        return 0.0
    idx = int(np.searchsorted(data.primes, y, side="right"))
    return float(data.cumlog()[idx - 1]) if idx > 0 else 0.0


def s1(data: PrimeData, x: int) -> float:
    """Compensated sum of log^2 p over primes p <= x."""
    if x < 2:
        raise DomainError(f"s1 requires x >= 2, got {x}")
    if x > data.limit:
        raise RangeLimitError(f"s1({x}) is beyond the sieved limit {data.limit}")
    idx = int(np.searchsorted(data.primes, x, side="right"))
    logs = np.log(data.primes[:idx].astype(np.float64))
    return block_sum(logs * logs)


def _theta_at(data: PrimeData, ys: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(data.primes, ys, side="right")
    cumlog = data.cumlog()
    out = np.zeros(len(ys), dtype=np.float64)
    nz = idx > 0
    out[nz] = cumlog[idx[nz] - 1]
    return out


def s2(data: PrimeData, x: int, pairing: str = "ordered") -> float:
    """Sum of log p log q over prime pairs with pq <= x.

    "ordered" counts (p, q) and (q, p) separately; "unordered" counts
    each {p, q} once, keeping the diagonal.
    """
    if pairing not in ("ordered", "unordered"):
        raise DomainError(f"unknown pairing {pairing!r}")
    if x < 4:
        raise DomainError(f"s2 requires x >= 4, got {x}")
    if x // 2 > data.limit:
        raise RangeLimitError(
            f"s2({x}) needs primes up to {x // 2}, beyond the sieved "
            f"limit {data.limit}"
        )
    root = math.isqrt(x)
    idx = int(np.searchsorted(data.primes, root, side="right"))
    small = data.primes[:idx]
    logs = np.log(small.astype(np.float64))
    thetas = _theta_at(data, x // small)
    ordered = 2.0 * block_sum(logs * thetas) - theta(data, root) ** 2
    if pairing == "ordered":
        return ordered
    diagonal = s1(data, root)
    return (ordered - diagonal) / 2.0 + diagonal


def s2_halfrange(data: PrimeData, x: int) -> float:
    """Ordered S2 by the one-pass sum over p <= x/2 (cross-check path)."""
    if x < 4:
        raise DomainError(f"s2_halfrange requires x >= 4, got {x}")
    if x // 2 > data.limit:
        raise RangeLimitError(
            f"s2_halfrange({x}) needs primes up to {x // 2}, beyond the "
            f"sieved limit {data.limit}"
        )
    idx = int(np.searchsorted(data.primes, x // 2, side="right"))
    ps = data.primes[:idx]
    logs = np.log(ps.astype(np.float64))
    thetas = _theta_at(data, x // ps)
    return block_sum(logs * thetas)


def s1_exceeds_s2(data: PrimeData, x: int) -> bool:
    """True iff the ordered pair sum stays below the squared-log sum at x."""
    return s2(data, x, "ordered") < s1(data, x)


@dataclass(frozen=True)
class SelbergSums:
    """S1/S2 bundle at one evaluation point (s2 is the ordered value)."""

    x: int
    s1: float
    s2: float
    s2_unordered: float
    residual_per_x: float

    @property
    def lemma_holds(self) -> bool:
        return self.s2 < self.s1


def _sums_with_s1(data: PrimeData, x: int, v1: float) -> SelbergSums:
    v2 = s2(data, x, "ordered")
    v2u = s2(data, x, "unordered")
    residual = (v1 + v2 - 2.0 * x * math.log(x)) / x
    return SelbergSums(x, v1, v2, v2u, residual)


def selberg_sums_at(data: PrimeData, x: int) -> SelbergSums:
    return _sums_with_s1(data, x, s1(data, x))


def _running_s1(data: PrimeData, xs):
    """S1 at each ascending x: one fsum per run of new primes, carried compensated.

    ``log p`` is taken per run, so no table-sized temporary is made.
    """
    running = NeumaierSum()
    cut = 0
    for x in xs:
        nxt = int(np.searchsorted(data.primes, x, side="right"))
        if nxt > cut:
            logs = np.log(data.primes[cut:nxt].astype(np.float64))
            running.add(block_sum(logs * logs))
            cut = nxt
        yield running.value


def selberg_residual_scan(data: PrimeData, limits) -> list[SelbergSums]:
    """SelbergSums at each limit (ascending, each >= 4).

    S1 is carried incrementally along the limits, as in ``lemma_scan``;
    S2 is evaluated fresh per point.
    """
    xs = [int(x) for x in limits]
    for i, x in enumerate(xs):
        if x < 4:
            raise DomainError(f"residual scan points must be >= 4, got {x}")
        if i and x < xs[i - 1]:
            raise DomainError("residual scan points must be ascending")
    if xs and xs[-1] > data.limit:
        raise RangeLimitError(
            f"residual scan point {xs[-1]} beyond sieved limit {data.limit}"
        )
    return [
        _sums_with_s1(data, x, v1) for x, v1 in zip(xs, _running_s1(data, xs))
    ]


@dataclass(frozen=True)
class LemmaScanResult:
    points: int
    all_hold: bool
    failures: list
    min_margin: float
    min_margin_at: int


def lemma_scan(data: PrimeData, xs) -> LemmaScanResult:
    """Check S2(x) < S1(x) along ascending evaluation points.

    S1 is carried incrementally (fsum per gap between points, folded
    into a compensated running sum); S2 is evaluated fresh per point
    via the hyperbola split, so the sweep costs far less than
    independent S1 evaluations would.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if len(xs) == 0:
        raise DomainError("lemma_scan needs at least one evaluation point")
    if np.any(np.diff(xs) < 0):
        raise DomainError("lemma_scan points must be ascending")
    if xs[0] < 4:
        raise DomainError("lemma_scan points must be >= 4")
    if int(xs[-1]) > data.limit:
        raise RangeLimitError(
            f"lemma_scan point {int(xs[-1])} beyond sieved limit {data.limit}"
        )

    failures = []
    min_margin = math.inf
    min_at = 0
    for x, v1 in zip(xs.tolist(), _running_s1(data, xs)):
        v2 = s2(data, x, "ordered")
        margin = v1 - v2
        if margin < min_margin:
            min_margin = margin
            min_at = x
        if not v2 < v1:
            failures.append(x)
    return LemmaScanResult(len(xs), not failures, failures, min_margin, min_at)


@dataclass(frozen=True)
class PartialSumRecord:
    """Running gap sum vs running squared-log sum at index N."""

    N: int
    gap_sum: int
    logsq_sum: float
    holds: bool


class PartialSumScan(BlockScan):
    """Per-N comparison sum(g_n) < sum(log^2 p_n), folded over prime blocks.

    The gap sum is exact integer arithmetic; the squared-log sum is a
    compensated prefix.  Also verifies the telescoping identity
    gap_sum + 2 == p_{N+1} at every N.
    """

    name = "partial_sums"

    def __init__(self, n_max: int):
        if n_max < 2:
            raise DomainError(f"partial-sum scan needs n_max >= 2, got {n_max}")
        self.n_max = n_max

    def start(self) -> dict:
        return {
            "n_max": self.n_max,
            "logsq": [0.0, 0.0],
            "gap_sum": 0,
            "last_false": 0,
            "count": 0,
            "identity_exact": True,
        }

    def header(self):
        return "N,gap_sum,logsq_sum,holds"

    def map_block(self, block):
        ps = block.primes
        if block.succ is not None:
            succ = np.concatenate([ps[1:], [block.succ]])
        else:
            succ = ps[1:]
            ps = ps[:-1]
        logs = np.log(ps.astype(np.float64))
        terms = logs * logs
        local = np.cumsum(terms)
        return block.n0, ps, succ, local, block_sum(terms)

    def reduce(self, state, payload, sink):
        n0, ps, succ, local, total = payload
        if state["count"] >= self.n_max:
            return
        take = min(len(ps), self.n_max - state["count"])
        gap_cum = state["gap_sum"] + np.cumsum(succ[:take] - ps[:take])
        if not np.array_equal(gap_cum + 2, succ[:take]):
            state["identity_exact"] = False
        prefix = NeumaierSum.from_state(state["logsq"])
        logsq = prefix.value + local[:take]
        holds = gap_cum < logsq
        false_idx = np.nonzero(~holds)[0]
        if len(false_idx):
            state["last_false"] = n0 + int(false_idx[-1])
        if sink is not None:
            for i in range(take):
                sink.write(
                    f"{n0 + i},{gap_cum[i]},{float(logsq[i])!r},"
                    f"{str(bool(holds[i])).lower()}"
                )
        state["count"] += take
        if take:
            state["gap_sum"] = int(gap_cum[-1])
        if take == len(ps):
            prefix.add(total)
        else:
            prefix.add(block_sum((np.log(ps[:take].astype(np.float64))) ** 2))
        state["logsq"] = prefix.state()

    def result(self, state):
        return PartialSumResult(
            n_max=state["count"],
            n0=state["last_false"] + 1,
            identity_exact=state["identity_exact"],
            final_logsq=NeumaierSum.from_state(state["logsq"]).value,
        )


@dataclass(frozen=True)
class PartialSumResult:
    n_max: int
    n0: int
    identity_exact: bool
    final_logsq: float


def partial_sum_scan(data: PrimeData, n_max: int, *, sink: RowSink | None = None,
                     workers: int = 1) -> PartialSumResult:
    """Run the partial-sum comparison up to index n_max.

    Requires the sieve to contain at least n_max + 1 primes (the gap at
    index n_max needs its successor).
    """
    if n_max + 1 > len(data.primes):
        raise RangeLimitError(
            f"partial-sum scan to N={n_max} needs {n_max + 1} primes, "
            f"sieve holds {len(data.primes)}"
        )
    return run_to_end(
        data, PartialSumScan(n_max), limit=data.nth(n_max + 1), workers=workers,
        sink=sink,
    )


def gap_records(data: PrimeData, n_max: int) -> list[PartialSumRecord]:
    """Materialized PartialSumRecords for moderate n_max."""
    if n_max + 1 > len(data.primes):
        raise RangeLimitError(
            f"need {n_max + 1} primes for records to N={n_max}, "
            f"sieve holds {len(data.primes)}"
        )
    ps = data.primes[: n_max + 1].astype(np.int64)
    logs = np.log(ps[:-1].astype(np.float64))
    logsq = np.cumsum(logs * logs)
    gap_sum = ps[1:] - 2
    out = []
    for i in range(n_max):
        out.append(
            PartialSumRecord(
                i + 1, int(gap_sum[i]), float(logsq[i]), bool(gap_sum[i] < logsq[i])
            )
        )
    return out
