"""Selberg-style prime sums S1 and S2 and the partial-sum gap test.

S1(x) sums log^2 p over primes p <= x.  S2(x) sums log p log q over
ordered prime pairs with pq <= x; it is evaluated through Chebyshev
theta with a hyperbola split,

    S2(x) = 2 * sum_{p <= sqrt(x)} log p * theta(x // p) - theta(isqrt(x))^2,

which touches pi(sqrt(x)) primes instead of pi(x/2).  The pointwise
functions read theta from the ``PrimeData.cumlog`` table; ``SelbergScan``
answers the same theta queries while it folds over the prime blocks, and
carries S1 as one exact integer, so ``selberg`` and ``report`` need no
table.  The test suite checks S2 against a one-pass sum over p <= x/2
and a direct pair loop.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .accum import (
    NeumaierSum,
    block_sum,
    fixed_prefix_units,
    fixed_sum,
    fixed_value,
)
from .errors import DomainError, RangeLimitError
from .fluct import _gap_pairs
from .runner import BlockScan, RowSink, run_to_end
from .sieve import PrimeData, primes_up_to


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


def _logs(primes: np.ndarray) -> np.ndarray:
    return np.log(primes.astype(np.float64))


def s1(data: PrimeData, x: int) -> float:
    """Exactly rounded sum of log^2 p over primes p <= x."""
    if x < 2:
        raise DomainError(f"s1 requires x >= 2, got {x}")
    if x > data.limit:
        raise RangeLimitError(f"s1({x}) is beyond the sieved limit {data.limit}")
    idx = int(np.searchsorted(data.primes, x, side="right"))
    logs = _logs(data.primes[:idx])
    return fixed_sum(logs * logs)


def _theta_at(data: PrimeData, ys: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(data.primes, ys, side="right")
    cumlog = data.cumlog()
    out = np.zeros(len(ys), dtype=np.float64)
    nz = idx > 0
    out[nz] = cumlog[idx[nz] - 1]
    return out


def _s2_ordered(logs: np.ndarray, thetas: np.ndarray) -> float:
    """Ordered S2(x) from log p and theta(x // p) over the primes p <= sqrt(x).

    theta(isqrt(x)) is the last running sum of ``logs``, with the bits of
    the ``cumlog`` table.
    """
    theta_root = float(np.cumsum(logs)[-1])
    return 2.0 * block_sum(logs * thetas) - theta_root ** 2


def _s2_unordered(ordered: float, logs: np.ndarray) -> float:
    """Unordered S2 from the ordered one: each {p, q} once, keeping the diagonal."""
    diagonal = fixed_sum(logs * logs)
    return (ordered - diagonal) / 2.0 + diagonal


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
    idx = int(np.searchsorted(data.primes, math.isqrt(x), side="right"))
    small = data.primes[:idx]
    logs = _logs(small)
    ordered = _s2_ordered(logs, _theta_at(data, x // small))
    if pairing == "ordered":
        return ordered
    return _s2_unordered(ordered, logs)


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


def _sums(x: int, v1: float, v2: float, v2u: float) -> SelbergSums:
    return SelbergSums(x, v1, v2, v2u, (v1 + v2 - 2.0 * x * math.log(x)) / x)


class SelbergScan(BlockScan):
    """SelbergSums at ascending points (each >= 4), folded over the prime blocks.

    ``reduce`` carries theta, the running sum of log p, as one ``np.cumsum``
    per block whose first term is the previous block's last value, which
    gives the bits of ``PrimeData.cumlog``.  The S2 queries x // p, for
    the primes p <= sqrt(x) of every point, are answered in ascending
    order as the blocks pass; a point's S2 is taken once its last query,
    x // 2, is answered, so the state holds theta values only for the
    points still open.  S1 is one exact integer, the sum of log^2 p in
    units of 2**-54, carried across the whole fold; a row takes it
    rounded once, so each S1 has the bits of ``s1(data, x)``.  ``reduce``
    returns the rows a block closes.  The scan's ``limit`` is
    its last point, so a source that ends below it raises
    ``RangeLimitError`` before the first block.
    """

    name = "selberg"

    def __init__(self, xs):
        xs = [int(x) for x in xs]
        if not xs:
            raise DomainError("the Selberg scan needs at least one point")
        for i, x in enumerate(xs):
            if x < 4:
                raise DomainError(f"residual scan points must be >= 4, got {x}")
            if i and x < xs[i - 1]:
                raise DomainError("residual scan points must be ascending")
        self.xs = xs
        self.limit = xs[-1]
        small = primes_up_to(math.isqrt(xs[-1]))
        self._small_logs = _logs(small)
        self._n_small = np.searchsorted(small, np.array([math.isqrt(x) for x in xs]),
                                        side="right").tolist()
        ys = np.concatenate([x // small[:n] for x, n in zip(xs, self._n_small)])
        owners = np.repeat(np.arange(len(xs)), self._n_small)
        order = np.argsort(ys, kind="stable")
        self._query_y = ys[order]
        self._query_owner = owners[order].tolist()

    def start(self) -> dict:
        return {
            "theta": 0.0,
            "query": 0,
            "open": {},
            "s2": {},
            "s1": 0,
            "rows": [],
        }

    def header(self):
        return "x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds"

    def map_block(self, block):
        logs = _logs(block.primes)
        cuts = np.searchsorted(block.primes, self.xs, side="right")
        prefix = fixed_prefix_units(logs * logs, cuts)
        # runs[k]: the exact sum over the block's primes in (x[k-1], x[k]]
        runs = [b - a for a, b in zip([0, *prefix], prefix)]
        return block.primes, block.succ, logs, cuts.tolist(), runs

    def reduce(self, state, payload):
        ps, succ, logs, cuts, runs = payload
        cum = np.cumsum(np.concatenate([[state["theta"]], logs]))[1:]
        state["theta"] = float(cum[-1])
        first = state["query"]
        end = (len(self._query_y) if succ is None
               else int(np.searchsorted(self._query_y, succ, side="left")))
        at = np.searchsorted(ps, self._query_y[first:end], side="right") - 1
        for k, value in zip(self._query_owner[first:end], cum[at].tolist()):
            thetas = state["open"].setdefault(str(k), [])
            thetas.append(value)
            if len(thetas) == self._n_small[k]:
                # answered from x // 2 down, so reversed to ascending p
                del state["open"][str(k)]
                logs_k = self._small_logs[: len(thetas)]
                ordered = _s2_ordered(logs_k, np.array(thetas[::-1]))
                state["s2"][str(k)] = [ordered, _s2_unordered(ordered, logs_k)]
        state["query"] = end

        closed = []
        for k in range(len(state["rows"]), len(self.xs)):
            state["s1"] += runs[k]
            x = self.xs[k]
            if cuts[k] == len(ps) and succ is not None and succ <= x:
                break  # primes <= x lie beyond this block
            row = [x, fixed_value(state["s1"]), *state["s2"].pop(str(k))]
            state["rows"].append(row)
            closed.append(_sums(*row))
        if not closed:
            return None
        cols = map(np.array, zip(*map(astuple, closed)))
        return (*cols, np.array([s.lemma_holds for s in closed]))

    def result(self, state) -> list[SelbergSums]:
        return [_sums(*row) for row in state["rows"]]


def selberg_residual_scan(data: PrimeData, limits) -> list[SelbergSums]:
    """SelbergSums at each limit (ascending, each >= 4): ``SelbergScan`` over ``data``."""
    xs = [int(x) for x in limits]
    if not xs:
        return []
    return run_to_end(data, SelbergScan(xs))


_S1_CHUNK = 1 << 16


@dataclass(frozen=True)
class LemmaScanResult:
    points: int
    all_hold: bool
    failures: list
    min_margin: float
    min_margin_at: int


def lemma_scan(data: PrimeData, xs) -> LemmaScanResult:
    """Check S2(x) < S1(x) along ascending evaluation points.

    S1 at every point is the exactly rounded ``s1(data, x)``, read from
    one exact running sum over the primes, taken 65 536 at a time; S2 is
    evaluated fresh per point via the hyperbola split, so the sweep costs
    far less than independent S1 evaluations would.
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

    cuts = np.searchsorted(data.primes, xs, side="right")
    s1s = []
    units = 0
    for lo in range(0, int(cuts[-1]), _S1_CHUNK):
        hi = min(lo + _S1_CHUNK, int(cuts[-1]))
        logs = _logs(data.primes[lo:hi])
        inside = cuts[(cuts > lo) & (cuts <= hi)] - lo
        *at_cuts, total = fixed_prefix_units(logs * logs, [*inside, hi - lo])
        s1s += [fixed_value(units + u) for u in at_cuts]
        units += total

    failures = []
    min_margin = math.inf
    min_at = 0
    for x, v1 in zip(xs.tolist(), s1s):
        v2 = s2(data, x, "ordered")
        margin = v1 - v2
        if margin < min_margin:
            min_margin = margin
            min_at = x
        if not v2 < v1:
            failures.append(x)
    return LemmaScanResult(len(xs), not failures, failures, min_margin, min_at)


class PartialSumScan(BlockScan):
    """Per-N comparison sum(g_n) < sum(log^2 p_n), folded over prime blocks.

    The gap sum is exact integer arithmetic; the squared-log sum is a
    compensated prefix.  Also verifies the telescoping identity
    gap_sum + 2 == p_{N+1} at every N.  The rows run over the primes
    p_N <= ``limit`` whose successor the fold sees: over a source that
    ends at ``limit``, every gap of the source.
    """

    name = "partial_sums"

    def __init__(self, limit: int):
        if limit < 2:
            raise DomainError(f"partial-sum scan needs limit >= 2, got {limit}")
        self.limit = limit

    def start(self) -> dict:
        return {
            "logsq": [0.0, 0.0],
            "gap_sum": 0,
            "last_false": 0,
            "count": 0,
            "identity_exact": True,
        }

    def header(self):
        return "N,gap_sum,logsq_sum,holds"

    def map_block(self, block):
        ps, succ = _gap_pairs(block, math.inf)  # every successor the fold sees
        logs = _logs(ps)
        terms = logs * logs
        local = np.cumsum(terms)
        return block.n0, ps, succ, local, fixed_sum(terms)

    def reduce(self, state, payload):
        n0, ps, succ, local, total = payload
        gap_cum = state["gap_sum"] + np.cumsum(succ - ps)
        if not np.array_equal(gap_cum + 2, succ):
            state["identity_exact"] = False
        prefix = NeumaierSum.from_state(state["logsq"])
        logsq = prefix.value + local
        holds = gap_cum < logsq
        false_idx = np.nonzero(~holds)[0]
        if len(false_idx):
            state["last_false"] = n0 + int(false_idx[-1])
        state["count"] += len(ps)
        if len(ps):
            state["gap_sum"] = int(gap_cum[-1])
        prefix.add(total)
        state["logsq"] = prefix.state()
        return np.arange(n0, n0 + len(ps)), gap_cum, logsq, holds

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
    """Run the partial-sum comparison up to index n_max: ``PartialSumScan``
    up to the prime p_{n_max}.

    Requires the sieve to contain at least n_max + 1 primes (the gap at
    index n_max needs its successor).
    """
    if n_max + 1 > len(data.primes):
        raise RangeLimitError(
            f"partial-sum scan to N={n_max} needs {n_max + 1} primes, "
            f"sieve holds {len(data.primes)}"
        )
    return run_to_end(data, PartialSumScan(data.nth(n_max)), workers=workers,
                      sink=sink)
