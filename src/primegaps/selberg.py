"""Selberg-style prime sums S1 and S2 and the partial-sum gap test.

S1(x) sums log^2 p over primes p <= x.  S2(x) sums log p log q over
ordered prime pairs with pq <= x; it is evaluated through Chebyshev
theta with a hyperbola split,

    S2(x) = 2 * sum_{p <= sqrt(x)} log p * theta(x // p) - theta(isqrt(x))^2,

which touches pi(sqrt(x)) primes instead of pi(x/2).  The pointwise
functions read theta from the ``PrimeData.cumlog`` table.  ``SelbergScan``
is the one fold of both sums: each block answers the theta queries among
its primes one small prime p at a time, on the contiguous slice of
points that own them, and the state holds one exact integer per open
point and one for S1, so ``selberg`` and ``report`` need no table and
``lemma_scan`` is that fold plus a minimum.  The test suite checks S2
against a one-pass sum over p <= x/2 and a direct pair loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .accum import (
    NeumaierSum,
    block_sum,
    fixed_prefix_units,
    fixed_column_units,
    fixed_sum,
    fixed_value,
)
from .errors import DomainError, RangeLimitError
from .fluct import _gap_pairs
from .runner import BlockScan, run_to_end
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


def _s2_unordered(ordered: float, diagonal: float) -> float:
    """Unordered S2 from the ordered one and the diagonal, the sum of log^2 p
    over p <= sqrt(x): each {p, q} once, keeping the diagonal."""
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
    logs = _logs(data.primes[:idx])
    # x // p >= p >= 2, so every theta query has a prime at or below it
    thetas = data.cumlog()[np.searchsorted(data.primes, x // data.primes[:idx],
                                           side="right") - 1]
    # theta(isqrt(x)) is the last running sum of ``logs``: the bits of ``cumlog``
    ordered = 2.0 * block_sum(logs * thetas) - float(np.cumsum(logs)[-1]) ** 2
    if pairing == "ordered":
        return ordered
    return _s2_unordered(ordered, fixed_sum(logs * logs))


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


def _residual(x: int, v1: float, v2: float) -> float:
    return (v1 + v2 - 2.0 * x * math.log(x)) / x


# A point's S2 products, at most sqrt(x) of them and each below x, keep
# the int64 parts of ``fixed_column_units`` below 2**63 while x < 2**42.
_MAX_POINT = 2**42
_CELLS = 1 << 18


class SelbergScan(BlockScan):
    """SelbergSums at ascending points (each >= 4), folded over the prime blocks.

    ``reduce`` carries theta, the running sum of log p, as one ``np.cumsum``
    per block whose first term is the previous block's last value: the
    bits of ``PrimeData.cumlog``.  A block answers the S2 queries
    theta(x // p) among its primes one small prime p at a time.  Their
    owners, the points with p * first <= x < p * succ and x >= p * p, are
    one slice of the ascending points; each p is a row over the owners,
    zero outside its slice, and the products log p * theta(x // p) are
    added as exact int64 parts (``accum.fixed_column_units``).  Only the
    p <= last point // first are visited.  The state holds S1 and, per
    open point, half its ordered S2 sum, each as one exact integer in
    units of 2**-54.  A point closes in the block whose primes reach it,
    its sums rounded once, so its row has the bits of ``s1(data, x)`` and
    ``s2(data, x)``; ``reduce`` returns the rows a block closes.  The
    scan's ``limit`` is its last point, so a source that ends below it
    raises ``RangeLimitError`` before the first block.
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
        if xs[-1] >= _MAX_POINT:
            raise DomainError(f"residual scan points must be below 2**42, got "
                              f"{xs[-1]}: the exact S2 sums would overflow int64")
        self.xs = np.array(xs, dtype=np.int64)
        self.limit = xs[-1]
        self._small = primes_up_to(math.isqrt(xs[-1]))
        logs = self._small_logs = _logs(self._small)
        squares = self._small * self._small
        self._from = np.searchsorted(self.xs, squares, side="left")  # x >= p * p
        # per point, theta(isqrt(x)) and the diagonal over the p <= sqrt(x)
        n_small = np.searchsorted(squares, self.xs, side="right")
        self._root = np.cumsum(logs)[n_small - 1].tolist()
        self._diagonal = list(map(fixed_value, fixed_prefix_units(logs * logs, n_small)))

    def start(self) -> dict:
        return {"theta": 0.0, "s1": 0, "open": [], "rows": []}

    def header(self):
        return "x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds"

    def _answer(self, ps, succ, cum, closed: int) -> list[int]:
        """Per point from ``closed`` on, the exact sum of log p * theta(x // p)
        over its queries x // p among ``ps``, whose theta is ``cum``."""
        xs, first, top = self.xs, int(ps[0]), min(succ or math.inf, self.limit + 1)
        # the small primes p with a query x // p >= first, and their owners' slices
        small = self._small[:self._small.searchsorted(self.limit // first, side="right")]
        los = np.maximum(self._from[:len(small)], np.searchsorted(xs, small * first))
        his = np.searchsorted(xs, small * top)
        live = np.flatnonzero(los < his)
        rows = max(1, _CELLS // len(xs))

        def products():  # ``rows`` small primes at a time, each zero outside its slice
            for j in (live[r:r + rows, None] for r in range(0, len(live), rows)):
                owners = np.arange(los[j].min(), his[j].max())
                at = np.searchsorted(ps, xs[owners] // small[j], side="right")
                terms = cum[at - 1] * self._small_logs[j]
                yield owners[0] - closed, np.where(
                    (owners >= los[j]) & (owners < his[j]), terms, 0.0)

        return fixed_column_units(his[live].max(initial=closed) - closed, products())

    def reduce(self, state, block, rows: bool = False):
        ps, logs = block.primes, _logs(block.primes)
        # the points the block closes: those its primes, or the end of the data, reach
        lo, hi = np.searchsorted(self.xs, [ps[0], block.succ or math.inf], side="left")
        cuts = np.searchsorted(ps, self.xs[lo:hi], side="right")
        *s1_units, total = fixed_prefix_units(logs * logs, [*cuts, len(ps)])
        cum = np.cumsum(np.concatenate([[state["theta"]], logs]))[1:]
        state["theta"] = float(cum[-1])
        closed = len(state["rows"])
        answered = zip_longest(state["open"], self._answer(ps, block.succ, cum, closed),
                               fillvalue=0)
        state["open"] = [a + b for a, b in answered]
        # a closing point's last query, x // 2, is among the primes up to x
        count = len(s1_units)
        halves, state["open"] = state["open"][:count], state["open"][count:]
        new = slice(closed, closed + count)
        ordered = [2 * fixed_value(h) - r**2 for h, r in zip(halves, self._root[new])]
        sums = [[x, fixed_value(state["s1"] + u), v2, _s2_unordered(v2, d)] for x, u, v2, d
                in zip(self.xs[new].tolist(), s1_units, ordered, self._diagonal[new])]
        state["s1"] += total
        state["rows"] += sums
        if not (rows and sums):
            return None
        x, v1, v2, v2u = map(np.array, zip(*sums))
        return x, v1, v2, v2u, np.array([_residual(*row[:3]) for row in sums]), v2 < v1

    def result(self, state) -> list[SelbergSums]:
        return [SelbergSums(*row, _residual(*row[:3])) for row in state["rows"]]


def selberg_residual_scan(data: PrimeData, limits) -> list[SelbergSums]:
    """SelbergSums at each limit (ascending, each >= 4): ``SelbergScan`` over ``data``."""
    xs = [int(x) for x in limits]
    if not xs:
        return []
    return run_to_end(data, SelbergScan(xs))


@dataclass(frozen=True)
class LemmaScanResult:
    points: int
    all_hold: bool
    failures: list
    min_margin: float
    min_margin_at: int


def lemma_scan(data: PrimeData, xs) -> LemmaScanResult:
    """Check S2(x) < S1(x) along ascending evaluation points.

    The rows are ``SelbergScan(xs)`` folded over ``data``, the one
    Selberg fold; this adds the points where the lemma fails and the
    least margin S1 - S2, with the first point that has it.  Its refusals
    of points are the fold's, made before the first block.
    """
    rows = run_to_end(data, SelbergScan(xs))
    margins = [row.s1 - row.s2 for row in rows]
    least = min(range(len(rows)), key=margins.__getitem__)
    failures = [row.x for row in rows if not row.lemma_holds]
    return LemmaScanResult(len(rows), not failures, failures, margins[least],
                           rows[least].x)


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

    def reduce(self, state, block, rows: bool = False):
        ps, succ = _gap_pairs(block, math.inf)  # every successor the fold sees
        terms = np.square(_logs(ps))  # log^2 p, without keeping the logs alive
        gap_cum = state["gap_sum"] + np.cumsum(succ - ps)
        if not np.array_equal(gap_cum + 2, succ):
            state["identity_exact"] = False
        prefix = NeumaierSum.from_state(state["logsq"])
        logsq = prefix.value + np.cumsum(terms)
        holds = gap_cum < logsq
        false_idx = np.nonzero(~holds)[0]
        if len(false_idx):
            state["last_false"] = block.n0 + int(false_idx[-1])
        state["count"] += len(ps)
        if len(ps):
            state["gap_sum"] = int(gap_cum[-1])
        prefix.add(fixed_sum(terms))
        state["logsq"] = prefix.state()
        if not rows:
            return None
        return np.arange(block.n0, block.n0 + len(ps)), gap_cum, logsq, holds

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


def partial_sum_scan(data: PrimeData, n_max: int, *,
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
    return run_to_end(data, PartialSumScan(data.nth(n_max)), workers=workers)
