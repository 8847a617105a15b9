"""Prime-counting fluctuation functions and the bound/condition scans.

Definitions used throughout (L = log x):

    f(x)    = pi(x) - Li(x)
    fhat(x) = pi(x) - x/L - x/L^2 - c3 * x/L^3      (c3 defaults to 2)
    b(x)    = fhat(x) * L^3 / x
    k(x)    = f(x) / (sqrt(x) * L)
    delta(p_n) = sum over m < n of (log^2 p_m - g_m / c)

Discrete derivatives of b and k at a prime are forward differences to
the next prime.  Continuous-bound scans (Schoenfeld ratio, |b| < B,
pi(x) bracketing) are evaluated at every prime p and at p - 1, the two
edges of each jump of the prime-counting step function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .accum import NeumaierSum, block_sum
from .analytic import (
    DUSART_LOWER_MIN_X,
    DUSART_UPPER_MIN_X,
    bprime_threshold,
    dusart_bounds,
    kprime_threshold,
    li,
    li_ascending,
)
from .errors import DomainError, RangeLimitError
from .runner import BlockScan, RowSink, run_to_end
from .sieve import PrimeData

DEFAULT_EXPANSION_C3 = 2.0
SCHOENFELD_CUTOFF = 2657


def _fmt(v) -> str:
    return repr(float(v))


# ----------------------------------------------------------------------
# Point evaluation


@dataclass(frozen=True)
class FluctuationSample:
    """All fluctuation quantities at one evaluation point."""

    x: int
    pi: int
    li: float
    f: float
    fhat: float
    b: float
    k: float


def _expansion(x: np.ndarray, c3: float) -> np.ndarray:
    lg = np.log(x)
    return x / lg + x / lg**2 + c3 * x / lg**3


def fluctuation_at(
    data: PrimeData, x: int, *, c3: float = DEFAULT_EXPANSION_C3
) -> FluctuationSample:
    """FluctuationSample at integer x (2 <= x <= sieved limit)."""
    if x < 2:
        raise DomainError(f"fluctuation_at requires x >= 2, got {x}")
    pi = data.pi(x)
    xf = float(x)
    lg = math.log(xf)
    liv = li(xf)
    f = pi - liv
    fhat = pi - float(_expansion(np.float64(xf), c3))
    b = fhat * lg**3 / xf
    k = f / (math.sqrt(xf) * lg)
    return FluctuationSample(x, pi, liv, f, fhat, b, k)


# ----------------------------------------------------------------------
# Cramer-Granville gap ratio scan


@dataclass(frozen=True)
class ScanReport:
    """Outcome of the gap-ratio scan against g_n < c log^2 p_n."""

    limit: int
    c: float
    violations: list
    max_ratio: float
    max_ratio_at: int
    thresholds: dict

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "c": self.c,
            "violations": list(self.violations),
            "max_ratio": self.max_ratio,
            "max_ratio_at": self.max_ratio_at,
            "thresholds": dict(self.thresholds),
        }


def _gap_pairs(block, limit):
    """Primes and successors for pairs lying fully inside the scan limit."""
    ps = block.primes
    if block.succ is not None and block.succ <= limit:
        succ = np.concatenate([ps[1:], [block.succ]])
    else:
        succ = ps[1:]
        ps = ps[:-1]
    return ps, succ


class CgScan(BlockScan):
    name = "cg"

    def __init__(self, limit: int, c: float):
        self.limit = limit
        self.c = c

    def start(self):
        return {
            "violations": [],
            "max_ratio": 0.0,
            "max_at": 0,
            "tail_max": 0.0,
            "tail_at": 0,
        }

    def header(self):
        return "n,p,g,ratio"

    def map_block(self, block):
        ps, succ = _gap_pairs(block, self.limit)
        if len(ps) == 0:
            return block.n0, ps, succ, None, None
        g = (succ - ps).astype(np.float64)
        lg = np.log(ps.astype(np.float64))
        ratio = g / (lg * lg)
        viol = np.nonzero(g >= self.c * (lg * lg))[0]
        return block.n0, ps, g, ratio, viol

    def reduce(self, state, payload, sink):
        n0, ps, g, ratio, viol = payload
        if ratio is None:
            return
        i = int(np.argmax(ratio))
        if ratio[i] > state["max_ratio"]:
            state["max_ratio"] = float(ratio[i])
            state["max_at"] = int(ps[i])
        # Maximum restricted to n >= 5, where the c = 1 bound is
        # conjectured to hold without exception.
        lo = max(0, 5 - n0)
        if lo < len(ratio):
            j = lo + int(np.argmax(ratio[lo:]))
            if ratio[j] > state["tail_max"]:
                state["tail_max"] = float(ratio[j])
                state["tail_at"] = int(ps[j])
        for i in viol:
            state["violations"].append(n0 + int(i))
            if sink is not None:
                sink.write(
                    f"{n0 + int(i)},{int(ps[i])},{int(g[i])},{_fmt(ratio[i])}"
                )

    def result(self, state):
        violations = state["violations"]
        return ScanReport(
            limit=self.limit,
            c=self.c,
            violations=violations,
            max_ratio=state["max_ratio"],
            max_ratio_at=state["max_at"],
            thresholds={
                "max_ratio_from_n5": state["tail_max"],
                "max_ratio_from_n5_at": state["tail_at"],
                "least_n_holds_onward": (violations[-1] + 1) if violations else 1,
            },
        )


def cg_scan(
    data: PrimeData,
    limit: int,
    c: float = 1.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> ScanReport:
    """Exact violation set and running maximum of g_n / log^2 p_n."""
    if limit < 3:
        raise DomainError(f"cg_scan requires limit >= 3, got {limit}")
    scan = CgScan(limit, c)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)


# ----------------------------------------------------------------------
# Monotonicity scan of the gap-deficit sum


@dataclass(frozen=True)
class DeltaSample:
    """Gap-deficit sum at a prime, and its smooth-part remainder."""

    p: int
    delta: float
    delta_hat: float


@dataclass(frozen=True)
class DeltaScanResult:
    limit: int
    c: float
    violations: list
    count: int
    final_delta: float
    max_bhat_drift: float
    max_bhat_drift_at: int

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "c": self.c,
            "violations": list(self.violations),
            "count": self.count,
            "final_delta": self.final_delta,
            "max_bhat_drift": self.max_bhat_drift,
            "max_bhat_drift_at": self.max_bhat_drift_at,
        }


class DeltaScan(BlockScan):
    name = "delta"

    def __init__(self, limit: int, c: float, c3: float = DEFAULT_EXPANSION_C3):
        self.limit = limit
        self.c = c
        self.c3 = c3

    def start(self):
        return {
            "prefix": [0.0, 0.0],
            "violations": [],
            "count": 0,
            "drift": 0.0,
            "drift_at": 0,
        }

    def header(self):
        return "p,delta,delta_hat"

    def map_block(self, block):
        ps = block.primes.astype(np.float64)
        lg = np.log(ps)
        if block.succ is not None and block.succ <= self.limit:
            succ = np.concatenate([block.primes[1:], [block.succ]])
            gaps = (succ - block.primes).astype(np.float64)
        else:
            gaps = (block.primes[1:] - block.primes[:-1]).astype(np.float64)
        terms = lg[: len(gaps)] ** 2 - gaps / self.c
        viol = np.nonzero(lg[: len(gaps)] ** 2 <= gaps / self.c)[0]
        local = np.concatenate([[0.0], np.cumsum(terms)])[: len(ps)]
        # b recomputed from the gap-deficit remainder, for drift tracking
        # against the expansion-based definition.
        ns = np.arange(block.n0, block.n0 + len(ps), dtype=np.float64)
        b_exp = (ns - _expansion(ps, self.c3)) * lg**3 / ps
        return (
            block.n0,
            block.primes,
            lg,
            local,
            block_sum(terms),
            viol,
            b_exp,
        )

    def reduce(self, state, payload, sink):
        n0, ps, lg, local, total, viol, b_exp = payload
        prefix = NeumaierSum.from_state(state["prefix"])
        delta = prefix.value + local
        pf = ps.astype(np.float64)
        delta_hat = delta - pf * lg + ((self.c + 1.0) / self.c) * pf
        bhat = delta_hat * lg / pf
        drift = np.abs(bhat - b_exp)
        i = int(np.argmax(drift))
        if drift[i] > state["drift"]:
            state["drift"] = float(drift[i])
            state["drift_at"] = int(ps[i])
        for i in viol:
            state["violations"].append(n0 + int(i))
        if sink is not None:
            for i in range(len(ps)):
                sink.write(f"{int(ps[i])},{_fmt(delta[i])},{_fmt(delta_hat[i])}")
        state["count"] += len(ps)
        state["final"] = float(delta[-1]) if len(ps) else state.get("final", 0.0)
        prefix.add(total)
        state["prefix"] = prefix.state()

    def result(self, state):
        return DeltaScanResult(
            limit=self.limit,
            c=self.c,
            violations=state["violations"],
            count=state["count"],
            final_delta=state.get("final", 0.0),
            max_bhat_drift=state["drift"],
            max_bhat_drift_at=state["drift_at"],
        )


def delta_scan(
    data: PrimeData,
    limit: int,
    c: float = 1.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> DeltaScanResult:
    """Gap-deficit sums at every prime <= limit plus monotonicity violations."""
    if limit < 3:
        raise DomainError(f"delta_scan requires limit >= 3, got {limit}")
    if c <= 0:
        raise DomainError(f"delta_scan requires c > 0, got {c}")
    scan = DeltaScan(limit, c)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)


def delta_samples(
    data: PrimeData, limit: int, c: float = 1.0
) -> list[DeltaSample]:
    """Materialized DeltaSamples for moderate limits."""
    if limit < 3:
        raise DomainError(f"delta_samples requires limit >= 3, got {limit}")
    count = data.pi(limit)
    ps = data.primes[:count]
    if count < len(data.primes):
        succ = data.primes[1 : count + 1]
        gaps = (succ - ps).astype(np.float64)
    else:
        gaps = (ps[1:] - ps[:-1]).astype(np.float64)
    lg = np.log(ps.astype(np.float64))
    terms = lg[: len(gaps)] ** 2 - gaps / c
    delta = np.concatenate([[0.0], np.cumsum(terms)])[:count]
    pf = ps.astype(np.float64)
    delta_hat = delta - pf * lg + ((c + 1.0) / c) * pf
    return [
        DeltaSample(int(ps[i]), float(delta[i]), float(delta_hat[i]))
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Discrete derivatives of b and k at primes


@dataclass(frozen=True)
class DerivRecord:
    """Forward-difference derivatives of b and k at p_n, with their bounds."""

    n: int
    p: int
    b_prime: float
    k_prime: float
    b_rhs: float
    k_rhs: float
    b_ok: bool
    k_ok: bool


@dataclass(frozen=True)
class DerivScanResult:
    limit: int
    c: float
    count: int
    b_violations: list
    k_violations: list

    def b_pass(self) -> bool:
        """No failures beyond p = 5 (the conjectured clean range for b)."""
        return not [n for n, p in self.b_violations if p > 5]

    def k_pass(self) -> bool:
        """No failures beyond p = 3 (the conjectured clean range for k)."""
        return not [n for n, p in self.k_violations if p > 3]

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "c": self.c,
            "count": self.count,
            "b_violations": [list(v) for v in self.b_violations],
            "k_violations": [list(v) for v in self.k_violations],
            "b_pass": self.b_pass(),
            "k_pass": self.k_pass(),
        }


def _deriv_block(
    ps_ext: np.ndarray, n0: int, c: float, c3: float, li_of=li_ascending
):
    """Per-prime b, k and forward differences over an extended block.

    The scan takes Li by ``li_ascending``; the materialized records keep
    the pointwise ``li`` that ``fluctuation_at`` uses, so a record and
    the samples at its two primes share one Li path.
    """
    pf = ps_ext.astype(np.float64)
    lg = np.log(pf)
    ns = np.arange(n0, n0 + len(pf), dtype=np.float64)
    livals = li_of(pf)
    f = ns - livals
    fhat = ns - _expansion(pf, c3)
    b = fhat * lg**3 / pf
    k = f / (np.sqrt(pf) * lg)
    dp = np.diff(pf)
    b_prime = np.diff(b) / dp
    k_prime = np.diff(k) / dp
    b_rhs = bprime_threshold(pf[:-1], c)
    k_rhs = kprime_threshold(pf[:-1], c)
    return b_prime, k_prime, b_rhs, k_rhs


class DerivScan(BlockScan):
    name = "deriv"

    def __init__(
        self,
        limit: int,
        c: float,
        c3: float = DEFAULT_EXPANSION_C3,
        sink_mode: str = "records",
    ):
        self.limit = limit
        self.c = c
        self.c3 = c3
        self.sink_mode = sink_mode

    def start(self):
        return {"count": 0, "b_violations": [], "k_violations": []}

    def header(self):
        if self.sink_mode == "figure":
            return "p,k_prime,rhs24"
        return "n,p,b_prime,k_prime,b_rhs,k_rhs,b_ok,k_ok"

    def map_block(self, block):
        ps, succ = _gap_pairs(block, self.limit)
        if len(ps) == 0:
            return block.n0, ps, None
        ps_ext = np.concatenate([ps, [succ[-1]]])
        return block.n0, ps, _deriv_block(ps_ext, block.n0, self.c, self.c3)

    def reduce(self, state, payload, sink):
        n0, ps, cols = payload
        if cols is None:
            return
        b_prime, k_prime, b_rhs, k_rhs = cols
        b_ok = b_prime > b_rhs
        k_ok = k_prime > k_rhs
        for i in np.nonzero(~b_ok)[0]:
            state["b_violations"].append((n0 + int(i), int(ps[i])))
        for i in np.nonzero(~k_ok)[0]:
            state["k_violations"].append((n0 + int(i), int(ps[i])))
        if sink is not None:
            if self.sink_mode == "figure":
                for i in range(len(ps)):
                    sink.write(
                        f"{int(ps[i])},{_fmt(k_prime[i])},{_fmt(k_rhs[i])}"
                    )
            else:
                for i in range(len(ps)):
                    sink.write(
                        f"{n0 + i},{int(ps[i])},{_fmt(b_prime[i])},"
                        f"{_fmt(k_prime[i])},{_fmt(b_rhs[i])},{_fmt(k_rhs[i])},"
                        f"{str(bool(b_ok[i])).lower()},{str(bool(k_ok[i])).lower()}"
                    )
        state["count"] += len(ps)

    def result(self, state):
        return DerivScanResult(
            limit=self.limit,
            c=self.c,
            count=state["count"],
            b_violations=state["b_violations"],
            k_violations=state["k_violations"],
        )


def deriv_scan(
    data: PrimeData,
    limit: int,
    c: float = 1.0,
    *,
    c3: float = DEFAULT_EXPANSION_C3,
    workers: int = 1,
    sink: RowSink | None = None,
    sink_mode: str = "records",
) -> DerivScanResult:
    """Derivative-condition scan for both b and k sides in one pass."""
    if limit < 5:
        raise DomainError(f"deriv_scan requires limit >= 5, got {limit}")
    scan = DerivScan(limit, c, c3, sink_mode)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)


def _deriv_records(
    data: PrimeData, limit: int, c: float, c3: float
) -> list[DerivRecord]:
    count = data.pi(limit)
    if count < 2:
        raise DomainError(f"no derivative records below limit {limit}")
    ps_ext = data.primes[:count]
    b_prime, k_prime, b_rhs, k_rhs = _deriv_block(ps_ext, 1, c, c3, li)
    out = []
    for i in range(count - 1):
        out.append(
            DerivRecord(
                n=i + 1,
                p=int(ps_ext[i]),
                b_prime=float(b_prime[i]),
                k_prime=float(k_prime[i]),
                b_rhs=float(b_rhs[i]),
                k_rhs=float(k_rhs[i]),
                b_ok=bool(b_prime[i] > b_rhs[i]),
                k_ok=bool(k_prime[i] > k_rhs[i]),
            )
        )
    return out


def bprime_records(
    data: PrimeData, limit: int, c: float = 1.0, *, c3: float = DEFAULT_EXPANSION_C3
) -> list[DerivRecord]:
    """DerivRecords for the b-side condition scan (limit >= 7)."""
    if limit < 7:
        raise DomainError(f"bprime_records requires limit >= 7, got {limit}")
    return _deriv_records(data, limit, c, c3)


def kprime_records(
    data: PrimeData, limit: int, c: float = 1.0, *, c3: float = DEFAULT_EXPANSION_C3
) -> list[DerivRecord]:
    """DerivRecords for the k-side condition scan (limit >= 5)."""
    if limit < 5:
        raise DomainError(f"kprime_records requires limit >= 5, got {limit}")
    return _deriv_records(data, limit, c, c3)


def interpolate_derivative(x: float, records, field: str = "b_prime") -> float:
    """Piecewise-linear interpolation of prime-anchored derivative values."""
    if not records:
        raise DomainError("no records to interpolate")
    ps = np.array([r.p for r in records], dtype=np.float64)
    vals = np.array([getattr(r, field) for r in records], dtype=np.float64)
    if x < ps[0] or x > ps[-1]:
        raise RangeLimitError(
            f"x = {x} outside the anchored range [{ps[0]}, {ps[-1]}]"
        )
    return float(np.interp(x, ps, vals))


# ----------------------------------------------------------------------
# Jump-edge grids: ratio bound, |b| bound, pi(x) bracketing


def _jump_grid(block, limit):
    """Grid of (x, pi(x)) at p and p-1 for the block's primes.

    p - 1 is skipped below 2 and for p = 3 (where it duplicates the
    prime 2 already on the grid).
    """
    ps = block.primes
    ns = np.arange(block.n0, block.n0 + len(ps), dtype=np.int64)
    xs = np.empty(2 * len(ps), dtype=np.int64)
    pis = np.empty(2 * len(ps), dtype=np.int64)
    xs[0::2] = ps - 1
    xs[1::2] = ps
    pis[0::2] = ns - 1
    pis[1::2] = ns
    keep = np.ones(len(xs), dtype=bool)
    keep[0::2] = (ps - 1 >= 2) & (ps != 3)
    keep &= xs <= limit
    return xs[keep], pis[keep]


class SchoenfeldScan(BlockScan):
    name = "schoenfeld"

    def __init__(self, limit: int, k_all: float, windows: dict | None = None):
        self.limit = limit
        self.k_all = k_all
        self.windows = windows or {}

    def start(self):
        return {
            "max_ratio": 0.0,
            "max_at": 0,
            "max_tail": 0.0,
            "max_tail_at": 0,
            "x_star": None,
            "windows": {name: 0.0 for name in self.windows},
        }

    def header(self):
        return "x,pi,li,ratio"

    def map_block(self, block):
        xs, pis = _jump_grid(block, self.limit)
        if len(xs) == 0:
            return xs, pis, None, None
        xf = xs.astype(np.float64)
        livals = li_ascending(xf)
        ratio = np.abs(pis - livals) / (np.sqrt(xf) * np.log(xf))
        return xs, pis, livals, ratio

    def reduce(self, state, payload, sink):
        xs, pis, livals, ratio = payload
        if ratio is None:
            return
        i = int(np.argmax(ratio))
        if ratio[i] > state["max_ratio"]:
            state["max_ratio"] = float(ratio[i])
            state["max_at"] = int(xs[i])
        tail = xs > SCHOENFELD_CUTOFF
        if np.any(tail):
            j = int(np.argmax(np.where(tail, ratio, -np.inf)))
            if ratio[j] > state["max_tail"]:
                state["max_tail"] = float(ratio[j])
                state["max_tail_at"] = int(xs[j])
        viol = np.nonzero(ratio > self.k_all)[0]
        if len(viol):
            last = int(viol[-1])
            state["x_star"] = int(xs[last + 1]) if last + 1 < len(xs) else None
        elif state["x_star"] is None:
            state["x_star"] = int(xs[0])
        for name, (lo, hi) in self.windows.items():
            mask = (xs >= lo) & (xs <= hi)
            if np.any(mask):
                m = float(np.max(ratio[mask]))
                if m > state["windows"][name]:
                    state["windows"][name] = m
        if sink is not None:
            for i in range(len(xs)):
                sink.write(
                    f"{int(xs[i])},{int(pis[i])},{_fmt(livals[i])},{_fmt(ratio[i])}"
                )

    def result(self, state):
        return SchoenfeldResult(
            limit=self.limit,
            k_all=self.k_all,
            max_ratio=state["max_ratio"],
            max_ratio_at=state["max_at"],
            max_after_cutoff=state["max_tail"],
            max_after_cutoff_at=state["max_tail_at"],
            x_star=state["x_star"],
            window_max=dict(state["windows"]),
        )


@dataclass(frozen=True)
class SchoenfeldResult:
    """Fluctuation-ratio scan outcome: |pi - Li| / (sqrt(x) log x) extremes."""

    limit: int
    k_all: float
    max_ratio: float
    max_ratio_at: int
    max_after_cutoff: float
    max_after_cutoff_at: int
    x_star: int | None
    window_max: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "k_all": self.k_all,
            "max_ratio": self.max_ratio,
            "max_ratio_at": self.max_ratio_at,
            "max_after_cutoff": self.max_after_cutoff,
            "max_after_cutoff_at": self.max_after_cutoff_at,
            "cutoff": SCHOENFELD_CUTOFF,
            "x_star": self.x_star,
            "window_max": dict(self.window_max),
        }


def schoenfeld_scan(
    data: PrimeData,
    limit: int,
    *,
    k_all: float = 1.0 / 3.0,
    windows: dict | None = None,
    workers: int = 1,
    sink: RowSink | None = None,
) -> SchoenfeldResult:
    """Scan |pi - Li| / (sqrt(x) log x) on the jump-edge grid.

    Reports the overall maximum, the maximum beyond the classical
    cutoff 2657, and the least grid point from which the enlarged
    bound ``k_all`` holds onward.
    """
    if limit < 10:
        raise DomainError(f"schoenfeld_scan requires limit >= 10, got {limit}")
    scan = SchoenfeldScan(limit, k_all, windows)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)


class BBoundScan(BlockScan):
    name = "bbound"

    def __init__(self, limit: int, bound: float, c3: float = DEFAULT_EXPANSION_C3):
        self.limit = limit
        self.bound = bound
        self.c3 = c3

    def start(self):
        return {"max_abs": 0.0, "max_at": 0, "violations": []}

    def header(self):
        return "x,pi,b"

    def map_block(self, block):
        xs, pis = _jump_grid(block, self.limit)
        if len(xs) == 0:
            return xs, pis, None
        xf = xs.astype(np.float64)
        lg = np.log(xf)
        b = (pis - _expansion(xf, self.c3)) * lg**3 / xf
        return xs, pis, b

    def reduce(self, state, payload, sink):
        xs, pis, b = payload
        if b is None:
            return
        ab = np.abs(b)
        i = int(np.argmax(ab))
        if ab[i] > state["max_abs"]:
            state["max_abs"] = float(ab[i])
            state["max_at"] = int(xs[i])
        for i in np.nonzero(ab >= self.bound)[0]:
            state["violations"].append(int(xs[i]))
        if sink is not None:
            for i in range(len(xs)):
                sink.write(f"{int(xs[i])},{int(pis[i])},{_fmt(b[i])}")

    def result(self, state):
        return BBoundResult(
            limit=self.limit,
            bound=self.bound,
            max_abs_b=state["max_abs"],
            max_abs_b_at=state["max_at"],
            violations=state["violations"],
        )


@dataclass(frozen=True)
class BBoundResult:
    limit: int
    bound: float
    max_abs_b: float
    max_abs_b_at: int
    violations: list

    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "bound": self.bound,
            "max_abs_b": self.max_abs_b,
            "max_abs_b_at": self.max_abs_b_at,
            "violations": list(self.violations),
            "pass": self.passed(),
        }


def bbound_scan(
    data: PrimeData,
    limit: int,
    bound: float = 5.0,
    *,
    c3: float = DEFAULT_EXPANSION_C3,
    workers: int = 1,
    sink: RowSink | None = None,
) -> BBoundResult:
    """Empirical maximum of |b(x)| over the jump-edge grid."""
    if limit < 10:
        raise DomainError(f"bbound_scan requires limit >= 10, got {limit}")
    scan = BBoundScan(limit, bound, c3)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)


class DusartScan(BlockScan):
    name = "dusart"

    def __init__(self, limit: int):
        self.limit = limit

    def start(self):
        return {"violations": [], "checked": 0}

    def header(self):
        return "x,pi,lower,upper"

    def map_block(self, block):
        xs, pis = _jump_grid(block, self.limit)
        keep = xs >= DUSART_LOWER_MIN_X
        xs, pis = xs[keep], pis[keep]
        if len(xs) == 0:
            return xs, pis, None, None
        lower, upper = dusart_bounds(xs.astype(np.float64))
        bad_low = pis <= lower
        bad_high = (xs >= DUSART_UPPER_MIN_X) & (pis >= upper)
        return xs, pis, (lower, upper), np.nonzero(bad_low | bad_high)[0]

    def reduce(self, state, payload, sink):
        xs, pis, bounds, bad = payload
        if bounds is None:
            return
        lower, upper = bounds
        state["checked"] += len(xs)
        for i in bad:
            i = int(i)
            state["violations"].append(int(xs[i]))
            if sink is not None:
                sink.write(
                    f"{int(xs[i])},{int(pis[i])},{_fmt(lower[i])},{_fmt(upper[i])}"
                )

    def result(self, state):
        return DusartResult(
            limit=self.limit,
            violations=state["violations"],
            checked=state["checked"],
        )


@dataclass(frozen=True)
class DusartResult:
    limit: int
    violations: list
    checked: int

    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "violations": list(self.violations),
            "checked": self.checked,
            "pass": self.passed(),
        }


def dusart_scan(
    data: PrimeData,
    limit: int,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> DusartResult:
    """pi(x) bracketing scan: strict lower bound from 32299, both from 355991."""
    if limit <= DUSART_UPPER_MIN_X:
        raise DomainError(
            f"dusart_scan requires limit > {DUSART_UPPER_MIN_X}, got {limit}"
        )
    scan = DusartScan(limit)
    return run_to_end(data, scan, limit=limit, workers=workers, sink=sink)
