"""Prime-counting fluctuation functions and the bound/condition scans.

Definitions used throughout (L = log x):

    f(x)    = pi(x) - Li(x)
    fhat(x) = pi(x) - x/L - x/L^2 - 2 x/L^3
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
from dataclasses import asdict, dataclass, field

import numpy as np

from .accum import NeumaierSum, block_sum
from .analytic import (
    DUSART_LOWER_MIN_X,
    DUSART_UPPER_MIN_X,
    _bprime_threshold,
    _dusart_bounds,
    _kprime_threshold,
    li,
    li_ascending,
)
from .errors import DomainError
from .runner import BlockScan, RowSink, run_to_end
from .sieve import PrimeData, PrimeStream

# The 2! coefficient of x/L^3 in the asymptotic expansion of Li(x).
EXPANSION_C3 = 2.0
SCHOENFELD_CUTOFF = 2657


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


def _expansion(x: np.ndarray, lg=None, lg3=None) -> np.ndarray:
    """x/L + x/L^2 + 2 x/L^3; a caller that holds log x and its cube
    passes them in."""
    if lg is None:
        lg = np.log(x)
    if lg3 is None:
        lg3 = lg**3
    return x / lg + x / lg**2 + EXPANSION_C3 * x / lg3


def fluctuation_at(data: PrimeData, x: int) -> FluctuationSample:
    """FluctuationSample at integer x (2 <= x <= sieved limit)."""
    if x < 2:
        raise DomainError(f"fluctuation_at requires x >= 2, got {x}")
    return fluctuation_sample(x, data.pi(x))


def fluctuation_sample(x: int, pi: int) -> FluctuationSample:
    """FluctuationSample at integer x >= 2 whose prime count ``pi`` is known."""
    xf = float(x)
    lg = math.log(xf)
    liv = li(xf)
    f = pi - liv
    fhat = pi - float(_expansion(np.float64(xf)))
    b = fhat * lg**3 / xf
    k = f / (math.sqrt(xf) * lg)
    return FluctuationSample(x, pi, liv, f, fhat, b, k)


def _check_limit(scan: str, limit: int, least: int) -> None:
    if limit < least:
        raise DomainError(f"the {scan} scan requires limit >= {least}, got {limit}")


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
        return asdict(self)


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
        _check_limit(self.name, limit, 3)
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

    def reduce(self, state, payload):
        n0, ps, g, ratio, viol = payload
        if ratio is None:
            return None
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
        state["violations"].extend((n0 + viol).tolist())
        return n0 + viol, ps[viol], g[viol].astype(np.int64), ratio[viol]

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
    data: PrimeData | PrimeStream,
    limit: int,
    c: float = 1.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> ScanReport:
    """Exact violation set and running maximum of g_n / log^2 p_n."""
    return run_to_end(data, CgScan(limit, c), workers=workers, sink=sink)


# ----------------------------------------------------------------------
# Monotonicity scan of the gap-deficit sum


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
        return asdict(self)


class DeltaScan(BlockScan):
    name = "delta"

    def __init__(self, limit: int, c: float):
        _check_limit(self.name, limit, 3)
        if not c > 0:
            raise DomainError(f"the delta scan requires c > 0, got {c}")
        self.limit = limit
        self.c = c

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
        starts, succ = _gap_pairs(block, self.limit)
        gaps = (succ - starts).astype(np.float64)
        ps = block.primes.astype(np.float64)
        lg = np.log(ps)
        terms = lg[: len(gaps)] ** 2 - gaps / self.c
        # a - b <= 0 exactly when a <= b: IEEE subtraction keeps the sign
        # and gives 0 only for equal operands.
        viol = np.nonzero(terms <= 0.0)[0]
        local = np.concatenate([[0.0], np.cumsum(terms)])[: len(ps)]
        # b recomputed from the gap-deficit remainder, for drift tracking
        # against the expansion-based definition.
        ns = np.arange(block.n0, block.n0 + len(ps), dtype=np.float64)
        lg3 = lg**3
        b_exp = (ns - _expansion(ps, lg, lg3)) * lg3 / ps
        return (
            block.n0,
            block.primes,
            lg,
            local,
            block_sum(terms),
            viol,
            b_exp,
        )

    def reduce(self, state, payload):
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
        state["count"] += len(ps)
        state["final"] = float(delta[-1]) if len(ps) else state.get("final", 0.0)
        prefix.add(total)
        state["prefix"] = prefix.state()
        return ps, delta, delta_hat

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
    data: PrimeData | PrimeStream,
    limit: int,
    c: float = 1.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> DeltaScanResult:
    """Gap-deficit sums at every prime <= limit plus monotonicity violations."""
    return run_to_end(data, DeltaScan(limit, c), workers=workers, sink=sink)


# ----------------------------------------------------------------------
# Discrete derivatives of b and k at primes


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
        return {**asdict(self), "b_pass": self.b_pass(), "k_pass": self.k_pass()}


def _deriv_block(ps_ext: np.ndarray, n0: int, c: float):
    """Per-prime b, k and forward differences over an extended block."""
    pf = ps_ext.astype(np.float64)
    lg = np.log(pf)
    lg3 = lg**3
    ns = np.arange(n0, n0 + len(pf), dtype=np.float64)
    livals = li_ascending(pf)
    f = ns - livals
    fhat = ns - _expansion(pf, lg, lg3)
    b = fhat * lg3 / pf
    k = f / (np.sqrt(pf) * lg)
    dp = np.diff(pf)
    b_prime = np.diff(b) / dp
    k_prime = np.diff(k) / dp
    b_rhs = _bprime_threshold(pf[:-1], lg[:-1], c)
    k_rhs = _kprime_threshold(pf[:-1], lg[:-1], c)
    return b_prime, k_prime, b_rhs, k_rhs


class DerivScan(BlockScan):
    name = "deriv"

    def __init__(self, limit: int, c: float, sink_mode: str = "records"):
        _check_limit(self.name, limit, 5)
        # The thresholds' own check, made once instead of per block.
        if not c > 0:
            raise DomainError(f"DerivScan requires c > 0, got {c}")
        self.limit = limit
        self.c = c
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
        return block.n0, ps, _deriv_block(ps_ext, block.n0, self.c)

    def reduce(self, state, payload):
        n0, ps, cols = payload
        if cols is None:
            return None
        b_prime, k_prime, b_rhs, k_rhs = cols
        b_ok = b_prime > b_rhs
        k_ok = k_prime > k_rhs
        for i in np.nonzero(~b_ok)[0]:
            state["b_violations"].append((n0 + int(i), int(ps[i])))
        for i in np.nonzero(~k_ok)[0]:
            state["k_violations"].append((n0 + int(i), int(ps[i])))
        state["count"] += len(ps)
        if self.sink_mode == "figure":
            return ps, k_prime, k_rhs
        return (np.arange(n0, n0 + len(ps)), ps, b_prime, k_prime, b_rhs, k_rhs,
                b_ok, k_ok)

    def result(self, state):
        return DerivScanResult(
            limit=self.limit,
            c=self.c,
            count=state["count"],
            # a state resumed from JSON holds lists; a fresh one tuples
            b_violations=[tuple(v) for v in state["b_violations"]],
            k_violations=[tuple(v) for v in state["k_violations"]],
        )


def deriv_scan(
    data: PrimeData | PrimeStream,
    limit: int,
    c: float = 1.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> DerivScanResult:
    """Derivative-condition scan for both b and k sides in one pass."""
    return run_to_end(data, DerivScan(limit, c), workers=workers, sink=sink)


# ----------------------------------------------------------------------
# Jump-edge grids: ratio bound, |b| bound, pi(x) bracketing


def _jump_grid(block):
    """Grid of (x, pi(x)) at p and p-1 for the block's primes.

    p - 1 is skipped below 2 and for p = 3 (where it duplicates the
    prime 2 already on the grid).  Built once per block and shared by the
    scans that read it, so the arrays are read-only.
    """
    return block.column("jump_grid", lambda: _build_jump_grid(block))


def _build_jump_grid(block):
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
    xs, pis = xs[keep], pis[keep]
    xs.flags.writeable = pis.flags.writeable = False
    return xs, pis


class SchoenfeldScan(BlockScan):
    name = "schoenfeld"

    def __init__(self, limit: int, k_all: float, windows: dict | None = None):
        _check_limit(self.name, limit, 10)
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
        xs, pis = _jump_grid(block)
        if len(xs) == 0:
            return xs, pis, None, None
        xf = xs.astype(np.float64)
        livals = li_ascending(xf)
        ratio = np.abs(pis - livals) / (np.sqrt(xf) * np.log(xf))
        return xs, pis, livals, ratio

    def reduce(self, state, payload):
        xs, pis, livals, ratio = payload
        if ratio is None:
            return None
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
        return xs, pis, livals, ratio

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
        return {**asdict(self), "cutoff": SCHOENFELD_CUTOFF}


def schoenfeld_scan(
    data: PrimeData | PrimeStream,
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
    return run_to_end(data, SchoenfeldScan(limit, k_all, windows), workers=workers,
                      sink=sink)


class BBoundScan(BlockScan):
    name = "bbound"

    def __init__(self, limit: int, bound: float):
        _check_limit(self.name, limit, 10)
        self.limit = limit
        self.bound = bound

    def start(self):
        return {"max_abs": 0.0, "max_at": 0, "violations": []}

    def header(self):
        return "x,pi,b"

    def map_block(self, block):
        xs, pis = _jump_grid(block)
        if len(xs) == 0:
            return xs, pis, None
        xf = xs.astype(np.float64)
        lg = np.log(xf)
        lg3 = lg**3
        b = (pis - _expansion(xf, lg, lg3)) * lg3 / xf
        return xs, pis, b

    def reduce(self, state, payload):
        xs, pis, b = payload
        if b is None:
            return None
        ab = np.abs(b)
        i = int(np.argmax(ab))
        if ab[i] > state["max_abs"]:
            state["max_abs"] = float(ab[i])
            state["max_at"] = int(xs[i])
        for i in np.nonzero(ab >= self.bound)[0]:
            state["violations"].append(int(xs[i]))
        return xs, pis, b

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
        return {**asdict(self), "pass": self.passed()}


def bbound_scan(
    data: PrimeData | PrimeStream,
    limit: int,
    bound: float = 5.0,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> BBoundResult:
    """Empirical maximum of |b(x)| over the jump-edge grid."""
    return run_to_end(data, BBoundScan(limit, bound), workers=workers, sink=sink)


class DusartScan(BlockScan):
    name = "dusart"

    def __init__(self, limit: int):
        _check_limit(self.name, limit, DUSART_UPPER_MIN_X + 1)
        self.limit = limit

    def start(self):
        return {"violations": [], "checked": 0}

    def header(self):
        return "x,pi,lower,upper"

    def map_block(self, block):
        xs, pis = _jump_grid(block)
        keep = xs >= DUSART_LOWER_MIN_X
        xs, pis = xs[keep], pis[keep]
        if len(xs) == 0:
            return xs, pis, None, None
        xf = xs.astype(np.float64)
        lg = np.log(xf)
        lower, upper = _dusart_bounds(xf, lg, lg**3)
        bad_low = pis <= lower
        bad_high = (xs >= DUSART_UPPER_MIN_X) & (pis >= upper)
        return xs, pis, (lower, upper), np.nonzero(bad_low | bad_high)[0]

    def reduce(self, state, payload):
        xs, pis, bounds, bad = payload
        if bounds is None:
            return None
        lower, upper = bounds
        state["checked"] += len(xs)
        state["violations"].extend(xs[bad].tolist())
        return xs[bad], pis[bad], lower[bad], upper[bad]

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
        return {**asdict(self), "pass": self.passed()}


def dusart_scan(
    data: PrimeData | PrimeStream,
    limit: int,
    *,
    workers: int = 1,
    sink: RowSink | None = None,
) -> DusartResult:
    """pi(x) bracketing scan: strict lower bound from 32299, both from 355991."""
    return run_to_end(data, DusartScan(limit), workers=workers, sink=sink)
