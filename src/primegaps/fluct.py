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

Along that grid pi never falls, Li and sqrt(x) log x rise, and from
x = 21 on Dusart's two bounds and the expansion x/L + x/L^2 + 2 x/L^3
rise with x while L^3/x falls.  So the bracketing scan, and the |b|,
Schoenfeld and derivative scans when they fold without a sink, cut a
block's grid into runs of ``RUN_LANES`` lanes and bound each run from its
two end points.  Each evaluates a block at every lane, or at none when
no run's bound can change its result (for the derivative scan, when its
bounds clear the block's largest gap).  What is evaluated takes the same
expression as every lane would, so the results are those of every lane.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .accum import NeumaierSum, block_sum
from .analytic import (
    DUSART_LOWER_MIN_X,
    DUSART_UPPER_MIN_X,
    Constants,
    _bprime_threshold,
    _dusart_bounds,
    _kprime_threshold,
    li,
    li_ascending,
)
from .errors import DomainError
from .runner import BlockScan, run_to_end
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


def _raise_max(state: dict, key: str, at: str, values: np.ndarray,
               xs: np.ndarray) -> None:
    """Raise the running maximum ``state[key]`` to the largest of ``values``
    when that is greater, and ``state[at]`` to the x in ``xs`` of its first
    occurrence."""
    if len(values):
        i = int(np.argmax(values))
        if values[i] > state[key]:
            state[key] = float(values[i])
            state[at] = int(xs[i])


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
    """Violations of g_n < c log^2 p_n and the running maximum of the ratio
    g_n / log^2 p_n, overall and from n = 5 on.

    From n = 5 on the reduce takes logs only for the lanes whose gap
    reaches min(g_max (L0/L1)^2, c L0^2), less a 1e-9 margin for rounding,
    with L0 and L1 the logs of the block's first and last prime.  Any other
    lane's ratio is below g_max / L1^2, so strictly below the block's
    largest, and its gap is below c log^2 p: it can neither violate nor be
    the first lane that reaches the block's maximum.  So the maxima, the
    places where they occur, the violations and the rows are those of every
    lane.  A block that starts below n = 5 keeps every lane, as its maximum
    from n = 5 on may lie below its own maximum.
    """

    name = "cg"

    def __init__(self, limit: int, c: float):
        _check_limit(self.name, limit, 3)
        # The lane bound in reduce needs a positive, finite c.
        if not 0 < c < math.inf:
            raise DomainError(f"the cg scan requires finite c > 0, got {c}")
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

    def reduce(self, state, block, rows: bool = False):
        ps, succ = _gap_pairs(block, self.limit)
        if len(ps) == 0:
            return None
        gaps = succ - ps
        del succ
        if block.n0 < 5:
            lanes = np.arange(len(ps))
        else:
            lg0, lg1 = math.log(ps[0]), math.log(ps[-1])
            least = min(int(gaps.max()) * (lg0 / lg1) ** 2, self.c * lg0 * lg0)
            lanes = np.flatnonzero(gaps >= least * (1.0 - 1e-9))
            ps, gaps = ps[lanes], gaps[lanes]
        g = gaps.astype(np.float64)
        lg = np.log(ps.astype(np.float64))
        ratio = g / (lg * lg)
        viol = np.nonzero(g >= self.c * (lg * lg))[0]
        ns = lanes + block.n0
        _raise_max(state, "max_ratio", "max_at", ratio, ps)
        # Maximum restricted to n >= 5, where the c = 1 bound is
        # conjectured to hold without exception.
        lo = int(np.searchsorted(ns, 5))
        _raise_max(state, "tail_max", "tail_at", ratio[lo:], ps[lo:])
        state["violations"].extend(ns[viol].tolist())
        return (ns[viol], ps[viol], gaps[viol], ratio[viol]) if rows else None

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
    c: float = Constants.c,
    *,
    workers: int = 1,
) -> ScanReport:
    """Exact violation set and running maximum of g_n / log^2 p_n."""
    return run_to_end(data, CgScan(limit, c), workers=workers)


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
        # At c = inf, (c + 1) / c in reduce is NaN in every delta_hat.
        if not 0 < c < math.inf:
            raise DomainError(f"the delta scan requires finite c > 0, got {c}")
        self.limit = limit
        self.c = c

    def start(self):
        return {
            "prefix": [0.0, 0.0],
            "violations": [],
            "count": 0,
            "drift": 0.0,
            "drift_at": 0,
            "final": 0.0,
        }

    def header(self):
        return "p,delta,delta_hat"

    def reduce(self, state, block, rows: bool = False):
        starts, succ = _gap_pairs(block, self.limit)
        gaps = (succ - starts).astype(np.float64)
        ps = block.primes
        pf = ps.astype(np.float64)
        lg = np.log(pf)
        terms = lg[: len(gaps)] ** 2 - gaps / self.c
        del starts, succ, gaps
        # a - b <= 0 exactly when a <= b: IEEE subtraction keeps the sign
        # and gives 0 only for equal operands.
        state["violations"].extend((np.nonzero(terms <= 0.0)[0] + block.n0).tolist())
        prefix = NeumaierSum.from_state(state["prefix"])
        delta = prefix.value + np.concatenate([[0.0], np.cumsum(terms)])[: len(ps)]
        prefix.add(block_sum(terms))
        del terms
        delta_hat = delta - pf * lg + ((self.c + 1.0) / self.c) * pf
        # b recomputed from the gap-deficit remainder, for drift tracking
        # against the expansion-based definition.
        ns = np.arange(block.n0, block.n0 + len(ps), dtype=np.float64)
        lg3 = lg**3
        b_exp = (ns - _expansion(pf, lg, lg3)) * lg3 / pf
        _raise_max(state, "drift", "drift_at", np.abs(delta_hat * lg / pf - b_exp), ps)
        state["count"] += len(ps)
        state["final"] = float(delta[-1])
        state["prefix"] = prefix.state()
        return (ps, delta, delta_hat) if rows else None

    def result(self, state):
        return DeltaScanResult(
            limit=self.limit,
            c=self.c,
            violations=state["violations"],
            count=state["count"],
            final_delta=state["final"],
            max_bhat_drift=state["drift"],
            max_bhat_drift_at=state["drift_at"],
        )


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


def _gaps_clear(block, ps, succ, c: float) -> tuple[bool, bool]:
    """Whether every gap q - p of the pairs ``ps``, ``succ`` lies below
    c log^2 p0 (1 - eps), p0 = ps[0], for the k side's eps and for the b
    side's, as ``DerivScan`` derives them."""
    gap = int((succ - ps).max())
    p0, q = float(ps[0]), float(succ[-1])
    lg0, lgq = math.log(p0), math.log(q)
    top = c * lg0 * lg0
    if gap >= top:  # eps >= 0: decided without the runs' bounds and their grid
        return False, False
    t = gap / p0
    drho = t * (0.5 + 1.0 / lg0) + t * t / (2.0 * lg0)
    f, fhat = float(_li_spread(block).max()), float(_e_spread(block).max())
    eps_k = drho * (1.0 + f) + 1e-11 * q + 1e-13 * (f + c * lgq + 2.0)
    eps_b = t * (1.0 + fhat) + 1e-14 * q + 1e-13 * (fhat + c * lgq + 2.0)
    return gap < top * (1.0 - eps_k), gap < top * (1.0 - eps_b)


DERIV_SINK_MODES = ("records", "figure")


class DerivScan(BlockScan):
    """b' and k', the forward differences of b and k at each prime, against
    their lower bounds b_rhs and k_rhs.

    ``sink_mode`` "records" writes every condition and "figure" k' and
    k_rhs for figure1.  Folded with rows the reduce evaluates every lane;
    without, a block whose gaps ``_gaps_clear`` clears adds only its count:
    no lane of it can fail.
    For primes p < q with g = q - p, t = g/p, L = log p and I the
    integral of dt/log t from p to q, which is at most g/L:

    k side.  With s(x) = sqrt(x) log x, rho = s(q)/s(p) and f = pi - Li,

        g s(q) (k' - k_rhs) = 1 - I - f(p) (rho - 1) + g rho/L - g rho/(c L^2)
                           >= 1 - g rho/(c L^2) - |f(p)| (rho - 1),

    and sqrt(1 + t) <= 1 + t/2, log q <= L + t give
    rho - 1 <= drho = t (1/2 + 1/L) + t^2/(2 L).

    b side, from p >= 21.  With w(x) = L^3/x, omega = w(q)/w(p), which
    lies in [1 - t, 1], fhat = pi - E and E(q) - E(p) <= g/L, as
    E' = 1/L - 6/L^4,

        g (b' - b_rhs) / w(p) = (1 - E(q) + E(p)) omega - fhat(p) (1 - omega)
                                + g/L - g/(c L^2)
                             >= 1 - g/(c L^2) - t (1 + |fhat(p)|).

    So for g < c L^2 (1 - eps) the margins are at least eps - drho (1 + F)
    and eps - t (1 + Fhat), with F and Fhat the largest run bounds of |f|
    and |fhat| in the block (``_li_spread``, ``_e_spread``; both inf below
    x = 21).  The test takes drho and t at the block's largest gap and
    first prime, and L^2 at its first prime.  Rounding moves the computed
    k margin by at most 2.03e-12 rho Li(q), from Li's 1e-12 relative
    contract at p and q, which is below 4.1e-12 q as Li(q) < q and rho < 2
    whenever eps < 1; the b margin by at most 3.6e-15 E(q) < 4e-15 q, from
    E and b with numpy's log within 4 ulp; and each by less than
    1e-13 (F + c L + 2), or 1e-13 (Fhat + c L + 2), in the other roundings
    of f or fhat, s or w, the differences and the bounds.  Hence

        eps_k = drho (1 + F) + 1e-11 q + 1e-13 (F + c log q + 2),
        eps_b = t (1 + Fhat) + 1e-14 q + 1e-13 (Fhat + c log q + 2).

    A block with a gap that either side does not clear runs
    ``_deriv_block`` at every lane, as with rows.
    """

    name = "deriv"

    def __init__(self, limit: int, c: float, sink_mode: str = "records"):
        _check_limit(self.name, limit, 5)
        # The thresholds' own check, made once instead of per block.
        if not 0 < c < math.inf:
            raise DomainError(f"the deriv scan requires finite c > 0, got {c}")
        if sink_mode not in DERIV_SINK_MODES:
            raise DomainError(f"the deriv scan's sink_mode is one of "
                              f"{DERIV_SINK_MODES}, got {sink_mode!r}")
        self.limit = limit
        self.c = c
        self.sink_mode = sink_mode

    def start(self):
        return {"count": 0, "b_violations": [], "k_violations": []}

    def header(self):
        if self.sink_mode == "figure":
            return "p,k_prime,rhs24"
        return "n,p,b_prime,k_prime,b_rhs,k_rhs,b_ok,k_ok"

    def reduce(self, state, block, rows: bool = False):
        ps, succ = _gap_pairs(block, self.limit)
        state["count"] += len(ps)
        if len(ps) == 0 or (not rows and all(_gaps_clear(block, ps, succ, self.c))):
            return None
        n0, ps_ext = block.n0, np.concatenate([ps, succ[-1:]])
        del succ  # freed before the kernel, where block 0 peaks in RSS; ps_ext after
        b_prime, k_prime, b_rhs, k_rhs = _deriv_block(ps_ext, n0, self.c)
        del ps_ext
        b_ok, k_ok = b_prime > b_rhs, k_prime > k_rhs
        for i in np.nonzero(~b_ok)[0]:
            state["b_violations"].append((n0 + int(i), int(ps[i])))
        for i in np.nonzero(~k_ok)[0]:
            state["k_violations"].append((n0 + int(i), int(ps[i])))
        if not rows:
            return None
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
    c: float = Constants.c,
    *,
    workers: int = 1,
) -> DerivScanResult:
    """Derivative-condition scan for both b and k sides in one pass."""
    return run_to_end(data, DerivScan(limit, c), workers=workers)


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
    # Only 2 and 3, the first primes of the first block, lose their p - 1
    # lane.  3's, (2, 1), repeats 2's own, so the grid drops one lane per
    # such prime from its start.
    k = int(np.searchsorted(ps, 3, side="right"))
    xs, pis = xs[k:], pis[k:]
    xs.flags.writeable = pis.flags.writeable = False
    return xs, pis


# Grid lanes per run in the jump-grid scans' run bounds.
RUN_LANES = 128
# From here on E(x) and Dusart's bounds rise with x and L^3/x falls (e^3 < 21).
MONOTONE_MIN_X = 21


def _run_ends(n: int):
    """The first and the last lane of each run of ``RUN_LANES`` among ``n``."""
    heads = np.arange(0, n, RUN_LANES)
    return heads, np.minimum(heads + (RUN_LANES - 1), n - 1)


def _run_spread(block, fn, slack):
    """Per run of ``RUN_LANES`` grid lanes, max(|pi_h - F(x_t)|, |pi_t - F(x_h)|)
    + slack F(x_t) with F = ``fn`` at the run's head x_h and tail x_t.

    Where F rises, that bounds |pi(x) - F(x)| at the run's lanes; runs
    that start below x = 21, where E may fall, are unbounded (inf).  ``fn``
    takes the ascending heads and tails in one array.  Built once per block
    and shared by the scans that read it, so the array is read-only.
    """
    xs, pis = _jump_grid(block)
    heads, tails = _run_ends(len(xs))
    ends = np.empty(2 * len(heads), dtype=np.float64)
    ends[0::2], ends[1::2] = xs[heads], xs[tails]
    at = fn(ends)
    spread = (np.maximum(np.abs(pis[heads] - at[1::2]), np.abs(pis[tails] - at[0::2]))
              + slack * at[1::2])
    spread[ends[0::2] < MONOTONE_MIN_X] = np.inf
    spread.flags.writeable = False
    return spread


def _li_spread(block):
    """``_run_spread`` of Li, for the Schoenfeld and derivative scans.  The
    slack of 1e-9 Li(x_t) covers Li's 1e-12 relative error, at the ends
    and at any lane, and the rounding of the differences."""
    return block.column("li_spread", lambda: _run_spread(block, li_ascending, 1e-9))


def _e_spread(block):
    """``_run_spread`` of E, for the |b| and derivative scans.  The slack of
    1e-6 E(x_t) covers the rounding of pi - E."""
    return block.column("e_spread", lambda: _run_spread(block, _expansion, 1e-6))


def _schoenfeld_at(xs, pis):
    """Li and the ratio |pi - Li| / (sqrt(x) log x) at grid points ``xs``."""
    xf = xs.astype(np.float64)
    livals = li_ascending(xf)
    return livals, np.abs(pis - livals) / (np.sqrt(xf) * np.log(xf))


def _schoenfeld_runs(block):
    """Per run of ``RUN_LANES`` grid lanes, a bound on the Schoenfeld ratio:
    ``_li_spread`` over sqrt(x_h) log x_h, which is at most sqrt(x) log x at
    every lane of the run, times 1 + 1e-9 for rounding."""
    xh = _jump_grid(block)[0][::RUN_LANES].astype(np.float64)
    return _li_spread(block) / (np.sqrt(xh) * np.log(xh)) * (1.0 + 1e-9)


def _bbound_runs(block):
    """Per run of ``RUN_LANES`` grid lanes, a bound on |b|: ``_e_spread``,
    which bounds |pi - E| over the run, times L^3/x at its head x_h, the
    largest over the run from x = 21 on, times 1 + 1e-9 for rounding."""
    xh = _jump_grid(block)[0][::RUN_LANES].astype(np.float64)
    return _e_spread(block) * (np.log(xh) ** 3 / xh) * (1.0 + 1e-9)


class SchoenfeldScan(BlockScan):
    """The maxima of |pi(x) - Li(x)| / (sqrt(x) log x) on the jump-edge grid,
    overall, past ``SCHOENFELD_CUTOFF`` and in each window, and x_star, the
    least grid point from which it stays at most ``k_all``.

    Folded with rows (the CSV) the reduce evaluates the ratio at every
    lane.  Without, it leaves a block unevaluated when the block lies past
    the cutoff and outside every window, x_star is set, and every run's
    bound, ``_schoenfeld_runs``, is below both the running maximum past the
    cutoff and ``k_all``: then no lane can raise a maximum, violate or move
    x_star.  Any other block is evaluated at every lane, as with rows, so
    the result is that of every lane.
    """

    name = "schoenfeld"

    def __init__(self, limit: int, k_all: float, windows: dict | None = None):
        _check_limit(self.name, limit, 10)
        # A NaN bound is exceeded nowhere, so x_star would be the first point.
        if not 0 < k_all < math.inf:
            raise DomainError(f"the schoenfeld scan requires finite k_all > 0, "
                              f"got {k_all}")
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

    def reduce(self, state, block, rows: bool = False):
        xs, pis = _jump_grid(block)
        lo, hi = int(xs[0]), int(xs[-1])
        if (not rows and state["x_star"] is not None and lo > SCHOENFELD_CUTOFF
                and not any(a <= hi and lo <= b for a, b in self.windows.values())
                and np.all(_schoenfeld_runs(block)
                           < min(state["max_tail"], self.k_all))):
            return None  # no lane of the block can change the state
        livals, ratio = _schoenfeld_at(xs, pis)
        _raise_max(state, "max_ratio", "max_at", ratio, xs)
        # xs ascends, so the points past the cutoff are a suffix
        tail = int(np.searchsorted(xs, SCHOENFELD_CUTOFF, side="right"))
        _raise_max(state, "max_tail", "max_tail_at", ratio[tail:], xs[tail:])
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
        return (xs, pis, livals, ratio) if rows else None

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
    k_all: float = Constants.K_all,
    windows: dict | None = None,
    workers: int = 1,
) -> SchoenfeldResult:
    """Scan |pi - Li| / (sqrt(x) log x) on the jump-edge grid.

    Reports the overall maximum, the maximum beyond the classical
    cutoff 2657, and the least grid point from which the enlarged
    bound ``k_all`` holds onward.
    """
    return run_to_end(data, SchoenfeldScan(limit, k_all, windows), workers=workers)


class BBoundScan(BlockScan):
    """The maximum of |b(x)| on the jump-edge grid and the points where
    |b(x)| >= B.

    Folded with rows (the CSV) the reduce evaluates b at every lane.
    Without, it leaves a block unevaluated when every run's bound,
    ``_bbound_runs``, lies below min(running maximum, B): then no lane can
    beat the strict running maximum or reach B.  Any other block is
    evaluated at every lane, as with rows, so the result is that of every
    lane.
    """

    name = "bbound"

    def __init__(self, limit: int, bound: float):
        _check_limit(self.name, limit, 10)
        # A NaN bound would be reached nowhere, so every run would pass.
        if not 0 < bound < math.inf:
            raise DomainError(f"the bbound scan requires finite B > 0, got {bound}")
        self.limit = limit
        self.bound = bound

    def start(self):
        return {"max_abs": 0.0, "max_at": 0, "violations": []}

    def header(self):
        return "x,pi,b"

    def reduce(self, state, block, rows: bool = False):
        if not rows and np.all(_bbound_runs(block) < min(state["max_abs"], self.bound)):
            return None  # no lane of the block can raise the maximum or reach B
        xs, pis = _jump_grid(block)
        b = _b_at(xs, pis)
        ab = np.abs(b)
        _raise_max(state, "max_abs", "max_at", ab, xs)
        state["violations"].extend(xs[ab >= self.bound].tolist())
        return (xs, pis, b) if rows else None

    def result(self, state):
        return BBoundResult(
            limit=self.limit,
            bound=self.bound,
            max_abs_b=state["max_abs"],
            max_abs_b_at=state["max_at"],
            violations=state["violations"],
        )


def _b_at(xs, pis):
    """b(x) at grid points ``xs`` with prime counts ``pis``."""
    xf = xs.astype(np.float64)
    lg = np.log(xf)
    lg3 = lg**3
    return (pis - _expansion(xf, lg, lg3)) * lg3 / xf


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
    bound: float = Constants.B,
    *,
    workers: int = 1,
) -> BBoundResult:
    """Empirical maximum of |b(x)| over the jump-edge grid."""
    return run_to_end(data, BBoundScan(limit, bound), workers=workers)


class DusartScan(BlockScan):
    """Grid points from 32299 on where pi(x) <= Dusart's lower bound, or
    from 355991 on where pi(x) >= his upper bound.

    The reduce bounds each run of ``RUN_LANES`` lanes from its ends: the
    run is clear when pi at its head exceeds the lower bound at its tail and
    pi at its tail falls short of the upper bound at its head, each by a
    relative 1e-9 for rounding.  As pi and both bounds rise with x, no lane
    of a clear run violates.  A block whose runs are all clear is left
    unevaluated; any other is evaluated at every lane from 32299 on, so
    the violations, their rows and ``checked`` are those of every lane.
    """

    name = "dusart"

    def __init__(self, limit: int):
        _check_limit(self.name, limit, DUSART_UPPER_MIN_X + 1)
        self.limit = limit

    def start(self):
        return {"violations": [], "checked": 0}

    def header(self):
        return "x,pi,lower,upper"

    def reduce(self, state, block, rows: bool = False):
        xs, pis = _jump_grid(block)
        first = int(np.searchsorted(xs, DUSART_LOWER_MIN_X))
        xs, pis = xs[first:], pis[first:]
        if len(xs) == 0:
            return None
        state["checked"] += len(xs)
        heads, tails = _run_ends(len(xs))
        ends = np.stack([xs[tails], xs[heads]]).astype(np.float64)
        lg = np.log(ends)
        lower, upper = _dusart_bounds(ends, lg, lg**3)
        if np.all((pis[heads] > lower[0] * (1.0 + 1e-9))
                  & (pis[tails] < upper[1] * (1.0 - 1e-9))):
            return None  # every run is clear: no lane of the block violates
        lower, upper = _dusart_at(xs)
        bad = np.flatnonzero((pis <= lower)
                             | ((xs >= DUSART_UPPER_MIN_X) & (pis >= upper)))
        state["violations"].extend(xs[bad].tolist())
        return (xs[bad], pis[bad], lower[bad], upper[bad]) if rows and len(bad) else None

    def result(self, state):
        return DusartResult(
            limit=self.limit,
            violations=state["violations"],
            checked=state["checked"],
        )


def _dusart_at(xs):
    """Dusart's lower and upper bounds at grid points ``xs``."""
    xf = xs.astype(np.float64)
    lg = np.log(xf)
    return _dusart_bounds(xf, lg, lg**3)


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
) -> DusartResult:
    """pi(x) bracketing scan: strict lower bound from 32299, both from 355991."""
    return run_to_end(data, DusartScan(limit), workers=workers)
