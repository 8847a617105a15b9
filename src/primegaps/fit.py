"""Triple-logarithm model of the scaled fluctuation k(x).

Empirically k(x) drifts like -A * (alpha - log log log x); extrapolating
the fitted zero crossing gives a crossover estimate e^(e^(e^alpha)),
reported as a base-10 logarithm.  The model is linear in (A*alpha, A)
after substituting u = log log log x, so it is solved in closed form by
2x2 normal equations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import skewes_log10
from .errors import DomainError, InsufficientDataError, SingularFitError
from .fluct import FluctuationSample, fluctuation_sample
from .runner import BlockScan, run_to_end
from .sieve import PrimeData, PrimeStream

# Model abscissae must keep log log log x real and usefully spread.
MIN_FIT_X = math.exp(math.e)

# Samples the fit keeps per decade of x (see ``SampleScan``).
FIT_PER_DECADE = 200


class SampleScan(BlockScan):
    """Fluctuation samples at every stride-th prime in [x_min, x_max], folded
    over the prime blocks.

    The candidates are the primes whose 0-based index is the first index
    at or above x_min plus a multiple of ``stride``.  ``per_decade``
    thins each decade of x to at most that many samples, keeping every
    ``ceil(count / per_decade)``-th candidate, once the decade closes;
    without it the top decade dominates any fit input by sheer prime
    density.  The state holds (x, pi(x)) for the kept candidates and for
    the open decade's; ``li`` is evaluated only at the kept ones, in
    ``result``.  The scan's ``limit`` is ``x_max``.
    """

    name = "fit_samples"

    def __init__(self, x_min: int, x_max: int, *, stride: int = 1000,
                 per_decade: int | None = None):
        if x_min < 2 or x_max <= x_min:
            raise DomainError("need 2 <= x_min < x_max")
        if stride < 1:
            raise DomainError(f"stride must be >= 1, got {stride}")
        self.x_min = x_min
        self.limit = x_max
        self.stride = stride
        self.per_decade = per_decade

    def start(self) -> dict:
        return {"first": None, "decade": None, "open": [], "kept": []}

    def map_block(self, block):
        return block.n0, block.primes

    def reduce(self, state, payload):
        n0, ps = payload
        base = n0 - 1  # 0-based index of ps[0]
        if state["first"] is None:
            j = int(np.searchsorted(ps, self.x_min, side="left"))
            if j == len(ps):
                return
            state["first"] = base + j
        skip = max(0, base - state["first"])
        start = state["first"] + -(-skip // self.stride) * self.stride
        idx = np.arange(start, base + len(ps), self.stride)
        xs = ps[idx - base]
        decades = np.floor(np.log10(xs.astype(np.float64))).astype(np.int64)
        for x, i, d in zip(xs.tolist(), idx.tolist(), decades.tolist()):
            if d != state["decade"]:
                state["kept"] += self._thinned(state["open"])
                state["decade"], state["open"] = d, []
            state["open"].append([x, i + 1])

    def _thinned(self, candidates: list) -> list:
        if self.per_decade is None:
            return candidates
        return candidates[:: max(1, int(math.ceil(len(candidates) / self.per_decade)))]

    def result(self, state) -> list[FluctuationSample]:
        kept = state["kept"] + self._thinned(state["open"])
        return [fluctuation_sample(x, pi) for x, pi in kept]


def sample_fluctuations(
    data: PrimeData | PrimeStream,
    x_min: int,
    x_max: int,
    *,
    stride: int = 1000,
    per_decade: int | None = None,
) -> list[FluctuationSample]:
    """Fluctuation samples at every stride-th prime in [x_min, x_max]
    (``SampleScan`` over ``data``, up to ``x_max`` or the end of ``data``).
    """
    scan = SampleScan(x_min, min(x_max, data.limit), stride=stride,
                      per_decade=per_decade)
    return run_to_end(data, scan)


def bin_average_k(samples, bin_count: int) -> list[tuple[float, float]]:
    """Equal-width bins in log x; per-bin arithmetic mean of k.

    Returns (log-x bin midpoint, mean k) pairs with empty bins dropped.
    A single bin degenerates to the overall mean.
    """
    if bin_count < 1:
        raise DomainError(f"bin_count must be >= 1, got {bin_count}")
    samples = list(samples)
    if not samples:
        raise InsufficientDataError("no samples to bin")
    xs = np.array([s.x for s in samples], dtype=np.float64)
    if np.any(np.diff(xs) < 0):
        raise DomainError("samples must be ascending in x")
    if xs[0] < 16:
        raise DomainError("binning requires x >= 16 throughout")
    ks = np.array([s.k for s in samples], dtype=np.float64)
    w = np.log(xs)
    lo, hi = float(w[0]), float(w[-1])
    if hi == lo:
        return [(lo, float(np.mean(ks)))]
    edges = np.linspace(lo, hi, bin_count + 1)
    which = np.clip(np.digitize(w, edges) - 1, 0, bin_count - 1)
    out = []
    for i in range(bin_count):
        mask = which == i
        if np.any(mask):
            mid = 0.5 * (edges[i] + edges[i + 1])
            out.append((float(mid), float(np.mean(ks[mask]))))
    if not out:
        raise InsufficientDataError("all bins empty")
    return out


@dataclass(frozen=True)
class FitResult:
    """Fitted k = -A (alpha - log log log x), the implied crossover, and in
    ``bins`` the fitted (log-x midpoint, mean k) points, not in ``to_json``."""

    A: float
    alpha: float
    log10_sk1: float
    rms_residual: float
    bin_count: int
    x_range: tuple
    alpha_drop_last_delta: float | None = None
    bins: tuple = field(default=(), repr=False)

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "bins"}


def _solve(us: np.ndarray, ks: np.ndarray) -> tuple[float, float, float]:
    """Closed-form least squares for k = beta0 + beta1 * u."""
    n = float(len(us))
    su = float(np.sum(us))
    suu = float(np.sum(us * us))
    sk = float(np.sum(ks))
    suk = float(np.sum(us * ks))
    det = n * suu - su * su
    if abs(det) < 1e-14 * max(1.0, suu * n):
        raise SingularFitError("all abscissae equal; the 2x2 system is singular")
    beta1 = (n * suk - su * sk) / det
    beta0 = (sk - beta1 * su) / n
    rms = float(np.sqrt(np.mean((ks - (beta0 + beta1 * us)) ** 2)))
    return beta0, beta1, rms


def fit_skewes(binned) -> FitResult:
    """Fit the drift model to binned (log-x midpoint, mean k) points."""
    binned = list(binned)
    if len(binned) < 3:
        raise InsufficientDataError(
            f"fit needs >= 3 binned points, got {len(binned)}"
        )
    w = np.array([b[0] for b in binned], dtype=np.float64)
    ks = np.array([b[1] for b in binned], dtype=np.float64)
    if np.any(w <= 1.0):
        raise DomainError("binned abscissae must satisfy x > e^e")
    us = np.log(np.log(w))
    beta0, beta1, rms = _solve(us, ks)
    big_a = beta1
    if big_a == 0:
        raise SingularFitError("zero slope; alpha is undefined")
    alpha = -beta0 / beta1
    delta = None
    if len(binned) >= 4:
        b0d, b1d, _ = _solve(us[:-1], ks[:-1])
        if b1d != 0:
            delta = alpha - (-b0d / b1d)
    return FitResult(
        A=big_a,
        alpha=alpha,
        log10_sk1=skewes_log10(alpha),
        rms_residual=rms,
        bin_count=len(binned),
        x_range=(float(math.exp(w[0])), float(math.exp(w[-1]))),
        alpha_drop_last_delta=delta,
        bins=tuple(binned),
    )


class FitScan(SampleScan):
    """Sample, bin, and fit in one fold: ``SampleScan`` thinned to
    ``FIT_PER_DECADE`` samples per decade, whose result is the fit."""

    name = "fit"

    def __init__(self, x_min: int, x_max: int, *, stride: int = 1000,
                 bin_count: int = 20):
        if x_min < MIN_FIT_X:
            raise DomainError(f"fit range must start above {MIN_FIT_X:.2f}")
        if bin_count < 1:
            raise DomainError(f"bin_count must be >= 1, got {bin_count}")
        super().__init__(x_min, x_max, stride=stride, per_decade=FIT_PER_DECADE)
        self.bin_count = bin_count

    def result(self, state) -> FitResult:
        samples = super().result(state)
        if len(samples) < 3:
            raise InsufficientDataError(
                f"only {len(samples)} samples in [{self.x_min}, {self.limit}]"
            )
        return fit_skewes(bin_average_k(samples, self.bin_count))


def fit_from_data(
    data: PrimeData,
    x_min: int,
    x_max: int,
    *,
    stride: int = 1000,
    bin_count: int = 20,
) -> FitResult:
    """Sample, bin, and fit in one step (``FitScan`` over ``data``, up to
    ``x_max`` or the end of ``data``)."""
    scan = FitScan(x_min, min(x_max, data.limit), stride=stride,
                   bin_count=bin_count)
    return run_to_end(data, scan)
