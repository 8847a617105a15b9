"""Closed-form analytic kernel: Li, smooth sum asymptotics, named bounds.

Everything here is a pure function of its arguments.  ``li`` is
evaluated through the exponential integral of log x and is the
reference value; a single argument in the power-series range runs the
series in Python floats, with the same operations in the same order as
the array loop, so it costs microseconds instead of numpy's per-call
overhead and gives the same bits.  The scans, which need Li at millions
of ascending points, use ``li_ascending``: one ``li`` anchor per array
plus a Gauss-Legendre integral over each step, evaluated in chunks that
stay in cache.  Adaptive quadrature survives as an independent oracle in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065

# Branch switch for Ei(t).  The power series and the asymptotic series
# both deliver <= 1e-13 relative error in a band around this point; the
# seam agreement is pinned by a test.
_EI_SWITCH = 40.0
_SERIES_MAX_TERMS = 160


def _ei_series(t: np.ndarray) -> np.ndarray:
    """Ei(t) = gamma + log t + sum t^k / (k * k!)   (0 < t <= ~45)."""
    term = np.ones_like(t)
    total = np.zeros_like(t)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * t / k
        total += term / k
        if k % 8 == 0 and float(np.max(term)) < 1e-17 * float(np.min(total)):
            break
    return EULER_GAMMA + np.log(t) + total


def _ei_series_scalar(t: float) -> float:
    """``_ei_series`` at one argument, in Python floats: the same
    operations in the same order, so the same bits."""
    term = 1.0
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * t / k
        total += term / k
        if k % 8 == 0 and term < 1e-17 * total:
            break
    return EULER_GAMMA + np.log(t) + total


def _ei_asymptotic(t: np.ndarray) -> np.ndarray:
    """Ei(t) ~ (e^t / t) * sum k! / t^k, truncated before divergence."""
    term = np.ones_like(t)
    total = np.ones_like(t)
    # Terms shrink while k < t; with t > 40 stopping at k = 40 leaves a
    # tail below 1e-16 relative.
    for k in range(1, 41):
        term = term * k / t
        total += term
    return np.exp(t) / t * total


def _ei(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    if out.size == 1 and t.flat[0] <= _EI_SWITCH:
        # The anchors of li_ascending and the fit samples: one argument.
        out.flat[0] = _ei_series_scalar(float(t.flat[0]))
        return out
    small = t <= _EI_SWITCH
    if np.any(small):
        out[small] = _ei_series(t[small])
    if np.any(~small):
        out[~small] = _ei_asymptotic(t[~small])
    return out


_LI_OFFSET = float(_ei_series(np.array([math.log(2.0)]))[0])


def li(x):
    """Logarithmic integral from 2 to x of dt/log t.

    Accepts a scalar or an ndarray; x must be finite and >= 2 everywhere.
    Relative error <= 1e-12 over the sieveable range.
    """
    arr = np.asarray(x, dtype=np.float64)
    # Written so that NaN fails the test.
    if not np.all((arr >= 2.0) & (arr < np.inf)):
        raise DomainError("li(x) requires finite x >= 2")
    result = _ei(np.log(arr)) - _LI_OFFSET
    if np.isscalar(x) or arr.ndim == 0:
        return float(result)
    return result


# 10-point Gauss-Legendre rule on [-1, 1]: the nodes +-x_i with weights
# w_i, as numpy.polynomial.legendre.leggauss(10) gives them (written out
# to keep numpy.polynomial out of the import).  Fewer nodes lose the
# 1e-12 contract on the short steps near x = 2 (8 points: 5e-13 at
# x = 3, 4 points: 3e-7 near x = 5).
_GL_NODES = (
    0.14887433898163122,
    0.4333953941292472,
    0.6794095682990244,
    0.8650633666889845,
    0.9739065285171717,
)
_GL_WEIGHTS = (
    0.2955242247147528,
    0.2692667193099965,
    0.219086362515982,
    0.1494513491505804,
    0.06667134430868814,
)

# A step [a, b] with b > _GL_MAX_STEP_RATIO * a takes the Ei difference
# li(b) - li(a) instead: over wide steps the pole of 1/log t at t = 1
# comes close enough to spoil a fixed 10-point rule.
_GL_MAX_STEP_RATIO = 1.5

# Steps per pass of the node loop in li_ascending: four scratch buffers
# of this many doubles (512 KiB) stay in cache through the ten nodes,
# where a whole block's steps would stream through memory ten times.
_GL_CHUNK = 16384


def li_ascending(xs) -> np.ndarray:
    """Li at every point of an ascending 1-D array.

    The first value is ``li(xs[0])`` by the Ei path; each later value
    adds the 10-point Gauss-Legendre integral of 1/log t over the step
    from its predecessor, accumulated by one ``np.cumsum``.  Meant for
    the dense grids the scans walk (one block of consecutive primes and
    prime edges at a time), where it costs a fraction of ``li`` and
    keeps the same 1e-12 relative contract.  Equal neighbours add
    exactly 0.  The node loop runs over ``_GL_CHUNK`` steps at a time;
    each step takes the same operations whatever the chunking.
    """
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("li_ascending requires a 1-D array")
    if not np.all(arr >= 2.0):
        raise DomainError("li_ascending requires x >= 2")
    out = np.empty_like(arr)
    if len(arr) == 0:
        return out
    lo, hi = arr[:-1], arr[1:]
    if np.any(hi < lo):
        raise DomainError("li_ascending requires ascending x")
    if not arr[-1] < np.inf:
        raise DomainError("li_ascending requires finite x")
    steps = np.empty_like(lo)
    # half, mid, the node value and the sum over nodes of one chunk
    half_buf, mid_buf, t_buf, acc_buf = (
        np.empty(min(len(steps), _GL_CHUNK)) for _ in range(4))
    wide_buf = np.empty(len(half_buf), dtype=bool)
    wide = []  # indices of the wide steps, chunk by chunk
    for start in range(0, len(steps), _GL_CHUNK):
        stop = min(start + _GL_CHUNK, len(steps))
        n = stop - start
        half, mid, t, acc = half_buf[:n], mid_buf[:n], t_buf[:n], acc_buf[:n]
        # The points ascend, so a chunk whose last point is within the
        # ratio of its first holds no wide step.
        if hi[stop - 1] > _GL_MAX_STEP_RATIO * lo[start]:
            np.multiply(lo[start:stop], _GL_MAX_STEP_RATIO, out=t)
            np.greater(hi[start:stop], t, out=wide_buf[:n])
            wide.append(np.flatnonzero(wide_buf[:n]) + start)
        np.subtract(hi[start:stop], lo[start:stop], out=half)
        half *= 0.5
        np.add(lo[start:stop], half, out=mid)
        acc.fill(0.0)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            for signed in (-node, node):
                np.multiply(half, signed, out=t)
                t += mid
                np.log(t, out=t)
                np.divide(weight, t, out=t)
                acc += t
        np.multiply(half, acc, out=steps[start:stop])
    if wide:
        wide = np.concatenate(wide)
        steps[wide] = li(hi[wide]) - li(lo[wide])
    out[0] = li(float(arr[0]))
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def smooth_s1(x: float) -> float:
    """Smooth asymptotic of the squared-log prime sum: x log x - x - 2 log 2 + 2."""
    return x * math.log(x) - x - 2.0 * math.log(2.0) + 2.0


def smooth_s2(x: float) -> float:
    """Smooth asymptotic of the pair sum: x log x - (2 + log 2) x + 4."""
    return x * math.log(x) - (2.0 + math.log(2.0)) * x + 4.0


DUSART_LOWER_COEFF = 1.8
DUSART_UPPER_COEFF = 2.51
DUSART_LOWER_MIN_X = 32299
DUSART_UPPER_MIN_X = 355991


def dusart_bounds(x):
    """Two-sided pi(x) bounds x/log x + x/log^2 x + C x/log^3 x, C in {1.8, 2.51}.

    The lower bound is valid for x >= 32299, the upper for x >= 355991.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all((arr > 1.0) & (arr < np.inf)):
        raise DomainError("dusart_bounds requires finite x > 1")
    lg = np.log(arr)
    lower, upper = _dusart_bounds(arr, lg, lg**3)
    if np.isscalar(x) or arr.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def _dusart_bounds(arr, lg, lg3):
    """``dusart_bounds`` on a checked float array, given its log and log cubed."""
    base = arr / lg + arr / lg**2
    return (base + DUSART_LOWER_COEFF * arr / lg3,
            base + DUSART_UPPER_COEFF * arr / lg3)


def monotonicity_threshold(c: float, big_b: float) -> float:
    """Point beyond which the gap-deficit sum rises even at the worst b = -B.

    exp(1/(2c) + sqrt(1/(4c^2) + B)).
    """
    if c <= 0:
        raise DomainError("monotonicity_threshold requires c > 0")
    if big_b < 0:
        raise DomainError("monotonicity_threshold requires B >= 0")
    return math.exp(1.0 / (2.0 * c) + math.sqrt(1.0 / (4.0 * c * c) + big_b))


def bprime_threshold(p, c: float):
    """Lower bound the discrete derivative of b must exceed at a prime p:
    -(log^2 p / p) * (1 - 1/(c log p)).
    """
    if not c > 0:
        raise DomainError("bprime_threshold requires c > 0")
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 1.0) & (arr < np.inf)):
        raise DomainError("bprime_threshold requires finite p > 1")
    result = _bprime_threshold(arr, np.log(arr), c)
    if np.isscalar(p) or arr.ndim == 0:
        return float(result)
    return result


def _bprime_threshold(arr, lg, c):
    """``bprime_threshold`` on a checked float array, given its log."""
    return -(lg * lg / arr) * (1.0 - 1.0 / (c * lg))


def kprime_threshold(p, c: float):
    """Lower bound the discrete derivative of k must exceed at a prime p:
    -(1 / (sqrt(p) log^2 p)) * (1 - 1/(c log p)).
    """
    if not c > 0:
        raise DomainError("kprime_threshold requires c > 0")
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 1.0) & (arr < np.inf)):
        raise DomainError("kprime_threshold requires finite p > 1")
    result = _kprime_threshold(arr, np.log(arr), c)
    if np.isscalar(p) or arr.ndim == 0:
        return float(result)
    return result


def _kprime_threshold(arr, lg, c):
    """``kprime_threshold`` on a checked float array, given its log."""
    return -(1.0 / (np.sqrt(arr) * lg * lg)) * (1.0 - 1.0 / (c * lg))


# exp(t) overflows IEEE doubles just above t = 709.78.
_EXP_OVERFLOW = 709.0


def skewes_log10(alpha: float) -> float:
    """log10 of the triple-exponential crossover estimate e^(e^(e^alpha)).

    Returned as a base-10 logarithm (= e^(e^alpha) / log 10) since the
    estimate itself overflows any float for interesting alpha.
    """
    inner = math.exp(alpha)
    if inner > _EXP_OVERFLOW:
        raise OverflowError(
            f"alpha = {alpha} makes e^(e^alpha) overflow a double"
        )
    return math.exp(inner) / math.log(10.0)


def skewes_mean_kprime(sk1: float) -> float:
    """Average slope of k over (2, Sk1) implied by the sign change: 1/(8 pi Sk1)."""
    if sk1 <= 0:
        raise DomainError("skewes_mean_kprime requires sk1 > 0")
    return 1.0 / (8.0 * math.pi * sk1)


@dataclass(frozen=True)
class Constants:
    """Named constants used by the scans.

    c        gap-bound constant (conjectured >= 1)
    B        bound on the normalized expansion remainder b(x)
    K_all    enlarged ratio bound that holds from small x onward

    and, fixed by theorem or conjecture rather than chosen, so readable
    but not settable:

    K_rh     fluctuation-ratio bound under RH, 1/(8 pi), valid x > 2657
             (Schoenfeld)
    granville_c  2 e^(-gamma), the proposed sharp gap constant (Granville)
    """

    c: float = 1.0
    B: float = 5.0
    K_all: float = 1.0 / 3.0
    K_rh: ClassVar[float] = 1.0 / (8.0 * math.pi)
    granville_c: ClassVar[float] = 1.122918

    def __post_init__(self):
        # Written so that NaN fails each test: a NaN or infinite bound
        # would pass every check it sets.
        if not 0 < self.B < math.inf:
            raise DomainError(f"Constants.B must be positive and finite, got {self.B}")
        if not self.K_rh < self.K_all < math.inf:
            raise DomainError(
                "Constants require 0 < K_rh < K_all < inf, "
                f"got K_rh = {self.K_rh}, K_all = {self.K_all}"
            )
        if not 0 < self.c < math.inf:
            raise DomainError(f"Constants.c must be positive and finite, got {self.c}")


DEFAULT_CONSTANTS = Constants()
