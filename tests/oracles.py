"""Independent oracle implementations used only by the test suite.

Each oracle deliberately takes a different computational route from the
library path it checks: trial division vs the segmented sieve, adaptive
quadrature vs the exponential-integral branches, direct pair loops and
long-double accumulation vs the theta-table sums, pointwise ``li`` vs
the scans' per-block quadrature steps, one string per CSV row vs the
per-block batched row sink.

The reference kernels at the end are the other kind: earlier forms of
the library's own kernels (the array-only Ei path, the unchunked
quadrature loop, a fresh ``np.log`` for every formula, the cg scan's
logs for every lane, the |b| and Dusart arithmetic at every grid lane),
kept to check that the faster forms give the same bits.  The cg, delta
and Dusart references fold a block into a scan's state on their own,
without the scan's ``reduce``.
"""

from __future__ import annotations

import io
import math
from typing import NamedTuple

import numpy as np

from primegaps.accum import NeumaierSum
from primegaps.analytic import (
    _EI_SWITCH,
    _GL_MAX_STEP_RATIO,
    _GL_NODES,
    _GL_WEIGHTS,
    _LI_OFFSET,
    DUSART_LOWER_COEFF,
    DUSART_LOWER_MIN_X,
    DUSART_UPPER_COEFF,
    DUSART_UPPER_MIN_X,
    _ei_asymptotic,
    _ei_series,
    bprime_threshold,
    kprime_threshold,
    li,
)
from primegaps.fluct import _gap_pairs, _jump_grid
from primegaps.runner import RowSink
from primegaps.selberg import SelbergSums, s1, s2


def trial_division_primes(limit: int) -> np.ndarray:
    """Primes <= limit by vectorized trial division (no sieving)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    small = [p for p in range(2, math.isqrt(limit) + 1) if _is_prime_naive(p)]
    candidates = np.arange(2, limit + 1, dtype=np.int64)
    is_prime = np.ones(len(candidates), dtype=bool)
    for p in small:
        mask = (candidates % p == 0) & (candidates != p)
        is_prime &= ~mask
    return candidates[is_prime]


def trial_division_window(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) by trial division by 2 and each odd d <= sqrt(n).

    Odd divisors below 100 screen each number one at a time; the few
    numbers left are divided by the rest of the range at once.
    """
    odd = np.arange(3, math.isqrt(hi - 1) + 1, 2, dtype=np.int64)
    primes = []
    for n in range(max(lo, 2), hi):
        if n % 2 == 0:
            if n == 2:
                primes.append(n)
            continue
        root = math.isqrt(n)
        if any(n % d == 0 for d in range(3, min(root, 99) + 1, 2)):
            continue
        if np.all(n % odd[: np.searchsorted(odd, root, side="right")]):
            primes.append(n)
    return np.array(primes, dtype=np.int64)


def _is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def li_quad(x: float, epsrel: float = 2e-14) -> float:
    """Adaptive quadrature of the logarithmic integral from 2 to x."""
    # Imported here, so the sieve tests run where scipy is not installed.
    from scipy.integrate import quad

    value, _ = quad(lambda t: 1.0 / math.log(t), 2.0, x, epsabs=0.0,
                    epsrel=epsrel, limit=400)
    return value


def s1_longdouble(primes, x: int) -> float:
    """Extended-precision plain-loop sum of log^2 p over p <= x."""
    total = np.longdouble(0)
    for p in primes:
        if p > x:
            break
        total += np.longdouble(math.log(p)) ** 2
    return float(total)


def s2_pair_loop(primes, x: int, pairing: str = "ordered") -> float:
    """Direct double loop over prime pairs with pq <= x."""
    total = np.longdouble(0)
    for i, p in enumerate(primes):
        if p > x // 2:
            break
        start = 0 if pairing == "ordered" else i
        for q in primes[start:]:
            if p * q > x:
                break
            total += np.longdouble(math.log(p)) * np.longdouble(math.log(q))
    return float(total)


def s2_halfrange(data, x: int) -> float:
    """Ordered S2 as one pass over p <= x/2: the sum of log p * theta(x // p)."""
    ps = data.primes[data.primes <= x // 2]
    theta = np.concatenate([[0.0], data.cumlog()])
    thetas = theta[np.searchsorted(data.primes, x // ps, side="right")]
    return math.fsum(np.log(ps.astype(np.float64)) * thetas)


def selberg_sums_at(data, x: int) -> SelbergSums:
    """SelbergSums at one point from the pointwise table sums ``s1`` and ``s2``."""
    v1, v2, v2u = s1(data, x), s2(data, x, "ordered"), s2(data, x, "unordered")
    return SelbergSums(x, v1, v2, v2u, (v1 + v2 - 2.0 * x * math.log(x)) / x)


def sampled_indices(primes, x_min: int, x_max: int, stride: int,
                    per_decade: int | None) -> np.ndarray:
    """Table indices of the fit samples, thinned on the whole table at once.

    Every stride-th prime in [x_min, x_max]; with ``per_decade``, each
    decade of x keeps every ceil(count / per_decade)-th of its candidates.
    """
    lo = int(np.searchsorted(primes, x_min, side="left"))
    hi = int(np.searchsorted(primes, x_max, side="right"))
    idx = np.arange(lo, hi, stride)
    if per_decade is None:
        return idx
    decades = np.floor(np.log10(primes[idx].astype(np.float64)))
    keep = []
    for d in np.unique(decades):
        sel = np.nonzero(decades == d)[0]
        keep.extend(sel[:: max(1, math.ceil(len(sel) / per_decade))])
    return idx[np.sort(np.array(keep, dtype=np.int64))]


def pair_product_table(primes, limit: int):
    """All ordered prime-pair products pq <= limit with their log-term weights.

    Returns (sorted products, matching log p * log q terms); prefix sums
    of the terms give S2(x) at every x <= limit at once.
    """
    prods = []
    terms = []
    for p in primes:
        p = int(p)
        if p > limit // 2:
            break
        lp = math.log(p)
        qmax = limit // p
        qcount = int(np.searchsorted(primes, qmax, side="right"))
        for q in primes[:qcount]:
            prods.append(p * int(q))
            terms.append(lp * math.log(int(q)))
    order = np.argsort(np.array(prods, dtype=np.int64), kind="stable")
    return (
        np.array(prods, dtype=np.int64)[order],
        np.array(terms, dtype=np.float64)[order],
    )


def pair_terms_at(primes, x: int) -> float:
    """Sum of log p log q over ordered pairs with pq exactly equal to x."""
    total = 0.0
    for p in primes:
        p = int(p)
        if p * p > x:
            break
        if x % p == 0:
            q = x // p
            idx = np.searchsorted(primes, q)
            if idx < len(primes) and primes[idx] == q:
                term = math.log(p) * math.log(q)
                total += term if p == q else 2.0 * term
    return total


class DerivRecord(NamedTuple):
    """Forward-difference derivatives of b and k at p_n, with their bounds."""

    n: int
    p: int
    b_prime: float
    k_prime: float
    b_rhs: float
    k_rhs: float
    b_ok: bool
    k_ok: bool


def deriv_records_li(data, limit: int, c: float = 1.0, c3: float = 2.0):
    """DerivRecords for every p_n with p_{n+1} <= limit, Li taken pointwise.

    Each Li value comes from ``li`` (the exponential-integral path that
    ``fluctuation_at`` uses), over the whole range at once; the scans step
    Li block by block with ``li_ascending``.  b is formed as the scans form
    it, so b' is the same float on both paths.
    """
    count = data.pi(limit)
    pf = data.primes[:count].astype(np.float64)
    lg = np.log(pf)
    ns = np.arange(1, count + 1, dtype=np.float64)
    b = (ns - (pf / lg + pf / lg**2 + c3 * pf / lg**3)) * lg**3 / pf
    k = (ns - li(pf)) / (np.sqrt(pf) * lg)
    dp = np.diff(pf)
    b_prime = np.diff(b) / dp
    k_prime = np.diff(k) / dp
    b_rhs = bprime_threshold(pf[:-1], c)
    k_rhs = kprime_threshold(pf[:-1], c)
    return [
        DerivRecord(i + 1, int(pf[i]), float(b_prime[i]), float(k_prime[i]),
                    float(b_rhs[i]), float(k_rhs[i]),
                    bool(b_prime[i] > b_rhs[i]), bool(k_prime[i] > k_rhs[i]))
        for i in range(count - 1)
    ]


# ----------------------------------------------------------------------
# CSV rows, one string per row, field by field: the scans' row formatting
# before it was batched per block.  The rows' columns come from the
# reference kernels below (the full-lane folds of the cg, delta and Dusart
# scans, the lanes of the Schoenfeld, derivative and |b| scans), and for
# the partial sums from the scan's own payload and state.


class RowCounter(RowSink):
    """A sink that counts the rows it is given instead of formatting them."""

    def __init__(self):
        super().__init__(io.BytesIO())
        self.rows = 0

    def write_rows(self, *cols):
        self.rows += len(cols[0])


def _flag(v) -> str:
    return str(bool(v)).lower()


def _cell(v) -> str:
    """One CSV field: an int, a float as its shortest repr, or a flag."""
    if isinstance(v, bool):
        return _flag(v)
    return repr(v) if isinstance(v, float) else str(v)


def _partial_sum_cols(scan, state, block):
    """The partial-sum rows from the scan's payload and ``state`` before the
    block, which the scan's own reduce then advances."""
    payload = scan.map_block(block)
    n0, ps, succ, local, _ = payload
    gap_cum = state["gap_sum"] + np.cumsum(succ - ps)
    logsq = NeumaierSum.from_state(state["logsq"]).value + local
    scan.reduce(state, payload)
    return np.arange(n0, n0 + len(ps)), gap_cum, logsq, gap_cum < logsq


def _row_cols(scan, state, block):
    if scan.name in _FOLDS:
        return fold_oracle(scan, state, block, rows=True)
    if scan.name in _LANES:
        return lane_rows_oracle(scan, block)
    return _partial_sum_cols(scan, state, block)


def selberg_csv_oracle(data, xs) -> bytes:
    """The ``selberg`` command's CSV at points ``xs``, one f-string per
    row of the pointwise ``selberg_sums_at``."""
    lines = ["x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds"]
    for s in (selberg_sums_at(data, x) for x in xs):
        lines.append(f"{s.x},{s.s1!r},{s.s2!r},{s.s2_unordered!r},"
                     f"{s.residual_per_x!r},{_flag(s.lemma_holds)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def csv_rows_oracle(scan, data, limit: int) -> bytes:
    """The CSV bytes ``scan`` writes up to ``limit``, formatted row by row.

    Folds the default blocks through the references below, without the
    scan's own reduce but for the partial sums, and formats each row from
    the columns they return.
    """
    lines = [scan.header()]
    state = scan.start()
    for block in data.blocks(limit=limit):
        cols = _row_cols(scan, state, block)
        if cols is not None:
            lines += [",".join(map(_cell, row)) for row in zip(*(c.tolist() for c in cols))]
    return ("\n".join(lines) + "\n").encode("ascii")


# ----------------------------------------------------------------------
# Reference kernels: the scans' Li and log forms before the scalar Ei
# path, the chunked quadrature loop, the shared logs, the cg scan's
# candidate lanes and the jump-grid runs of the |b| and Dusart scans.
# Each fold below is a scan's ``reduce`` built from them at every lane, and
# each set of lanes the rows its ``reduce`` returns at every lane.


def li_array_path(xs) -> np.ndarray:
    """Li at every point of ``xs`` through the array branches of Ei only."""
    t = np.log(np.atleast_1d(np.asarray(xs, dtype=np.float64)))
    out = np.empty_like(t)
    small = t <= _EI_SWITCH
    if np.any(small):
        out[small] = _ei_series(t[small])
    if np.any(~small):
        out[~small] = _ei_asymptotic(t[~small])
    return out - _LI_OFFSET


def li_ascending_unchunked(xs) -> np.ndarray:
    """``li_ascending`` with the node loop over every step at once."""
    arr = np.asarray(xs, dtype=np.float64)
    out = np.empty_like(arr)
    if len(arr) == 0:
        return out
    lo, hi = arr[:-1], arr[1:]
    half = 0.5 * (hi - lo)
    mid = lo + half
    acc = np.zeros_like(half)
    t = np.empty_like(half)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        for signed in (-node, node):
            np.multiply(half, signed, out=t)
            t += mid
            np.log(t, out=t)
            np.divide(weight, t, out=t)
            acc += t
    steps = half * acc
    wide = hi > _GL_MAX_STEP_RATIO * lo
    if np.any(wide):
        steps[wide] = li_array_path(hi[wide]) - li_array_path(lo[wide])
    out[0] = li_array_path(arr[0])[0]
    np.cumsum(steps, out=out[1:])
    out[1:] += out[0]
    return out


def _expansion_plain(x):
    lg = np.log(x)
    return x / lg + x / lg**2 + 2.0 * x / lg**3


def _raise_to(state, key, at, values, xs):
    """Raise ``state[key]`` to the largest of ``values`` when that is greater,
    with ``state[at]`` the x in ``xs`` where it first occurs."""
    if len(values) and values.max() > state[key]:
        i = int(np.argmax(values))
        state[key], state[at] = float(values[i]), int(xs[i])


def _cg_fold(scan, state, block, rows):
    """``CgScan.reduce`` with a log and a ratio for every lane."""
    ps, succ = _gap_pairs(block, scan.limit)
    if len(ps) == 0:
        return None
    g = (succ - ps).astype(np.float64)
    lg = np.log(ps.astype(np.float64))
    ratio = g / (lg * lg)
    ns = np.arange(block.n0, block.n0 + len(ps))
    bad = g >= scan.c * (lg * lg)
    _raise_to(state, "max_ratio", "max_at", ratio, ps)
    _raise_to(state, "tail_max", "tail_at", ratio[ns >= 5], ps[ns >= 5])
    state["violations"] += ns[bad].tolist()
    return (ns[bad], ps[bad], succ[bad] - ps[bad], ratio[bad]) if rows else None


def _schoenfeld_lanes(scan, block):
    xs, pis = _jump_grid(block)
    xf = xs.astype(np.float64)
    livals = li_ascending_unchunked(xf)
    return xs, pis, livals, np.abs(pis - livals) / (np.sqrt(xf) * np.log(xf))


def _deriv_lanes(scan, block):
    ps, succ = _gap_pairs(block, scan.limit)
    if len(ps) == 0:
        return None
    pf = np.concatenate([ps, [succ[-1]]]).astype(np.float64)
    lg = np.log(pf)
    ns = np.arange(block.n0, block.n0 + len(pf), dtype=np.float64)
    b = (ns - _expansion_plain(pf)) * lg**3 / pf
    k = (ns - li_ascending_unchunked(pf)) / (np.sqrt(pf) * lg)
    dp = np.diff(pf)
    p, lp, c = pf[:-1], np.log(pf[:-1]), scan.c
    b_prime, k_prime = np.diff(b) / dp, np.diff(k) / dp
    b_rhs = -(lp * lp / p) * (1.0 - 1.0 / (c * lp))
    k_rhs = -(1.0 / (np.sqrt(p) * lp * lp)) * (1.0 - 1.0 / (c * lp))
    if scan.sink_mode == "figure":
        return ps, k_prime, k_rhs
    return (np.arange(block.n0, block.n0 + len(ps)), ps, b_prime, k_prime, b_rhs,
            k_rhs, b_prime > b_rhs, k_prime > k_rhs)


def _b_plain(xs, pis):
    xf = xs.astype(np.float64)
    lg = np.log(xf)
    return (pis - _expansion_plain(xf)) * lg**3 / xf


def _bbound_lanes(scan, block):
    xs, pis = _jump_grid(block)
    return xs, pis, _b_plain(xs, pis)


def _dusart_fold(scan, state, block, rows):
    """``DusartScan.reduce`` with both bounds at every lane."""
    xs, pis = _jump_grid(block)
    keep = xs >= DUSART_LOWER_MIN_X
    xs, pis = xs[keep], pis[keep]
    if len(xs) == 0:
        return None
    xf = xs.astype(np.float64)
    lg = np.log(xf)
    base = xf / lg + xf / lg**2
    lower = base + DUSART_LOWER_COEFF * xf / lg**3
    upper = base + DUSART_UPPER_COEFF * xf / lg**3
    bad = (pis <= lower) | ((xs >= DUSART_UPPER_MIN_X) & (pis >= upper))
    state["checked"] += len(xs)
    state["violations"] += xs[bad].tolist()
    return (xs[bad], pis[bad], lower[bad], upper[bad]) if rows and bad.any() else None


def _delta_fold(scan, state, block, rows):
    """``DeltaScan.reduce`` with the plain expansion and the violations
    found as log^2 p <= g / c."""
    starts, succ = _gap_pairs(block, scan.limit)
    gaps = (succ - starts).astype(np.float64)
    ps = block.primes
    pf = ps.astype(np.float64)
    lg = np.log(pf)
    terms = lg[: len(gaps)] ** 2 - gaps / scan.c
    prefix = NeumaierSum.from_state(state["prefix"])
    delta = prefix.value + np.concatenate([[0.0], np.cumsum(terms)])[: len(ps)]
    delta_hat = delta - pf * lg + ((scan.c + 1.0) / scan.c) * pf
    ns = np.arange(block.n0, block.n0 + len(ps), dtype=np.float64)
    b_exp = (ns - _expansion_plain(pf)) * lg**3 / pf
    _raise_to(state, "drift", "drift_at", np.abs(delta_hat * lg / pf - b_exp), ps)
    viol = np.flatnonzero(lg[: len(gaps)] ** 2 <= gaps / scan.c)
    state["violations"] += (block.n0 + viol).tolist()
    state["count"] += len(ps)
    state["final"] = float(delta[-1])
    prefix.add(math.fsum(terms))
    state["prefix"] = prefix.state()
    return (ps, delta, delta_hat) if rows else None


_FOLDS = {
    "cg": _cg_fold,
    "dusart": _dusart_fold,
    "delta": _delta_fold,
}


def fold_oracle(scan, state, block, rows=False):
    """``scan.reduce(state, block, rows)`` for the cg, delta and Dusart scans
    from the reference kernels above, at every lane: it folds ``block`` into
    ``state`` and returns the rows, or None when there are none."""
    return _FOLDS[scan.name](scan, state, block, rows)


_LANES = {
    "schoenfeld": _schoenfeld_lanes,
    "deriv": _deriv_lanes,
    "bbound": _bbound_lanes,
}


def lane_rows_oracle(scan, block):
    """The rows ``scan.reduce(state, scan.map_block(block), rows=True)``
    returns, every lane of ``block``, for the Schoenfeld, derivative and |b|
    scans, from the reference kernels above."""
    return _LANES[scan.name](scan, block)
