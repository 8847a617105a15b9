"""Checks of primegaps outputs against computations made apart from it.

Nothing here imports primegaps or stores an earlier output of it.  The
expected values come from:

- a plain sieve of Eratosthenes over every integer up to the limit (no
  segments, no odd-only packing), checked itself against the published
  values of pi(1e8) and pi(1e9);
- the published table of maximal prime gaps below 1e9 (OEIS A002386 and
  A005250), since the largest ratio g / log^2 p is always attained at a
  record gap;
- mpmath at the extremal points the report names;
- a direct pair loop for S1 and S2 at 104 729;
- long-double prefix sums for the gap-deficit sum delta.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

PUBLISHED_PI = {10**8: 5_761_455, 10**9: 50_847_534}

# (gap, p): every maximal prime gap with p below 1e9.
MAXIMAL_GAPS = [
    (1, 2), (2, 3), (4, 7), (6, 23), (8, 89), (14, 113), (18, 523),
    (20, 887), (22, 1129), (34, 1327), (36, 9551), (44, 15683),
    (52, 19609), (72, 31397), (86, 155921), (96, 360653), (112, 370261),
    (114, 492113), (118, 1349533), (132, 1357201), (148, 2010733),
    (154, 4652353), (180, 17051707), (210, 20831323), (220, 47326693),
    (222, 122164747), (234, 189695659), (248, 191912783),
    (250, 387096133), (282, 436273009),
]
MAXIMAL_GAPS_BELOW = 10**9

# Gaps below this bound are taken from a small sieve; above it the table
# bounds them (887 is a record, so every later gap is bounded by a record
# at or after 887).
_DIRECT_GAPS_BELOW = 1000
_DIRECT_RECORD = 887

S1S2_POINT = 104729
S1S2_REFERENCE = 686787.25
SCHOENFELD_POINT = 2658
BBOUND_POINT = 10
DUSART_LOWER_MIN_X = 32299
DELTA_SAMPLES = 2000


def reference_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve of Eratosthenes over 0..limit."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    if limit in PUBLISHED_PI and len(primes) != PUBLISHED_PI[limit]:
        raise AssertionError(f"reference sieve gives pi({limit}) = {len(primes)}")
    return primes


def _close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


# ----------------------------------------------------------------------
# Gap ratios g_n / log^2 p_n


@dataclass(frozen=True)
class GapRatioExpect:
    limit: int
    violations: list
    max_ratio: float
    max_ratio_at: int
    max_ratio_from_n5: float
    max_ratio_from_n5_at: int
    least_n_holds_onward: int


def gap_ratio_expect(limit: int, c: float = 1.0) -> GapRatioExpect:
    """Violations of g_n < c log^2 p_n and the largest ratios, from the table.

    A gap (p, g) with p >= 887 is at most the gap of the latest record
    p' <= p, and p' >= 887, so its ratio is at most that record's.  The
    candidates are therefore every gap below 1000 and the records from
    887 on.
    """
    if limit > MAXIMAL_GAPS_BELOW:
        raise ValueError(f"the gap table only covers p < {MAXIMAL_GAPS_BELOW}")
    small = reference_primes(_DIRECT_GAPS_BELOW + 100)
    index = {int(p): n + 1 for n, p in enumerate(small)}
    cands = []  # (n or None, p, g)
    for n, (p, q) in enumerate(zip(small[:-1], small[1:]), 1):
        if p < _DIRECT_GAPS_BELOW and q <= limit:
            cands.append((n, int(p), int(q - p)))
    for g, p in MAXIMAL_GAPS:
        if p > _DIRECT_RECORD and p + g <= limit:
            cands.append((index.get(p), p, g))
    violations = []
    for n, p, g in cands:
        if g >= c * math.log(p) ** 2:
            if n is None:
                raise ValueError(f"a record gap at {p} violates c = {c}")
            violations.append(n)
    ratio = lambda cand: cand[2] / math.log(cand[1]) ** 2  # noqa: E731
    top = max(cands, key=ratio)
    top5 = max((cd for cd in cands if cd[1] >= 11), key=ratio)
    violations.sort()
    return GapRatioExpect(
        limit=limit,
        violations=violations,
        max_ratio=ratio(top),
        max_ratio_at=top[1],
        max_ratio_from_n5=ratio(top5),
        max_ratio_from_n5_at=top5[1],
        least_n_holds_onward=(violations[-1] + 1) if violations else 1,
    )


def check_gap_ratio(doc: dict, exp: GapRatioExpect) -> list[str]:
    out = []
    if doc.get("limit") != exp.limit:
        out.append(f"cg limit {doc.get('limit')} != {exp.limit}")
    if doc.get("violations") != exp.violations:
        out.append(f"cg violations {doc.get('violations')} != {exp.violations}")
    if doc.get("max_ratio_at") != exp.max_ratio_at or not _close(
        doc.get("max_ratio", 0.0), exp.max_ratio, 1e-12
    ):
        out.append(
            f"cg max ratio {doc.get('max_ratio')} at {doc.get('max_ratio_at')}, "
            f"expected {exp.max_ratio} at {exp.max_ratio_at}"
        )
    th = doc.get("thresholds", {})
    if th.get("max_ratio_from_n5_at") != exp.max_ratio_from_n5_at or not _close(
        th.get("max_ratio_from_n5", 0.0), exp.max_ratio_from_n5, 1e-12
    ):
        out.append(
            f"cg max ratio from n=5 {th.get('max_ratio_from_n5')} at "
            f"{th.get('max_ratio_from_n5_at')}, expected "
            f"{exp.max_ratio_from_n5} at {exp.max_ratio_from_n5_at}"
        )
    if th.get("least_n_holds_onward") != exp.least_n_holds_onward:
        out.append(
            f"cg least_n_holds_onward {th.get('least_n_holds_onward')} != "
            f"{exp.least_n_holds_onward}"
        )
    return out


def check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_cg_scan(summary: dict, doc: dict, code: int, exp: GapRatioExpect) -> list[str]:
    """`scan --which cg --format json`: stdout summary and the JSON file."""
    out = check_exit(code, 1 if exp.violations else 0)
    if summary.get("pass") != (not exp.violations):
        out.append(f"cg summary pass = {summary.get('pass')}")
    out += ["summary: " + p for p in check_gap_ratio(summary, exp)]
    out += ["file: " + p for p in check_gap_ratio(doc, exp)]
    return out


# ----------------------------------------------------------------------
# Report


def _logsq(primes: np.ndarray) -> np.ndarray:
    lg = np.log(primes.astype(np.float64))
    return lg * lg


def _pair_sums(primes: np.ndarray, x: int) -> tuple[float, float, float]:
    """S1, ordered S2 and unordered S2 at x by a direct loop over pairs."""
    ps = primes[primes <= x]
    s1 = math.fsum(_logsq(ps))
    ordered, unordered = [], []
    for i, p in enumerate(ps):
        p = int(p)
        if 2 * p > x:
            break
        qs = ps[: int(np.searchsorted(ps, x // p, side="right"))]
        terms = math.log(p) * np.log(qs.astype(np.float64))
        ordered.append(terms)
        unordered.append(terms[i:])
    return (
        s1,
        math.fsum(np.concatenate(ordered)),
        math.fsum(np.concatenate(unordered)),
    )


def _selberg_residual(primes: np.ndarray, x: int) -> float:
    """(S1 + S2 - 2 x log x) / x, with S2 as the one-pass sum over p <= x/2."""
    ps = primes[primes <= x]
    s1 = math.fsum(_logsq(ps))
    logs = np.log(ps.astype(np.float64))
    theta = np.cumsum(logs)
    half = ps[: int(np.searchsorted(ps, x // 2, side="right"))]
    idx = np.searchsorted(ps, x // half, side="right")
    s2 = math.fsum(logs[: len(half)] * theta[idx - 1])
    return (s1 + s2 - 2.0 * x * math.log(x)) / x


@dataclass(frozen=True)
class ReportExpect:
    limit: int
    pi: int
    partial_n0: int
    gaps: GapRatioExpect
    s1: float
    s2_ordered: float
    s2_unordered: float
    residual_last: float
    schoenfeld_value: float
    schoenfeld_max_ratio: float
    bbound_value: float
    dusart_checked: int


def report_expect(limit: int) -> ReportExpect:
    primes = reference_primes(limit)
    n = len(primes)
    # Partial sums: sum_{m<=N} g_m = p_{N+1} - 2 against sum_{m<=N} log^2 p_m.
    gap_sum = primes[1:] - 2
    logsq = np.cumsum(_logsq(primes[:-1]))
    fails = np.flatnonzero(~(gap_sum < logsq))
    partial_n0 = int(fails[-1]) + 2 if len(fails) else 1
    s1, s2o, s2u = _pair_sums(primes, S1S2_POINT)
    with mpmath.workdps(30):
        x = SCHOENFELD_POINT
        pi_x = int(np.searchsorted(primes, x, side="right"))
        li_x = mpmath.li(x, offset=True)
        schoenfeld = abs(pi_x - li_x) / (mpmath.sqrt(x) * mpmath.log(x))
        # At x = 2 the jump-edge grid has pi = 1 and Li(2) = 0.
        max_ratio = 1 / (mpmath.sqrt(2) * mpmath.log(2))
        x = BBOUND_POINT
        lg = mpmath.log(x)
        pi_b = int(np.searchsorted(primes, x, side="right"))
        b = (pi_b - x / lg - x / lg**2 - 2 * x / lg**3) * lg**3 / x
    # Jump-edge grid: x = p and x = p - 1 (p - 1 >= 2, p != 3), x <= limit.
    edges = np.concatenate([primes, primes[(primes - 1 >= 2) & (primes != 3)] - 1])
    dusart_checked = int(np.count_nonzero(edges >= DUSART_LOWER_MIN_X))
    return ReportExpect(
        limit=limit,
        pi=n,
        partial_n0=partial_n0,
        gaps=gap_ratio_expect(limit),
        s1=s1,
        s2_ordered=s2o,
        s2_unordered=s2u,
        residual_last=_selberg_residual(primes, limit),
        schoenfeld_value=float(schoenfeld),
        schoenfeld_max_ratio=float(max_ratio),
        bbound_value=float(abs(b)),
        dusart_checked=dusart_checked,
    )


def check_report(text: str, code: int, exp: ReportExpect) -> list[str]:
    """`report` JSON on stdout against the reference computations."""
    out = check_exit(code, 0)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return out + [f"report is not JSON: {exc}"]
    ps = doc.get("partial_sums", {})
    cond = doc.get("conditions", {})
    sch = doc.get("schoenfeld", {})
    bb = doc.get("b_bound", {})
    du = doc.get("dusart", {})
    sp = doc.get("selberg_points", {})
    sel = doc.get("selberg_at_104729", {})
    want = [  # (label, got, expected)
        ("pass", doc.get("pass"), True),
        ("config.limit", doc.get("config", {}).get("limit"), exp.limit),
        ("partial_sums.n_max", ps.get("n_max"), exp.pi - 1),
        ("partial_sums.n0", ps.get("n0"), exp.partial_n0),
        ("partial_sums.identity_exact", ps.get("identity_exact"), True),
        ("conditions.count", cond.get("count"), exp.pi - 1),
        ("conditions.b_pass", cond.get("b_pass"), True),
        ("conditions.k_pass", cond.get("k_pass"), True),
        ("schoenfeld.max_after_cutoff_at", sch.get("max_after_cutoff_at"),
         SCHOENFELD_POINT),
        ("schoenfeld.max_ratio_at", sch.get("max_ratio_at"), 2),
        ("b_bound.max_abs_b_at", bb.get("max_abs_b_at"), BBOUND_POINT),
        ("b_bound.pass", bb.get("pass"), True),
        ("dusart.checked", du.get("checked"), exp.dusart_checked),
        ("dusart.violations", du.get("violations"), []),
        ("selberg_points.all_hold", sp.get("all_hold"), True),
        ("selberg_points.failures", sp.get("failures"), []),
        ("selberg_at_104729.x", sel.get("x"), S1S2_POINT),
    ]
    for label, got, expected in want:
        if got != expected:
            out.append(f"{label} = {got!r}, expected {expected!r}")

    near = [  # (label, got, expected, rel, abs)
        ("schoenfeld.max_after_cutoff", sch.get("max_after_cutoff"),
         exp.schoenfeld_value, 1e-9, 0.0),
        ("schoenfeld.max_ratio", sch.get("max_ratio"), exp.schoenfeld_max_ratio,
         1e-12, 0.0),
        ("b_bound.max_abs_b", bb.get("max_abs_b"), exp.bbound_value, 1e-12, 0.0),
        ("selberg_at_104729.s1", sel.get("s1"), exp.s1, 1e-12, 0.0),
        ("selberg_at_104729.s2_ordered", sel.get("s2_ordered"), exp.s2_ordered,
         1e-12, 0.0),
        ("selberg_at_104729.s2_unordered", sel.get("s2_unordered"),
         exp.s2_unordered, 1e-12, 0.0),
        ("selberg_at_104729.s1_minus_s2_unordered",
         sel.get("s1_minus_s2_unordered"), S1S2_REFERENCE, 0.0, 0.01),
        ("selberg_points.residual_per_x_last", sp.get("residual_per_x_last"),
         exp.residual_last, 0.0, 1e-9),
    ]
    for label, got, expected, rel, abs_tol in near:
        if not isinstance(got, (int, float)) or not _close(got, expected, rel, abs_tol):
            out.append(f"{label} = {got!r}, expected {expected!r}")
    out += ["cramer_granville: " + p
            for p in check_gap_ratio(doc.get("cramer_granville", {}), exp.gaps)]
    return out


# ----------------------------------------------------------------------
# Gap-deficit CSV


@dataclass(frozen=True)
class DeltaExpect:
    limit: int
    primes: np.ndarray
    delta: np.ndarray  # long double, delta(p_n) for every row
    gaps: GapRatioExpect


def delta_expect(limit: int) -> DeltaExpect:
    """delta(p_n) = sum_{m<n} log^2 p_m - (p_n - 2), in long double (c = 1)."""
    primes = reference_primes(limit)
    lg = np.log(primes.astype(np.longdouble))
    prefix = np.concatenate([[np.longdouble(0)], np.cumsum(lg * lg)[:-1]])
    delta = prefix - (primes.astype(np.longdouble) - 2)
    return DeltaExpect(limit, primes, delta, gap_ratio_expect(limit))


def _delta_tolerance(exp: DeltaExpect, rows: np.ndarray) -> np.ndarray:
    # 1e-12 of the prefix sum of log^2 p; the program's error is near 1e-14.
    prefix = exp.delta[rows] + (exp.primes[rows] - 2)
    return 1e-12 * prefix.astype(np.float64) + 1e-9


def check_delta_csv(raw: bytes, exp: DeltaExpect, seed: int) -> list[str]:
    """The `p,delta,delta_hat` CSV: rows, the p column, delta and delta_hat."""
    out = []
    if b"\x00" in raw:
        out.append(f"CSV holds {raw.count(bytes(1))} NUL bytes")
        raw = raw.replace(b"\x00", b"")
    head, _, body = raw.partition(b"\n")
    if head != b"p,delta,delta_hat":
        out.append(f"CSV header {head[:40]!r}")
    if not body.endswith(b"\n"):
        return out + ["CSV does not end with a newline"]
    lines = body.count(b"\n")
    if lines != len(exp.primes):
        return out + [f"CSV has {lines} rows, expected {len(exp.primes)}"]
    try:
        vals = np.fromstring(body.replace(b"\n", b",")[:-1], sep=",")
    except ValueError as exc:
        return out + [f"CSV does not parse: {exc}"]
    if vals.size != 3 * lines:
        return out + [f"CSV has {vals.size} fields, expected {3 * lines}"]
    vals = vals.reshape(-1, 3)
    p, delta, delta_hat = vals[:, 0], vals[:, 1], vals[:, 2]
    bad = np.flatnonzero(p != exp.primes)
    if len(bad):
        out.append(f"p column differs from the reference sieve at row {bad[0] + 1}")
    rng = np.random.default_rng(seed)
    rows = np.unique(np.concatenate([
        rng.choice(lines, size=min(DELTA_SAMPLES, lines), replace=False),
        [0, lines - 1],
    ]))
    err = np.abs(delta[rows].astype(np.longdouble) - exp.delta[rows])
    bad = rows[err > _delta_tolerance(exp, rows)]
    if len(bad):
        out.append(
            f"delta differs from the long-double sum at {len(bad)} of {len(rows)} "
            f"sampled rows, first at row {bad[0] + 1}"
        )
    lg = np.log(p)
    want = delta - p * lg + 2.0 * p
    bad = np.flatnonzero(np.abs(delta_hat - want) > 1e-12 * (p * lg) + 1e-9)
    if len(bad):
        out.append(f"delta_hat != delta - p log p + 2p at {len(bad)} rows, "
                   f"first at row {bad[0] + 1}")
    return out


def check_delta_summary(summary: dict, code: int, exp: DeltaExpect) -> list[str]:
    out = check_exit(code, 1 if exp.gaps.violations else 0)
    if summary.get("count") != len(exp.primes):
        out.append(f"delta count {summary.get('count')} != {len(exp.primes)}")
    # delta violations are g_n >= log^2 p_n, the same set as the gap ratios.
    if summary.get("violations") != exp.gaps.violations:
        out.append(f"delta violations {summary.get('violations')} != "
                   f"{exp.gaps.violations}")
    final = summary.get("final_delta")
    tol = float(_delta_tolerance(exp, np.array([len(exp.primes) - 1]))[0])
    if not isinstance(final, float) or abs(final - float(exp.delta[-1])) > tol:
        out.append(f"final_delta {final!r}, expected {float(exp.delta[-1])!r}")
    return out
