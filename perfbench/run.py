"""Benchmark of the primegaps CLI: timed runs, output checks, traced layers.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload report-1e8 --seed 1 --seconds 38 --trace 0

Each workload is one single-threaded CLI command.  The run sets up the
expected outputs from computations made apart from the program
(``checks.py``), times the command's import (``setup_s``), then runs the
command again and again for ``--seconds`` (at least twice), checking
every output.  Times are scaled by ``calibrate()``, timed next to each
command on the same CPU (see README.md).  With ``--trace 1`` it then
runs the command once more in-process with the span wrappers of
``spans.py`` and reports the per-layer metrics instead of the end-to-end
ones.

Details go to stderr; the last line on stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 2, with no JSON line, when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

MIN_REPS = 2
SETUP_REPEATS = 9
# Times are scaled to a machine on which calibrate() takes this long; it is
# about the median on the machine of the reference figures.
CALIBRATION_REFERENCE_S = 0.40
# Every child is killed at this many seconds after the benchmark started,
# so that the whole run ends within three minutes.
DEADLINE_S = 170.0
SETUP_CODE = (
    "import time, primegaps.cli; "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Rep:
    """One run of the CLI command."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes

    @property
    def failed(self) -> bool:
        # 0 and 1 are the CLI's verdicts; anything else is an error or a crash.
        return self.code not in (0, 1)


# ----------------------------------------------------------------------
# Workloads


class Report:
    name = "report-1e8"
    limit = 10**8

    def cli_args(self, work: Path) -> list[str]:
        return ["report", "--limit", str(self.limit), "--workers", "1"]

    def expect(self):
        return checks.report_expect(self.limit)

    def prime_count(self, exp) -> int:
        return exp.pi

    def check(self, rep: Rep, work: Path, exp, seed: int) -> list[str]:
        return checks.check_report(rep.stdout.decode("ascii", "replace"), rep.code, exp)


class DeltaCsv:
    name = "scan-delta-csv-3e7"
    limit = 3 * 10**7

    def __init__(self):
        self._verified: set[str] = set()

    def cli_args(self, work: Path) -> list[str]:
        return ["scan", "--which", "delta", "--limit", str(self.limit),
                "--workers", "1", "--out", str(work / "delta.csv"),
                "--checkpoint", str(work / "delta.ckpt")]

    def expect(self):
        return checks.delta_expect(self.limit)

    def prime_count(self, exp) -> int:
        return len(exp.primes)

    def check(self, rep: Rep, work: Path, exp, seed: int) -> list[str]:
        summary, problems = _summary(rep)
        problems += checks.check_delta_summary(summary, rep.code, exp)
        path = work / "delta.csv"
        raw = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        # A CSV identical to one already checked in this run passes as that one did.
        digest = hashlib.sha256(raw).hexdigest()
        if digest not in self._verified:
            csv_problems = checks.check_delta_csv(raw, exp, seed)
            if not csv_problems:
                self._verified.add(digest)
            problems += csv_problems
        return problems


class CgJson:
    name = "scan-cg-1e9"
    limit = 10**9

    def cli_args(self, work: Path) -> list[str]:
        return ["scan", "--which", "cg", "--limit", str(self.limit),
                "--workers", "1", "--format", "json", "--out", str(work / "cg.json")]

    def expect(self):
        return checks.gap_ratio_expect(self.limit)

    def prime_count(self, exp) -> int:
        return checks.PUBLISHED_PI[self.limit]

    def check(self, rep: Rep, work: Path, exp, seed: int) -> list[str]:
        summary, problems = _summary(rep)
        path = work / "cg.json"
        try:
            doc = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            return problems + [f"cannot read {path.name}: {exc}"]
        finally:
            path.unlink(missing_ok=True)
        return problems + checks.check_cg_scan(summary, doc, rep.code, exp)


WORKLOADS = {wl.name: wl for wl in (Report, DeltaCsv, CgJson)}


def _summary(rep: Rep) -> tuple[dict, list[str]]:
    lines = rep.stdout.decode("ascii", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), []
    except (IndexError, ValueError):
        return {}, ["no JSON summary on stdout"]


# ----------------------------------------------------------------------
# Running the program


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIMEGAPS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], work: Path, env: dict, deadline: float) -> Rep:
    """Run cmd to its end through launch.py; its wall time, CPU time and peak RSS."""
    out_path, err_path = work / "stdout", work / "stderr"
    timeout = max(1.0, deadline - time.monotonic())
    launcher = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), repr(timeout), str(out_path),
         str(err_path), "--", *cmd],
        cwd=work, env=env, capture_output=True, timeout=timeout + 30,
    )
    try:
        stats = json.loads(launcher.stdout)
    except ValueError as exc:
        raise BenchError("launch.py failed:\n"
                         + launcher.stderr.decode("ascii", "replace")) from exc
    rep = Rep(stdout=out_path.read_bytes(), stderr=err_path.read_bytes(), **stats)
    out_path.unlink()
    err_path.unlink()
    return rep


def setup_seconds(work: Path, env: dict) -> float:
    """Seconds from starting the interpreter to primegaps.cli imported."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=work, env=env,
                          capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError("cannot import primegaps.cli:\n"
                         + proc.stderr.decode("ascii", "replace"))
    return float(proc.stdout) - t0


# Odd primes below 2000, for the calibration's strided writes.
_CAL_PRIMES = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, p, 2))]


def calibrate() -> float:
    """Seconds for a fixed mix of the work the workloads do.

    Touching fresh memory, row formatting in the interpreter (the delta
    CSV), strided writes into cache-sized boolean segments (the sieve) and
    float series over 32 768 doubles (Li), in about equal parts.  On a
    shared machine their speed moves with the workloads' from minute to
    minute; the fresh-memory part tracks it best.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        np.ones(64 << 20, dtype=np.uint8).sum()
    xs = [i * 1.2345678901 for i in range(30000)]
    "".join(f"{i},{x!r},{2.5 * x!r}\n" for i, x in enumerate(xs))
    for _ in range(40):
        mask = np.ones(1 << 19, dtype=bool)
        for p in _CAL_PRIMES:
            mask[p::p] = False
        np.flatnonzero(mask)
    t = np.linspace(2.0, 40.0, 32768)
    for _ in range(4):
        term, total = np.ones_like(t), np.zeros_like(t)
        for k in range(1, 150):
            term = term * t / k
            total += term / k
    return time.perf_counter() - t0


def measure(wl, seconds: int, seed: int, trace: bool, work: Path, started: float) -> dict:
    # All children inherit one fixed CPU, the one calibrate() runs on: a run
    # that lands on either of two vCPUs of unequal speed reads bimodal.  The
    # last CPU usually carries the least interrupt and housekeeping work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    deadline = started + DEADLINE_S
    setup_seconds(work, env)  # fills the bytecode cache; not counted
    cal = calibrate()
    setup = [setup_seconds(work, env) for _ in range(SETUP_REPEATS)]
    setup_scale = CALIBRATION_REFERENCE_S / statistics.mean([cal, calibrate()])
    exp = wl.expect()
    cmd = [sys.executable, "-m", "primegaps.cli", *wl.cli_args(work)]
    reps: list[Rep] = []
    scales: list[float] = []
    problems: list[str] = []
    cal = calibrate()
    loop_start = time.perf_counter()
    durations: list[float] = []
    while len(reps) < MIN_REPS or (
        time.perf_counter() - loop_start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        rep = run_child(cmd, work, env, deadline)
        before, cal = cal, calibrate()
        reps.append(rep)
        scales.append(CALIBRATION_REFERENCE_S / statistics.mean([before, cal]))
        log(f"{wl.name}: run {len(reps)}: wall {rep.wall_s:.3f} s, "
            f"cpu {rep.cpu_s:.3f} s, rss {rep.rss_mb:.1f} MB, exit {rep.code}, "
            f"scale {scales[-1]:.3f}")
        if rep.failed:
            log(rep.stderr.decode("ascii", "replace")[-2000:])
        else:
            problems += wl.check(rep, work, exp, seed)
        durations.append(time.perf_counter() - t0)
        if time.monotonic() > deadline - 2 * max(durations):
            break

    ok = [i for i, r in enumerate(reps) if not r.failed] or range(len(reps))
    wall = statistics.median(reps[i].wall_s * scales[i] for i in ok)
    result = {
        "attempted": len(reps),
        "failed": sum(r.failed for r in reps),
        "problems": problems,
        "metrics": {
            "setup_s": (statistics.median(setup) * setup_scale, "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(reps[i].cpu_s * scales[i] for i in ok), "s"),
            "peak_rss_mb": (statistics.median(reps[i].rss_mb for i in ok), "MB"),
            "primes_per_s": (wl.prime_count(exp) / wall, "1/s"),
        },
    }
    if trace:
        traced_run(wl, exp, seed, work, env, deadline, wall, cal, result)
    return result


def traced_run(wl, exp, seed, work, env, deadline, untraced_wall, cal, result) -> None:
    """One in-process run with spans; replaces the metrics with per-layer ones."""
    spans_path = work / "spans.json"
    cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path), "--",
           *wl.cli_args(work)]
    rep = run_child(cmd, work, env, deadline)
    scale = CALIBRATION_REFERENCE_S / statistics.mean([cal, calibrate()])
    log(f"{wl.name}: traced run: wall {rep.wall_s:.3f} s, exit {rep.code}, "
        f"scale {scale:.3f}")
    result["attempted"] += 1
    metrics = {}
    if rep.failed or not spans_path.exists():
        result["failed"] += 1
        log(rep.stderr.decode("ascii", "replace")[-2000:])
    else:
        result["problems"] += ["traced: " + p for p in wl.check(rep, work, exp, seed)]
        with open(spans_path, encoding="ascii") as fh:
            doc = json.load(fh)
        metrics = spans.layer_metrics(doc)
        log(f"{wl.name}: inclusive seconds: " + ", ".join(
            f"{name} {secs:.3f}" for name, secs in spans.scan_breakdown(doc).items()))
    metrics["trace.wall_s"] = rep.wall_s * scale
    metrics["trace.overhead_s"] = rep.wall_s * scale - untraced_wall
    result["metrics"] = {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "primegaps" / "cli.py").is_file():
        log(f"error: no primegaps sources under {ROOT / 'src'}")
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(WORKLOADS[args.workload](), args.seconds, args.seed,
                         bool(args.trace), work, started)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] < result["attempted"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
