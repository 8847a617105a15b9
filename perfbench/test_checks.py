"""Tests of the benchmark's own checkers and tracer, at small limits.

They sit outside the repository's test paths, so the main suite does not
collect them.  Run them with:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def primegaps(tmp_path: Path, *args: str, traced: Path | None = None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if traced:
        prefix = [str(HERE / "spans.py"), str(traced), "--"]
    else:
        prefix = ["-m", "primegaps.cli"]
    return subprocess.run([sys.executable, *prefix, *args], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    proc = primegaps(tmp_path_factory.mktemp("report"), "report", "--limit", "1000000")
    return proc.stdout.decode("ascii"), proc.returncode, checks.report_expect(10**6)


@pytest.fixture(scope="module")
def delta(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("delta")
    proc = primegaps(tmp, "scan", "--which", "delta", "--limit", "100000",
                     "--out", "d.csv", "--checkpoint", "d.ckpt")
    return (tmp / "d.csv").read_bytes(), proc, checks.delta_expect(10**5)


def test_reference_sieve_matches_published_pi():
    assert len(checks.reference_primes(100)) == 25
    assert len(checks.reference_primes(10**8)) == checks.PUBLISHED_PI[10**8]


def test_gap_table_expectations():
    exp = checks.gap_ratio_expect(10**9)
    assert exp.violations == [1, 2, 4]
    assert exp.max_ratio_from_n5_at == 20831323
    assert exp.max_ratio_from_n5 == 210 / checks.math.log(20831323) ** 2
    # Below 1e6 the largest ratio from n = 5 is the record 112 at 370261.
    assert checks.gap_ratio_expect(10**6).max_ratio_from_n5_at == 370261


def test_report_passes(report):
    text, code, exp = report
    assert checks.check_report(text, code, exp) == []


def test_report_rejects_shifted_max_ratio_point(report):
    text, code, exp = report
    doc = json.loads(text)
    doc["cramer_granville"]["thresholds"]["max_ratio_from_n5_at"] += 2
    problems = checks.check_report(json.dumps(doc), code, exp)
    assert any("max ratio from n=5" in p for p in problems)


def test_report_rejects_wrong_exit_code(report):
    text, _, exp = report
    assert checks.check_report(text, 1, exp) == ["exit code 1, expected 0"]


def test_delta_csv_passes(delta):
    raw, proc, exp = delta
    assert proc.returncode == 1
    summary = json.loads(proc.stdout.decode("ascii").splitlines()[-1])
    assert checks.check_delta_summary(summary, proc.returncode, exp) == []
    assert checks.check_delta_csv(raw, exp, seed=7) == []


def test_delta_rejects_wrong_exit_code(delta):
    _, proc, exp = delta
    summary = json.loads(proc.stdout.decode("ascii").splitlines()[-1])
    assert checks.check_delta_summary(summary, 0, exp) == ["exit code 0, expected 1"]


@pytest.mark.parametrize("column", [0, 1, 2])
def test_delta_csv_rejects_one_altered_row(delta, column):
    raw, _, exp = delta
    lines = raw.split(b"\n")
    fields = lines[5000].split(b",")
    fields[column] = repr(float(fields[column]) + 2).encode()
    lines[5000] = b",".join(fields)
    assert checks.check_delta_csv(b"\n".join(lines), exp, seed=7)


def test_delta_csv_rejects_nul_padding(delta):
    raw, _, exp = delta
    cut = raw.rindex(b"\n", 0, len(raw) // 2) + 1
    padded = raw[:cut] + bytes(64) + raw[cut:]
    problems = checks.check_delta_csv(padded, exp, seed=7)
    assert any("NUL" in p for p in problems)


def test_cg_scan_checker(tmp_path):
    proc = primegaps(tmp_path, "scan", "--which", "cg", "--limit", "1000000",
                     "--format", "json", "--out", "cg.json")
    summary = json.loads(proc.stdout.decode("ascii").splitlines()[-1])
    doc = json.loads((tmp_path / "cg.json").read_text())
    exp = checks.gap_ratio_expect(10**6)
    assert checks.check_cg_scan(summary, doc, proc.returncode, exp) == []
    assert checks.check_cg_scan(summary, doc, 0, exp)
    doc["violations"] = [1, 2]
    assert checks.check_cg_scan(summary, doc, proc.returncode, exp)


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        proc = primegaps(tmp_path, "scan", "--which", "delta", "--limit", "200000",
                         "--out", f"d{i}.csv", "--checkpoint", f"d{i}.ckpt",
                         traced=tmp_path / f"spans{i}.json")
        assert proc.returncode == 1
        doc = json.loads((tmp_path / f"spans{i}.json").read_text())
        metrics = spans.layer_metrics(doc)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["runner.sink_rows"] == checks.reference_primes(200000).size + 1
    assert counts[0]["runner.sink_bytes"] == (tmp_path / "d0.csv").stat().st_size
    assert counts[0]["cli.checkpoint_writes"] == counts[0]["runner.blocks"] == 1
