import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primegaps.cli import main

LIMIT_1E5 = ["--limit", "100000"]
LIMIT_1E6 = ["--limit", "1000000"]


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_selberg_exit_zero_and_header(tmp_path, capsys):
    out = tmp_path / "sel.csv"
    code = main(["selberg", *LIMIT_1E5, "--out", str(out)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["lemma_holds_all"] is True
    lines = out.read_text().splitlines()
    assert lines[0] == "x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds"
    assert all(line.endswith(",true") for line in lines[1:])


def test_selberg_limit_below_minimum_is_usage_error(capsys):
    assert main(["selberg", "--limit", "3"]) == 2


def test_scan_cg_reports_violations_and_exits_one(tmp_path, capsys):
    out = tmp_path / "cg.csv"
    code = main(["scan", "--which", "cg", *LIMIT_1E6, "--out", str(out)])
    assert code == 1
    summary = _last_json(capsys)
    assert summary["violations"] == [1, 2, 4]
    assert summary["pass"] is False
    rows = out.read_text().splitlines()
    assert rows[0] == "n,p,g,ratio"
    assert len(rows) == 4


def test_scan_k_exits_zero(tmp_path, capsys):
    code = main(["scan", "--which", "k", *LIMIT_1E5, "--out", str(tmp_path / "k.csv")])
    assert code == 0
    assert _last_json(capsys)["pass"] is True


def test_scan_dusart_exits_zero(tmp_path, capsys):
    code = main(["scan", "--which", "dusart", *LIMIT_1E6, "--out", str(tmp_path / "d.csv")])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["violations"] == []


def test_scan_limit_below_scan_minimum(capsys):
    assert main(["scan", "--which", "b", "--limit", "5"]) == 2
    assert main(["scan", "--which", "dusart", "--limit", "100000"]) == 2


def test_scan_json_format_writes_report(tmp_path, capsys):
    out = tmp_path / "cg.json"
    code = main(
        ["scan", "--which", "cg", *LIMIT_1E5, "--format", "json", "--out", str(out)]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["violations"] == [1, 2, 4]


def test_figure1_rows_and_script(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = main(["figure1", "--limit", "10000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,k_prime,rhs24"
    assert len(lines) - 1 == 1229 - 1  # pi(1e4) - 1 records
    prev_rhs = None
    for line in lines[1:]:
        p, k_prime, rhs = line.split(",")
        if int(p) > 3:
            assert float(k_prime) > float(rhs)
        if prev_rhs is not None and int(p) > 10:
            assert float(rhs) >= prev_rhs  # bound rises toward zero
        if int(p) > 10:
            prev_rhs = float(rhs)
    script = tmp_path / "fig.csv.plot.py"
    assert script.exists()
    assert "matplotlib" in script.read_text()


def test_fit_synthetic_self_test(capsys):
    assert main(["fit", "--synthetic"]) == 0
    summary = _last_json(capsys)
    assert summary["pass"] is True
    assert abs(summary["A"] - 0.2) <= 1e-9
    assert abs(summary["alpha"] - 1.4) <= 1e-9


def test_fit_requires_limit(capsys):
    assert main(["fit", "--limit", "5000"]) == 2


def test_fit_real_run(tmp_path, capsys):
    out = tmp_path / "binned.csv"
    code = main(["fit", *LIMIT_1E6, "--stride", "200", "--out", str(out)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["log10_sk1"] == pytest.approx(
        math.exp(math.exp(summary["alpha"])) / math.log(10.0), rel=1e-9
    )
    assert out.read_text().startswith("log_x_mid,k_mean")


def test_unwritable_output_path(capsys):
    code = main(["selberg", *LIMIT_1E5, "--out", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_config_file_and_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("limit = 100000\nc = 2.0\n# comment\n")
    out = tmp_path / "cg.csv"
    code = main(
        ["scan", "--which", "cg", "--config", str(cfgfile), "--out", str(out)]
    )
    assert code == 1
    summary = _last_json(capsys)
    assert summary["limit"] == 100000
    assert summary["c"] == 2.0
    # explicit flag beats the file
    code = main(
        ["scan", "--which", "cg", "--config", str(cfgfile), "--c", "1.0",
         "--out", str(out)]
    )
    assert code == 1
    assert _last_json(capsys)["c"] == 1.0


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("bogus = 1\n")
    assert main(["scan", "--which", "cg", "--config", str(cfgfile)]) == 2


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIMEGAPS_LIMIT", "100000")
    code = main(["scan", "--which", "cg", "--out", str(tmp_path / "cg.csv")])
    assert code == 1
    assert _last_json(capsys)["limit"] == 100000
    # flags beat the environment
    code = main(
        ["scan", "--which", "cg", "--limit", "50000", "--out", str(tmp_path / "c2.csv")]
    )
    assert code == 1
    assert _last_json(capsys)["limit"] == 50000
    # environment beats the config file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("limit = 77777\n")
    code = main(
        ["scan", "--which", "cg", "--config", str(cfgfile), "--out", str(tmp_path / "c3.csv")]
    )
    assert code == 1
    assert _last_json(capsys)["limit"] == 100000


@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_scan_csv_identical_across_workers(tmp_path, capsys, workers):
    out = tmp_path / f"delta_{workers}.csv"
    code = main(
        ["scan", "--which", "delta", *LIMIT_1E5, "--workers", workers,
         "--out", str(out)]
    )
    assert code == 1  # violations {1, 2, 4} exist at c=1
    ref = tmp_path / "delta_ref.csv"
    main(["scan", "--which", "delta", *LIMIT_1E5, "--workers", "1", "--out", str(ref)])
    assert out.read_bytes() == ref.read_bytes()


def test_figure1_checkpoint_resume_byte_identical(tmp_path, capsys):
    full = tmp_path / "full.csv"
    main(["figure1", *LIMIT_1E6, "--out", str(full)])
    part = tmp_path / "part.csv"
    ck = tmp_path / "ck.json"
    code = main(
        ["figure1", *LIMIT_1E6, "--out", str(part), "--checkpoint", str(ck),
         "--stop-after-blocks", "1"]
    )
    assert code == 0
    assert ck.exists()
    code = main(
        ["figure1", *LIMIT_1E6, "--out", str(part), "--checkpoint", str(ck),
         "--resume"]
    )
    assert code == 0
    assert part.read_bytes() == full.read_bytes()
    assert not ck.exists()  # removed after a completed run


def test_selberg_checkpoint_resume_byte_identical(tmp_path, capsys):
    full = tmp_path / "full.csv"
    main(["selberg", *LIMIT_1E5, "--points", "12", "--out", str(full)])
    part = tmp_path / "part.csv"
    ck = tmp_path / "ck.json"
    code = main(
        ["selberg", *LIMIT_1E5, "--points", "12", "--out", str(part),
         "--checkpoint", str(ck), "--stop-after-blocks", "5"]
    )
    assert code == 0
    assert ck.exists()
    code = main(
        ["selberg", *LIMIT_1E5, "--points", "12", "--out", str(part),
         "--checkpoint", str(ck), "--resume"]
    )
    assert code == 0
    assert part.read_bytes() == full.read_bytes()
    assert not ck.exists()


def test_scan_schoenfeld_exits_zero(tmp_path, capsys):
    code = main(
        ["scan", "--which", "schoenfeld", *LIMIT_1E5, "--out", str(tmp_path / "s.csv")]
    )
    assert code == 0
    summary = _last_json(capsys)
    assert summary["max_after_cutoff"] <= summary["k_rh"]
    assert summary["x_star"] == 4


def test_fit_json_output(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(
        ["fit", *LIMIT_1E6, "--stride", "200", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"A", "alpha", "log10_sk1", "rms_residual", "bin_count"}


def test_resume_requires_checkpoint(capsys):
    assert main(["figure1", *LIMIT_1E5, "--resume"]) == 2


def test_report_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["report", *LIMIT_1E6, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(
        files("primegaps").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["pass"] is True
    assert doc["partial_sums"]["n0"] == 5
    assert doc["cramer_granville"]["violations"] == [1, 2, 4]
    assert doc["selberg_at_104729"]["unordered_matches_reference"] is True
    assert doc["selberg_at_104729"]["ordered_matches_reference"] is False
    # reruns are byte-identical
    out2 = tmp_path / "report2.json"
    main(["report", *LIMIT_1E6, "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_report_checkpoint_resume_identical(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    main(["report", *LIMIT_1E6, "--out", str(ref)])
    out = tmp_path / "resumed.json"
    ck = tmp_path / "rck.json"
    code = main(
        ["report", *LIMIT_1E6, "--out", str(out), "--checkpoint", str(ck),
         "--stop-after-blocks", "1"]
    )
    assert code == 0
    code = main(
        ["report", *LIMIT_1E6, "--out", str(out), "--checkpoint", str(ck), "--resume"]
    )
    assert code == 0
    assert out.read_bytes() == ref.read_bytes()


def test_report_requires_million(capsys):
    assert main(["report", "--limit", "500000"]) == 2


def test_usage_error_unknown_command():
    assert main(["frobnicate"]) == 2


SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs the CLI with every checkpoint write counted; after the third one
# the process dies at once, as under SIGKILL: no buffers are flushed.
_KILL_AFTER_THIRD_CHECKPOINT = """
import os, sys
from primegaps import cli
write = cli._write_checkpoint
calls = [0]
def write_then_die(path, payload):
    write(path, payload)
    calls[0] += 1
    if calls[0] == 3:
        os._exit(9)
cli._write_checkpoint = write_then_die
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_cli(pre_args, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *pre_args, *args], cwd=cwd, env=env,
        capture_output=True, timeout=300,
    )


def test_scan_resume_after_hard_kill_byte_identical(tmp_path, capsys):
    args = ["scan", "--which", "delta", "--limit", "2000000",
            "--out", "a.csv", "--checkpoint", "a.ckpt"]
    killed = _run_cli(["-c", _KILL_AFTER_THIRD_CHECKPOINT], args, tmp_path)
    assert killed.returncode == 9
    ckpt = json.loads((tmp_path / "a.ckpt").read_text())
    assert ckpt["scan_state"]["block"] == 3
    assert (tmp_path / "a.csv").stat().st_size >= ckpt["sink_offset"]
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    assert resumed.returncode == 1  # violations {1, 2, 4} at c = 1
    ref = tmp_path / "ref.csv"
    main(["scan", "--which", "delta", "--limit", "2000000", "--out", str(ref)])
    blob = (tmp_path / "a.csv").read_bytes()
    assert b"\0" not in blob
    assert blob == ref.read_bytes()


def test_resume_refuses_output_shorter_than_checkpoint(tmp_path, capsys):
    out = tmp_path / "d.csv"
    ck = tmp_path / "d.ckpt"
    args = ["scan", "--which", "delta", *LIMIT_1E6, "--out", str(out),
            "--checkpoint", str(ck)]
    assert main([*args, "--stop-after-blocks", "1"]) == 0
    size = out.stat().st_size
    assert json.loads(ck.read_text())["sink_offset"] == size
    with open(out, "r+b") as fh:
        fh.truncate(size - 10)
    assert main([*args, "--resume"]) == 2
    assert out.stat().st_size == size - 10  # left as found


def test_report_resume_refuses_changed_points(tmp_path, capsys):
    ck = tmp_path / "r.ckpt"
    args = ["report", *LIMIT_1E6, "--checkpoint", str(ck)]
    assert main([*args, "--points", "8", "--stop-after-blocks", "1"]) == 0
    assert main([*args, "--points", "32", "--resume"]) == 2
    capsys.readouterr()
    assert main([*args, "--points", "8", "--resume"]) == 0
    assert json.loads(capsys.readouterr().out)["selberg_points"]["points"] == 8


def test_report_identical_under_python_O(tmp_path):
    args = ["-m", "primegaps.cli", "report", *LIMIT_1E6]
    plain = _run_cli([], args, tmp_path)
    optimized = _run_cli(["-O"], args, tmp_path)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
