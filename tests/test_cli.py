import argparse
import contextlib
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.cli import _parser, _write_checkpoint, main
from primegaps.fit import bin_average_k, fit_from_data, sample_fluctuations
from primegaps.runner import run_scan

LIMIT_1E5 = ["--limit", "100000"]
LIMIT_1E6 = ["--limit", "1000000"]


def _every_command():
    """Each CLI subcommand with the arguments it needs to run at 1e6."""
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    needs = {"scan": ["--which", "delta"]}
    return [[name, *needs.get(name, []), *LIMIT_1E6] for name in sub.choices]


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


@pytest.mark.parametrize("limit", ["4", "9"])
def test_selberg_points_end_at_the_limit(tmp_path, capsys, limit):
    # The log-spaced points start at 10, so below 10 only the limit is left.
    out = tmp_path / "sel.csv"
    assert main(["selberg", "--limit", limit, "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == [limit]


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


def test_figure1_json_is_the_k_scan_json_folded_without_rows(tmp_path, capsys,
                                                              monkeypatch):
    # Under --format json figure1 writes no row, so its scan folds without
    # a sink, which asks it for none.
    sinks = []
    monkeypatch.setattr("primegaps.cli.run_scan",
                        lambda *a, **kw: sinks.append(kw["sink"]) or run_scan(*a, **kw))
    fig, k = tmp_path / "fig.json", tmp_path / "k.json"
    assert main(["figure1", *LIMIT_1E5, "--format", "json", "--out", str(fig)]) == 0
    assert main(["scan", "--which", "k", *LIMIT_1E5, "--format", "json",
                 "--out", str(k)]) == 0
    assert fig.read_bytes() == k.read_bytes()
    assert sinks == [None, None]
    assert not (tmp_path / "fig.json.plot.py").exists()


def test_fit_requires_limit(capsys):
    assert main(["fit", "--limit", "5000"]) == 2


def test_fit_least_limit_is_above_x_min(tmp_path, capsys):
    # The least --limit follows --x-min: a fit range below the default
    # x_min folds, and a --limit at x_min is refused with its flag named.
    out = tmp_path / "fit.json"
    assert main(["fit", "--x-min", "5000", "--limit", "8000", "--stride", "10",
                 "--bins", "5", "--format", "json", "--out", str(out)]) == 0
    lo, hi = json.loads(out.read_text())["x_range"]
    assert 5000 <= lo < hi <= 8000
    capsys.readouterr()
    assert main(["fit", "--limit", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: fit needs --limit >= 10001, got 10000" in captured.err


def test_fit_stride_below_one_is_usage_error(capsys):
    for stride in ("0", "-1"):
        assert main(["fit", *LIMIT_1E5, "--stride", stride]) == 2
        assert f"error: stride must be >= 1, got {stride}" in capsys.readouterr().err


def test_fit_bins_below_one_fails_before_the_fold(tmp_path, capsys):
    # --bins is in the checkpoint key, so a run that failed only at the
    # binning would leave a checkpoint no resume could use.
    ck = tmp_path / "f.ckpt"
    assert main(["fit", *LIMIT_1E5, "--bins", "0", "--checkpoint", str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bin_count must be >= 1, got 0" in captured.err
    assert not ck.exists()


def test_fit_x_min_below_the_fit_range_fails_before_the_fold(tmp_path, capsys):
    ck = tmp_path / "f.ckpt"
    assert main(["fit", *LIMIT_1E5, "--x-min", "15", "--checkpoint", str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fit range must start above" in captured.err
    assert not ck.exists()


def test_package_exports():
    import primegaps

    names = primegaps.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(primegaps, name) for name in names)
    star = {}
    exec("from primegaps import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_fit_real_run(tmp_path, capsys):
    out = tmp_path / "binned.csv"
    code = main(["fit", *LIMIT_1E6, "--stride", "200", "--out", str(out)])
    assert code == 0
    summary = _last_json(capsys)
    assert summary["log10_sk1"] == pytest.approx(
        math.exp(math.exp(summary["alpha"])) / math.log(10.0), rel=1e-9
    )
    assert out.read_text().startswith("log_x_mid,k_mean")


def test_fit_csv_rows_are_the_bins_of_the_table_samples(tmp_path, capsys, data_1e6):
    # The CLI folds a streamed sieve; the oracle samples the table.
    out = tmp_path / "binned.csv"
    assert main(["fit", *LIMIT_1E6, "--stride", "200", "--out", str(out)]) == 0
    samples = sample_fluctuations(data_1e6, 10**4, 10**6, stride=200, per_decade=200)
    rows = [f"{mid!r},{k!r}" for mid, k in bin_average_k(samples, 20)]
    assert len(rows) == 20
    assert out.read_text() == "\n".join(["log_x_mid,k_mean", *rows]) + "\n"


def test_cli_fit_is_the_library_fit(tmp_path, capsys, data_1e6):
    out = tmp_path / "fit.json"
    assert main(["fit", *LIMIT_1E6, "--stride", "200", "--format", "json",
                 "--out", str(out)]) == 0
    fitted = fit_from_data(data_1e6, 10**4, 10**6, stride=200).to_json()
    assert "bins" not in fitted
    assert json.loads(out.read_text()) == json.loads(json.dumps(fitted))


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


def test_config_file_with_a_non_ascii_byte_exits_2_naming_it(tmp_path, capsys):
    # The file is read as ASCII, comments too; the decode error was a
    # traceback and exit 1, the code for a violation found.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes("limit = 100000  # \u00e9t\u00e9\n".encode("utf-8"))
    assert main(["scan", "--which", "cg", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read config file {cfgfile}" in captured.err


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


def test_config_file_unknown_key_names_the_line(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("limit = 1000\nbogus = 1\n")
    assert main(["scan", "--which", "cg", "--config", str(cfgfile)]) == 2
    assert f"error: {cfgfile}:2: unknown key 'bogus'" in capsys.readouterr().err


def test_env_string_beats_the_file_and_a_float_flag_beats_env(tmp_path, capsys,
                                                             monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("format = csv\nc = 3.0\n")
    monkeypatch.setenv("PRIMEGAPS_FORMAT", "json")
    monkeypatch.setenv("PRIMEGAPS_C", "2.0")
    out = tmp_path / "cg.out"
    args = ["scan", "--which", "cg", *LIMIT_1E5, "--config", str(cfgfile),
            "--out", str(out)]
    assert main(args) == 1
    assert _last_json(capsys)["c"] == 2.0
    assert json.loads(out.read_text())["c"] == 2.0  # a JSON document, not CSV
    assert main([*args, "--c", "1.5"]) == 1
    assert _last_json(capsys)["c"] == 1.5


def test_values_starting_with_a_dash_stay_values(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRIMEGAPS_OUT", "-x.csv")
    assert main(["scan", "--which", "cg", *LIMIT_1E5]) == 1
    monkeypatch.delenv("PRIMEGAPS_OUT")
    (tmp_path / "run.cfg").write_text("out = -y.csv\n")
    assert main(["scan", "--which", "cg", *LIMIT_1E5, "--config", "run.cfg"]) == 1
    for name in ("-x.csv", "-y.csv"):
        assert (tmp_path / name).read_text().startswith("n,p,g,ratio\n")


_REJECTED = {
    "limit=1": "scan --which delta needs --limit >= 3, got 1",
    "limit=abc": "argument --limit: invalid int value: 'abc'",
    "workers=0": "workers must be >= 1, got 0",
    "c=0": "Constants.c must be positive and finite, got 0.0",
    "c=nan": "Constants.c must be positive and finite, got nan",
    "B=0": "Constants.B must be positive and finite, got 0.0",
    "B=inf": "Constants.B must be positive and finite, got inf",
    "K=0.01": "Constants require 0 < K_rh < K_all < inf",
    "format=xml": "argument --format: invalid choice: 'xml'",
}


@pytest.mark.parametrize("way", ["flag", "env", "file"])
@pytest.mark.parametrize("setting", list(_REJECTED))
def test_rejected_value_exits_2_before_the_fold(tmp_path, capsys, monkeypatch,
                                                 setting, way):
    key, value = setting.split("=")
    out, ck = tmp_path / "out.csv", tmp_path / "f.ck"
    args = ["scan", "--which", "delta", "--out", str(out), "--checkpoint", str(ck)]
    if key != "limit":
        args += LIMIT_1E6
    if way == "flag":
        args += ["--" + key.replace("_", "-"), value]
    elif way == "env":
        monkeypatch.setenv("PRIMEGAPS_" + key.upper(), value)
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _REJECTED[setting] in captured.err
    assert not out.exists() and not ck.exists()


def test_segment_size_is_no_setting(tmp_path, capsys, monkeypatch):
    # Every command sieves in DEFAULT_SEGMENT_SIZE segments; the setting is gone.
    args = ["scan", "--which", "delta", *LIMIT_1E5, "--out", str(tmp_path / "d.csv")]
    assert main([*args, "--segment-size", "5000"]) == 2
    assert "unrecognized arguments: --segment-size 5000" in capsys.readouterr().err
    (tmp_path / "run.cfg").write_text("segment_size = 5000\n")
    assert main([*args, "--config", str(tmp_path / "run.cfg")]) == 2
    assert "run.cfg:1: unknown key 'segment_size'" in capsys.readouterr().err
    # a retired or misspelt variable is refused as a file key is, not ignored
    monkeypatch.setattr("primegaps.cli.PrimeStream", None)  # nothing is sieved
    for name in ("PRIMEGAPS_SEGMENT_SIZE", "PRIMEGAPS_LIMT"):
        monkeypatch.setenv(name, "5")
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown environment variable {name}\n"
        monkeypatch.delenv(name)
    assert not (tmp_path / "d.csv").exists()


def test_report_refuses_k_below_k_rh_before_the_fold(tmp_path, capsys):
    # The K check once ran only when the report document was built, after
    # every block had been folded and checkpointed.
    ck = tmp_path / "f.ck"
    assert main(["report", "--limit", "30000000", "--K", "0.01",
                 "--checkpoint", str(ck)]) == 2
    assert not ck.exists()


def test_help_shows_the_defaults(capsys):
    assert main(["scan", "--help"]) == 0
    out = capsys.readouterr().out
    assert "scan limit (default: 100000000)" in out
    assert "output format (default: csv)" in out


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
    # 78 498 primes make three blocks, so a stop after 1 or 2 leaves a
    # checkpoint to resume.
    full = tmp_path / "full.csv"
    main(["selberg", *LIMIT_1E6, "--points", "12", "--out", str(full)])
    part = tmp_path / "part.csv"
    ck = tmp_path / "ck.json"
    for workers in ("1", "2"):
        for stop in ("1", "2"):
            args = ["selberg", *LIMIT_1E6, "--points", "12", "--workers", workers,
                    "--out", str(part), "--checkpoint", str(ck)]
            code = main([*args, "--stop-after-blocks", stop])
            assert code == 0
            assert ck.exists()
            code = main([*args, "--resume"])
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
    for command in _every_command():
        assert main([*command, "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


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


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(pre_args, args, cwd, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, *pre_args, *args], cwd=cwd, env=_cli_env(),
        stdout=stdout, stderr=subprocess.PIPE, timeout=300,
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


def test_selberg_resume_after_hard_kill_byte_identical(tmp_path):
    # Five blocks below 2e6; the kill after the third checkpoint leaves
    # the last two, and the points they close, for the resumed run.
    args = ["selberg", "--limit", "2000000", "--workers", "2",
            "--out", "a.csv", "--checkpoint", "a.ckpt"]
    killed = _run_cli(["-c", _KILL_AFTER_THIRD_CHECKPOINT], args, tmp_path)
    assert killed.returncode == 9
    ckpt = json.loads((tmp_path / "a.ckpt").read_text())
    assert ckpt["scan_state"]["block"] == 3
    assert (tmp_path / "a.csv").stat().st_size >= ckpt["sink_offset"]
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    ref = _run_cli(["-m", "primegaps.cli"], [*args[:-4], "--out", "ref.csv"],
                   tmp_path)
    assert ref.returncode == resumed.returncode == 0
    assert resumed.stdout == ref.stdout
    assert not (tmp_path / "a.ckpt").exists()
    blob = (tmp_path / "a.csv").read_bytes()
    assert b"\0" not in blob
    assert blob == (tmp_path / "ref.csv").read_bytes()


def test_streamed_json_scan_resume_after_hard_kill_byte_identical(tmp_path):
    # 148 933 primes below 2e6 make five blocks; the kill after the third
    # checkpoint leaves two for the resumed run, which re-sieves and skips
    # the first three.
    args = ["scan", "--which", "cg", "--limit", "2000000", "--format", "json",
            "--workers", "2", "--out", "a.json", "--checkpoint", "a.ckpt"]
    killed = _run_cli(["-c", _KILL_AFTER_THIRD_CHECKPOINT], args, tmp_path)
    assert killed.returncode == 9
    assert json.loads((tmp_path / "a.ckpt").read_text())["scan_state"]["block"] == 3
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    assert resumed.returncode == 1  # violations {1, 2, 4} at c = 1
    assert not (tmp_path / "a.ckpt").exists()
    ref = _run_cli(["-m", "primegaps.cli"], [*args[:-4], "--out", "ref.json"],
                   tmp_path)
    assert (ref.returncode, ref.stdout) == (resumed.returncode, resumed.stdout)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("command", [["selberg", *LIMIT_1E5], ["report", *LIMIT_1E6]])
@pytest.mark.parametrize("points", ["1", "0", "-5"])
def test_points_below_two_is_usage_error(capsys, command, points):
    assert main([*command, "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--points must be >= 2, got {points}" in captured.err


def _no_fold(*args, **kwargs):
    raise AssertionError("the run folded")


@pytest.mark.parametrize("command", [["selberg", *LIMIT_1E5], ["report", *LIMIT_1E6]])
@pytest.mark.parametrize("points", ["limit+1", "1000000000000000",
                                    "10000000000000000000"])
def test_points_above_the_limit_exit_2_before_the_fold(tmp_path, capsys, monkeypatch,
                                                       command, points):
    # numpy failed to allocate the points, 7.11 PiB of them at 10**15, or
    # refused the size at 10**19: an exit 1 with a traceback.
    monkeypatch.setattr("primegaps.cli.run_scan", _no_fold)
    limit = command[-1]
    points = str(int(limit) + 1) if points == "limit+1" else points
    out = tmp_path / "s.out"
    assert main([*command, "--points", points, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: --points must be <= --limit {limit}, got {points}\n"


def test_fit_bins_above_the_limit_exit_2_before_the_fold(tmp_path, capsys, monkeypatch):
    # The fold ran whole, then binning failed to allocate: exit 1.
    monkeypatch.setattr("primegaps.cli.run_scan", _no_fold)
    ck = tmp_path / "f.ckpt"
    bins = "1000000000000000"
    assert main(["fit", *LIMIT_1E6, "--bins", bins, "--checkpoint", str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ck.exists()
    assert captured.err == f"error: bin_count must be <= x_max 1000000, got {bins}\n"


@pytest.mark.parametrize("error, says", [
    (MemoryError("Unable to allocate 7.11 PiB"), "Unable to allocate 7.11 PiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                  error, says):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr("primegaps.cli.run_scan", exhausted)
    assert main(["scan", "--which", "cg", *LIMIT_1E5, "--format", "json"]) == 2
    assert capsys.readouterr() == ("", f"error: {says}\n")


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


# (command, --out, --checkpoint, the file both name), relative to a folder
_ONE_FILE = {
    "out-is-checkpoint": (["scan", "--which", "k"], "x.csv", "x.csv", "x.csv"),
    "out-is-checkpoint-tmp": (["scan", "--which", "k"], "y.csv.tmp", "y.csv",
                              "y.csv.tmp"),
    "existing-out": (["scan", "--which", "delta"], "keep.csv", "keep.csv", "keep.csv"),
    "checkpoint-is-plot-script": (["figure1"], "f.csv", "f.csv.plot.py",
                                  "f.csv.plot.py"),
    "through-a-symlink": (["scan", "--which", "k"], "link.csv", "keep.csv",
                          "keep.csv"),
}


@pytest.mark.parametrize("case", list(_ONE_FILE))
def test_two_files_at_one_path_exit_2_before_either_is_opened(tmp_path, capsys, case):
    # Each run would write one file over the other and then remove the
    # checkpoint, leaving no output, or an existing file deleted.
    command, out, ck, shared = _ONE_FILE[case]
    (tmp_path / shared).write_bytes(b"keep\n")
    if case == "through-a-symlink":
        (tmp_path / out).symlink_to(tmp_path / shared)
    before = sorted(os.listdir(tmp_path))
    args = [*command, *LIMIT_1E5, "--out", str(tmp_path / out),
            "--checkpoint", str(tmp_path / ck)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("are one file\n")
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / shared).read_bytes() == b"keep\n"


def test_figure1_least_limit_names_figure1_and_its_summaries_keep_which_k(
        tmp_path, capsys):
    assert main(["figure1", "--limit", "3"]) == 2
    assert capsys.readouterr().err == "error: figure1 needs --limit >= 5, got 3\n"
    ck = tmp_path / "f.ckpt"
    args = ["figure1", *LIMIT_1E6, "--format", "json", "--checkpoint", str(ck)]
    assert main([*args, "--stop-after-blocks", "1"]) == 0
    assert _last_json(capsys) == {"command": "figure1", "which": "k",
                                  "stopped_at_block": 1}


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


def test_scan_csv_identical_under_python_O(tmp_path):
    # Every CSV row goes through the numpy row kernel, whose checks must
    # not be asserts that -O strips.
    args = ["-m", "primegaps.cli", "scan", "--which", "delta", "--format", "csv",
            *LIMIT_1E6]
    plain = _run_cli([], [*args, "--out", "plain.csv"], tmp_path)
    optimized = _run_cli(["-O"], [*args, "--out", "optimized.csv"], tmp_path)
    assert plain.returncode == optimized.returncode == 1  # violations {1, 2, 4}
    assert plain.stdout == optimized.stdout
    csv = (tmp_path / "plain.csv").read_bytes()
    assert csv.startswith(b"p,delta,delta_hat\n2,0.0,")
    assert csv == (tmp_path / "optimized.csv").read_bytes()


def test_bool_rows_identical_under_python_O(tmp_path):
    # The derivative rows end in two bool fields, true or false.
    args = ["-m", "primegaps.cli", "scan", "--which", "k", *LIMIT_1E6]
    plain = _run_cli([], [*args, "--out", "plain.csv"], tmp_path)
    optimized = _run_cli(["-O"], [*args, "--out", "optimized.csv"], tmp_path)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    csv = (tmp_path / "plain.csv").read_bytes()
    assert csv.startswith(b"n,p,b_prime,k_prime,b_rhs,k_rhs,b_ok,k_ok\n1,2,")
    assert b",false,false\n" in csv and csv.endswith(b",true,true\n")
    assert csv == (tmp_path / "optimized.csv").read_bytes()


def _one_error_line(stderr: bytes) -> bool:
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith(b"error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args, stdout, name",
    [(["scan", "--which", "k", *LIMIT_1E6, "--out", "/dev/full"], os.devnull, b"/dev/full"),
     (["scan", "--which", "k", *LIMIT_1E6], "/dev/full", b"<stdout>"),
     (["report", *LIMIT_1E6], "/dev/full", b"<stdout>")],
    ids=["scan-out", "scan-stdout", "report-stdout"],
)
def test_full_disk_exits_2_with_one_error_line(tmp_path, args, stdout, name):
    # A resource error like any other: no traceback, and no second one
    # from the interpreter's flush of stdout at exit.  The line names the
    # output that could not be written.
    with open(stdout, "wb") as fh:
        done = _run_cli(["-m", "primegaps.cli"], args, tmp_path, stdout=fh)
    assert done.returncode == 2
    assert b"Traceback" not in done.stderr
    assert _one_error_line(done.stderr), done.stderr
    assert name in done.stderr and b"No space left on device" in done.stderr, done.stderr


def test_closed_pipe_exits_2_with_one_error_line(tmp_path):
    # As `primegaps scan ... | head -1`: the reader takes a line and goes.
    with subprocess.Popen(
        [sys.executable, "-m", "primegaps.cli", "scan", "--which", "k", *LIMIT_1E6],
        cwd=tmp_path, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"n,p,b_prime,k_prime,b_rhs,k_rhs,b_ok,k_ok\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 2
    assert b"Traceback" not in stderr
    assert _one_error_line(stderr), stderr
    assert b"<stdout>" in stderr, stderr


def _to_version_1(ck):
    new = json.loads(ck.read_text())
    ck.write_text(json.dumps({
        "version": 1, "command": "scan", "which": "delta",
        "config": new["key"]["config"], "scan_state": new["scan_state"],
        "sink_offset": new["sink_offset"],
    }))


_DELTA = ["scan", "--which", "delta", *LIMIT_1E6]
_FIT = ["fit", *LIMIT_1E6, "--stride", "200"]


@pytest.mark.parametrize(
    "first, resumed, edit",
    [
        pytest.param(_DELTA, [*_DELTA, "--format", "json"], None, id="csv-to-json"),
        pytest.param([*_DELTA, "--format", "json"], _DELTA, None, id="json-to-csv"),
        pytest.param(_DELTA, ["scan", "--which", "cg", *LIMIT_1E6], None,
                     id="which"),
        pytest.param(["figure1", *LIMIT_1E6], ["scan", "--which", "k", *LIMIT_1E6],
                     None, id="figure1-to-scan"),
        pytest.param(["selberg", *LIMIT_1E6, "--points", "12"],
                     ["selberg", *LIMIT_1E6, "--points", "8"], None, id="points"),
        pytest.param(_DELTA, _DELTA, _to_version_1, id="version-1"),
        pytest.param(_FIT, ["fit", *LIMIT_1E6, "--stride", "300"], None, id="stride"),
    ],
)
def test_resume_refuses_changed_key(tmp_path, capsys, first, resumed, edit):
    out = tmp_path / "out"
    ck = tmp_path / "ck.json"
    tail = ["--out", str(out), "--checkpoint", str(ck)]
    assert main([*first, *tail, "--stop-after-blocks", "1"]) == 0
    assert ck.exists()
    if edit is not None:
        edit(ck)
    before = out.read_bytes() if out.exists() else None
    assert main([*resumed, *tail, "--resume"]) == 2
    assert (out.read_bytes() if out.exists() else None) == before


def test_resume_refusal_names_the_changed_fields(tmp_path, capsys):
    ck = tmp_path / "f.ckpt"
    args = [*_FIT, "--checkpoint", str(ck)]
    assert main([*args, "--stop-after-blocks", "1"]) == 0
    capsys.readouterr()
    assert main([*args, "--bins", "7", "--resume"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("differs from this run in bins")
    assert main([*args, "--bins", "7", "--c", "2", "--resume"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("in bins, config.c")


def _drop(doc, *path):
    for name in path[:-1]:
        doc = doc[name]
    del doc[path[-1]]


def _put(doc, *path, value):
    for name in path[:-1]:
        doc = doc[name]
    doc[path[-1]] = value


_SCHOENFELD_JSON = ["scan", "--which", "schoenfeld", *LIMIT_1E6, "--format", "json"]


@pytest.mark.parametrize("first, edit, says", [
    pytest.param(_DELTA, lambda doc: _drop(doc, "scan_state"), "in block, count, ",
                 id="no-scan-state"),
    pytest.param(_SCHOENFELD_JSON, lambda doc: _drop(doc, "scan_state", "max_ratio"),
                 "the schoenfeld scan's in max_ratio", id="missing-field"),
    pytest.param(["report", *LIMIT_1E6],
                 lambda doc: _put(doc, "scan_state", "dusart", "extra", value=1),
                 "the fused scan's in dusart.extra", id="extra-nested-field"),
    pytest.param(_DELTA, lambda doc: _put(doc, "scan_state", "block", value="x"),
                 "has block 'x', not an int >= 0", id="block-not-an-int"),
    pytest.param(_DELTA, lambda doc: _put(doc, "sink_offset", value=-1),
                 "has sink_offset -1, not an int >= 0", id="negative-sink-offset"),
])
def test_resume_refuses_a_malformed_checkpoint(tmp_path, capsys, first, edit, says):
    # Version and key are right, so each reached the fold or the output
    # and died there with a traceback and exit 1.  A CSV output is left as
    # it was.
    out, ck = tmp_path / "out", tmp_path / "ck.json"
    tail = ["--out", str(out), "--checkpoint", str(ck)]
    assert main([*first, *tail, "--stop-after-blocks", "1"]) == 0
    doc = json.loads(ck.read_text())
    edit(doc)
    ck.write_text(json.dumps(doc))
    before = out.read_bytes() if out.exists() else None
    capsys.readouterr()
    assert main([*first, *tail, "--resume"]) == 2
    assert says in capsys.readouterr().err
    assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_checkpoint_resume_byte_identical(tmp_path, capsys, fmt):
    # 78 498 primes make three blocks, so a stop after 1 or 2 leaves a
    # checkpoint; the binned --out is written only once the fold ends.
    full = tmp_path / "full"
    assert main([*_FIT, "--format", fmt, "--out", str(full)]) == 0
    ref = capsys.readouterr().out
    part, ck = tmp_path / "part", tmp_path / "ck"
    args = [*_FIT, "--format", fmt, "--out", str(part), "--checkpoint", str(ck)]
    for stop in (1, 2):
        assert main([*args, "--stop-after-blocks", str(stop)]) == 0
        assert json.loads(capsys.readouterr().out) == {"command": "fit",
                                                        "stopped_at_block": stop}
        assert ck.exists() and not part.exists()
        assert main([*args, "--resume"]) == 0
        assert capsys.readouterr().out == ref
        assert not ck.exists()
        assert part.read_bytes() == full.read_bytes()
        part.unlink()


@pytest.mark.parametrize("command", _every_command())
def test_unwritable_checkpoint_path(tmp_path, capsys, command):
    # refused before the output is opened: no partial --out is left
    ck = tmp_path / "no-such-dir" / "a.ckpt"
    code = main([*command, "--out", str(tmp_path / "a.out"), "--checkpoint", str(ck)])
    assert code == 2
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert f"cannot write checkpoint {ck}: no directory {ck.parent}" in err


_UNWRITABLE_OUT = {
    **{command[0]: command for command in _every_command()},
    "scan-json": ["scan", "--which", "delta", "--format", "json", *LIMIT_1E6],
    "fit-json": [*_FIT, "--format", "json"],
}


@pytest.mark.parametrize("case", list(_UNWRITABLE_OUT))
def test_unwritable_out_exits_2_before_the_fold(tmp_path, capsys, monkeypatch, case):
    # Each run sieved and folded every block, then exited 2 when it wrote
    # --out, leaving its checkpoint behind.
    def fold(*args, **kwargs):
        raise AssertionError("the run folded")

    monkeypatch.setattr("primegaps.cli.run_scan", fold)
    (tmp_path / "dir").mkdir()
    ck = tmp_path / "x.ckpt"
    missing = tmp_path / "no-such-dir"
    for out, why in ((missing / "x.out", f"no directory {missing}"),
                     (tmp_path / "dir", "it is a directory")):
        args = [*_UNWRITABLE_OUT[case], "--out", str(out), "--checkpoint", str(ck)]
        assert main(args) == 2
        assert f"error: cannot write output {out}: {why}\n" == capsys.readouterr().err
        assert os.listdir(tmp_path) == ["dir"] and os.listdir(tmp_path / "dir") == []


def test_figure1_plot_script_that_is_a_directory_exits_2_before_the_fold(tmp_path,
                                                                         capsys):
    # The run wrote its whole CSV, then exited 2 at the plot script.
    out = tmp_path / "f.csv"
    (tmp_path / "f.csv.plot.py").mkdir()
    assert main(["figure1", *LIMIT_1E5, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write plot script {out}.plot.py: "
                                       "it is a directory\n")
    assert os.listdir(tmp_path) == ["f.csv.plot.py"]
    # under --format json figure1 writes no plot script
    assert main(["figure1", *LIMIT_1E5, "--format", "json", "--out", str(out)]) == 0


@pytest.mark.parametrize("suffix", ["", ".tmp"], ids=["checkpoint", "tmp"])
@pytest.mark.parametrize("command", _every_command(), ids=lambda command: command[0])
def test_checkpoint_that_is_a_directory_exits_2_before_the_fold(tmp_path, capsys,
                                                                monkeypatch, command,
                                                                suffix):
    # Each run folded a block and then failed to write its checkpoint,
    # leaving the --out file's first block and the checkpoint's .tmp behind.
    monkeypatch.setattr("primegaps.cli.run_scan", _no_fold)
    ck = tmp_path / "a.ckpt"
    folder = tmp_path / f"a.ckpt{suffix}"
    folder.mkdir()
    args = [*command, "--out", str(tmp_path / "a.out"), "--checkpoint", str(ck)]
    assert main(args) == 2
    assert capsys.readouterr().err == (f"error: cannot write checkpoint {folder}: "
                                       "it is a directory\n")
    assert os.listdir(tmp_path) == [folder.name] and os.listdir(folder) == []


def test_checkpoint_that_cannot_be_written_in_the_fold_exits_2(tmp_path, capsys,
                                                               monkeypatch):
    # The paths pass the checks before the fold, so the run starts; the
    # rename fails at the first checkpoint.
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    ck = tmp_path / "a.ckpt"
    code = main(["scan", "--which", "delta", *LIMIT_1E5, "--out", str(tmp_path / "a.out"),
                 "--checkpoint", str(ck)])
    assert code == 2
    assert f"error: cannot write checkpoint {ck}: " in capsys.readouterr().err
    assert not ck.exists()


@pytest.mark.parametrize("command", _every_command(), ids=lambda command: command[0])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_stop_after_blocks_below_one_is_usage_error(tmp_path, capsys, command, count):
    out, ck = tmp_path / "out", tmp_path / "ck"
    code = main([*command, "--out", str(out), "--checkpoint", str(ck),
                 "--stop-after-blocks", count])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --stop-after-blocks must be >= 1, got {count}" in captured.err
    assert not out.exists() and not ck.exists()


@pytest.mark.parametrize("command", _every_command(), ids=lambda command: command[0])
def test_stop_after_blocks_without_checkpoint_is_usage_error(tmp_path, capsys,
                                                              monkeypatch, command):
    # Without a checkpoint a stopped run leaves a partial output and
    # nothing to resume it from.
    monkeypatch.setattr("primegaps.cli.PrimeStream", None)  # nothing is sieved
    out = tmp_path / "out"
    assert main([*command, "--out", str(out), "--stop-after-blocks", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --stop-after-blocks requires --checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("way", ["flag", "env", "file"])
def test_selberg_refuses_format_json(tmp_path, capsys, monkeypatch, way):
    # The Selberg rows are CSV only; a JSON request once got CSV rows in
    # the .json file.  report is always JSON, so its --format stays free.
    monkeypatch.setattr("primegaps.cli.PrimeStream", None)  # nothing is sieved
    out = tmp_path / "s.json"
    args = ["selberg", *LIMIT_1E5, "--out", str(out)]
    if way == "flag":
        args += ["--format", "json"]
    elif way == "env":
        monkeypatch.setenv("PRIMEGAPS_FORMAT", "json")
    else:
        (tmp_path / "run.cfg").write_text("format = json\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selberg writes CSV only, not --format json\n"
    assert not out.exists()


def _report_stdout(args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["report", *LIMIT_1E6, *args])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def report_refs():
    """Uninterrupted report stdout by (workers, points), filled as needed."""
    return {}


@settings(max_examples=10, deadline=None)
@given(
    stop=st.integers(1, 3),
    workers=st.sampled_from(["1", "2"]),
    points=st.sampled_from(["2", "5", "32"]),
)
def test_report_resume_property(report_refs, stop, workers, points):
    # 78 498 primes make three blocks: a stop after 1 or 2 leaves a
    # checkpoint to resume; a stop after 3 lands on the last block and
    # is a finished run.
    args = ["--workers", workers, "--points", points]
    if (workers, points) not in report_refs:
        report_refs[workers, points] = _report_stdout(args)
    with tempfile.TemporaryDirectory() as tmp:
        ck = ["--checkpoint", os.path.join(tmp, "r.ckpt")]
        code, out = _report_stdout([*args, *ck, "--stop-after-blocks", str(stop)])
        if stop < 3:
            assert (code, json.loads(out)) == (0, {"command": "report",
                                                   "stopped_at_block": stop})
            code, out = _report_stdout([*args, *ck, "--resume"])
        assert not os.path.exists(ck[1])
    assert (code, out) == report_refs[workers, points]


def test_report_resume_after_hard_kill_byte_identical(tmp_path):
    # 148 933 primes below 2e6 make five blocks; the kill after the third
    # checkpoint leaves two for the resumed run.
    args = ["report", "--limit", "2000000", "--workers", "2",
            "--checkpoint", "r.ckpt"]
    killed = _run_cli(["-c", _KILL_AFTER_THIRD_CHECKPOINT], args, tmp_path)
    assert killed.returncode == 9 and killed.stdout == b""
    assert json.loads((tmp_path / "r.ckpt").read_text())["scan_state"]["block"] == 3
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    ref = _run_cli(["-m", "primegaps.cli"], args[:-2], tmp_path)
    assert ref.returncode == resumed.returncode == 0
    assert resumed.stdout == ref.stdout
    assert not (tmp_path / "r.ckpt").exists()


def test_fit_resume_after_hard_kill_byte_identical(tmp_path):
    # Five blocks below 2e6; the kill after the third checkpoint leaves
    # two, and the binned CSV, for the resumed run.
    args = ["fit", "--limit", "2000000", "--stride", "200", "--workers", "2",
            "--out", "a.csv", "--checkpoint", "a.ckpt"]
    killed = _run_cli(["-c", _KILL_AFTER_THIRD_CHECKPOINT], args, tmp_path)
    assert killed.returncode == 9 and killed.stdout == b""
    assert json.loads((tmp_path / "a.ckpt").read_text())["scan_state"]["block"] == 3
    assert not (tmp_path / "a.csv").exists()
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    ref = _run_cli(["-m", "primegaps.cli"], [*args[:-4], "--out", "ref.csv"],
                   tmp_path)
    assert ref.returncode == resumed.returncode == 0
    assert resumed.stdout == ref.stdout
    assert not (tmp_path / "a.ckpt").exists()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_scan_resume_after_sigkill_at_a_random_time_byte_identical(tmp_path, capsys):
    # A real SIGKILL from outside, at a seeded random time after the first
    # checkpoint of a 21-block run, wherever the fold, the sink or the
    # checkpoint write then is.
    args = ["scan", "--which", "delta", "--limit", "10000000",
            "--out", "d.csv", "--checkpoint", "d.ck"]
    child = subprocess.Popen([sys.executable, "-m", "primegaps.cli", *args],
                             cwd=tmp_path, env=_cli_env(), stdout=subprocess.DEVNULL)
    while not (tmp_path / "d.ck").exists() and child.poll() is None:
        time.sleep(0.002)
    time.sleep(np.random.default_rng(22).uniform(0.0, 0.2))
    assert child.poll() is None, "the run ended before the kill"
    child.send_signal(signal.SIGKILL)
    assert child.wait(timeout=60) == -signal.SIGKILL
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    assert not (tmp_path / "d.ck").exists()
    ref = tmp_path / "ref.csv"
    assert main([*args[:-4], "--out", str(ref)]) == resumed.returncode == 1
    assert resumed.stdout.decode("ascii") == capsys.readouterr().out
    assert (tmp_path / "d.csv").read_bytes() == ref.read_bytes()


def test_report_resumes_under_other_workers(tmp_path, capsys):
    # Workers only schedule the fold, so they are in neither the config
    # block nor the checkpoint key: a run stopped at one count resumes at
    # another, and every run prints the same bytes.
    args = ["report", "--limit", "2000000"]
    assert main([*args, "--workers", "1"]) == 0
    ref = capsys.readouterr().out
    assert "workers" not in json.loads(ref)["config"]
    assert main([*args, "--workers", "2"]) == 0
    assert capsys.readouterr().out == ref
    ck = ["--checkpoint", str(tmp_path / "r.ckpt")]
    assert main([*args, "--workers", "1", *ck, "--stop-after-blocks", "2"]) == 0
    capsys.readouterr()
    assert main([*args, "--workers", "2", *ck, "--resume"]) == 0
    assert capsys.readouterr().out == ref


def _selberg_v4(state):
    """A version-4 Selberg state: the open points' theta lists by owner."""
    return {**state, "query": 0, "open": {"0": [state["theta"]]}, "s2": {}}


def test_report_refuses_version_2_checkpoint(tmp_path, capsys):
    ck = tmp_path / "r.ckpt"
    args = ["report", *LIMIT_1E6, "--checkpoint", str(ck)]
    assert main([*args, "--stop-after-blocks", "1"]) == 0
    current = json.loads(ck.read_text())
    # the version-2 layout: the same key, a state without the Selberg
    # and fit sub-states
    v2 = {k: v for k, v in current["scan_state"].items()
          if k not in ("selberg_points", "fit")}
    # the version-3 layout: the Selberg S1 as a run integer and a Neumaier pair
    sel = current["scan_state"]["selberg_points"]
    v3 = {**current["scan_state"],
          "selberg_points": {**sel, "run": 0, "s1": [float(sel["s1"]), 0.0]}}
    # the version-4 layout: theta lists of the open points and their S2 values
    v4 = {**current["scan_state"], "selberg_points": _selberg_v4(sel)}
    for version, state in ((2, v2), (3, v3), (4, v4)):
        ck.write_text(json.dumps({"version": version, "key": current["key"],
                                  "scan_state": state, "sink_offset": 0}))
        capsys.readouterr()
        assert main([*args, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unsupported version" in captured.err


def test_selberg_refuses_version_4_checkpoint(tmp_path, capsys):
    ck, out = tmp_path / "s.ckpt", tmp_path / "s.csv"
    args = ["selberg", *LIMIT_1E6, "--out", str(out), "--checkpoint", str(ck)]
    assert main([*args, "--stop-after-blocks", "1"]) == 0
    current = json.loads(ck.read_text())
    assert all(type(units) is int for units in current["scan_state"]["open"])
    ck.write_text(json.dumps({**current, "version": 4,
                              "scan_state": _selberg_v4(current["scan_state"])}))
    capsys.readouterr()
    assert main([*args, "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unsupported version" in captured.err


def _assert_memory_flat_from_2e6_to_8e6(args):
    with contextlib.redirect_stdout(io.StringIO()):
        # imports and first-call allocations, not counted
        assert main([*args, *LIMIT_1E6]) == 0
    peaks = {}
    for limit in (2 * 10**6, 8 * 10**6):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--limit", str(limit)]) == 0
            peaks[limit] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    table_and_cumlog = 2 * 8 * 539777  # pi(8e6) primes and their log sums
    low, high = sorted(peaks.values())
    assert high <= 1.15 * low
    assert high < table_and_cumlog


def test_report_memory_does_not_grow_with_the_limit():
    # report folds over the stream: its traced peak is flat from 2e6 to
    # 8e6, about 6.5 MB, most of it one block's Li temporaries.  Holding
    # the 8e6 table and its theta prefix, as report did, takes 8.6 MB on
    # top of that, and the peak grows by 70% from 2e6 to 8e6.
    _assert_memory_flat_from_2e6_to_8e6(["report"])


def test_selberg_memory_does_not_grow_with_the_limit(tmp_path):
    # selberg folds over the stream too, near 4 MB at both limits; with
    # the table and a pointwise S1 it went from 7 to 19 MB.
    _assert_memory_flat_from_2e6_to_8e6(["selberg", "--out", str(tmp_path / "s.csv")])


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_checkpoint_write_fsyncs_the_directory_after_the_replace(tmp_path, monkeypatch,
                                                                relative):
    # Without it the rename may not survive a power loss on some file
    # systems; only the order of the calls can be checked here.
    events = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace", dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    monkeypatch.chdir(tmp_path)
    path = "c.json" if relative else str(tmp_path / "c.json")
    _write_checkpoint(path, {"block": 1})
    assert [kind for kind, _ in events] == ["fsync", "replace", "fsync"]
    assert os.path.samestat(events[0][1], os.stat(path))  # the .tmp, renamed
    assert events[1][1] == path
    assert stat.S_ISDIR(events[2][1].st_mode)
    assert os.path.samestat(events[2][1], os.stat(tmp_path))
    assert json.loads((tmp_path / "c.json").read_text()) == {"block": 1}


# Runs the CLI with one durable step dying, as under SIGKILL, at its n-th
# call: argv holds the step, n and the command line.  The torn steps
# write half their bytes first, so a partial block or checkpoint is left.
_DIE_AT_STEP = """
import os, sys
from primegaps import cli, runner
step, nth, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
tmp = args[args.index("--checkpoint") + 1] + ".tmp"
calls = [0]

def due():
    calls[0] += 1
    return calls[0] == nth

if step == "sink-write":
    write = runner.RowSink.write
    def torn_write(sink, line):
        if due():
            sink._fh.write(line[: len(line) // 2])
            sink._fh.flush()
            os._exit(9)
        write(sink, line)
    runner.RowSink.write = torn_write
elif step == "sink-sync":
    sync = runner.RowSink.sync
    def die_sync(sink):
        if due():
            os._exit(9)
        sync(sink)
    runner.RowSink.sync = die_sync
elif step == "tmp-write":
    def torn_open(path, *a, **k):
        fh = open(path, *a, **k)
        if path == tmp and due():
            def torn(text):
                type(fh).write(fh, text[: len(text) // 2])
                fh.flush()
                os._exit(9)
            fh.write = torn
        return fh
    cli.open = torn_open
elif step == "tmp-fsync":
    fsync = os.fsync
    def die_fsync(fd):
        if (os.path.exists(tmp) and os.path.samestat(os.fstat(fd), os.stat(tmp))
                and due()):
            os._exit(9)
        fsync(fd)
    os.fsync = die_fsync
elif step == "replace":
    replace = os.replace
    def die_replace(src, dst):
        if due():
            os._exit(9)
        replace(src, dst)
    os.replace = die_replace
sys.exit(cli.main(args))
"""

_KILLED = {
    "delta": ["scan", "--which", "delta", "--limit", "2000000", "--out", "a.csv"],
    "figure1": ["figure1", "--limit", "2000000", "--out", "a.csv"],
    "selberg": ["selberg", "--limit", "2000000", "--out", "a.csv"],
    "fit": ["fit", "--limit", "2000000", "--out", "a.csv"],
    "report": ["report", "--limit", "2000000"],
}
# The commands that stream their CSV rows as they fold, and so checkpoint
# a sink offset; fit writes its CSV once the fold ends.
_STREAMED = {"delta", "figure1", "selberg"}

# Each step dies at its 2nd call, after the first checkpoint (block 1)
# is committed.  The sink's first write is the header and its second
# block 0's rows, before any checkpoint, so it dies at the 3rd: in
# block 1's rows.
_STEPS = [("sink-write", 3), ("sink-sync", 2), ("tmp-write", 2), ("tmp-fsync", 2),
          ("replace", 2)]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The exit code, stdout and CSV of each ``_KILLED`` command run whole."""
    runs = {}
    for name, args in _KILLED.items():
        cwd = tmp_path_factory.mktemp(name)
        done = _run_cli(["-m", "primegaps.cli"], args, cwd)
        csv = cwd / "a.csv"
        runs[name] = (done.returncode, done.stdout,
                      csv.read_bytes() if csv.exists() else None)
    return runs


@pytest.mark.parametrize(
    "name, step, nth, workers",
    [pytest.param("delta", step, nth, workers, id=f"delta-{step}-workers-{workers}")
     for step, nth in _STEPS for workers in ("1", "2")]
    + [pytest.param("report", step, nth, "1", id=f"report-{step}")
       for step, nth in _STEPS[2:]]
    + [pytest.param("selberg", step, nth, workers,
                    id=f"selberg-{step}" + ("-workers-2" if workers == "2" else ""))
       for step, nth in _STEPS for workers in ("1", "2")]
    + [pytest.param(name, step, nth, "1", id=f"{name}-{step}")
       for name in ("figure1", "fit")
       for step, nth in _STEPS if step in ("tmp-write", "replace")
       or (step == "sink-sync" and name in _STREAMED)],
)
def test_resume_after_a_kill_at_each_durable_step_is_byte_identical(
        tmp_path, uninterrupted, name, step, nth, workers):
    args = [*_KILLED[name], "--workers", workers, "--checkpoint", "a.ckpt"]
    killed = _run_cli(["-c", _DIE_AT_STEP, step, str(nth)], args, tmp_path)
    assert killed.returncode == 9, killed.stderr
    ckpt = json.loads((tmp_path / "a.ckpt").read_text())
    assert ckpt["scan_state"]["block"] == 1
    csv = tmp_path / "a.csv"
    if name in _STREAMED:
        assert csv.stat().st_size >= ckpt["sink_offset"]
    resumed = _run_cli(["-m", "primegaps.cli"], [*args, "--resume"], tmp_path)
    assert resumed.stderr == b""
    assert not (tmp_path / "a.ckpt").exists()
    assert (resumed.returncode, resumed.stdout,
            csv.read_bytes() if csv.exists() else None) == uninterrupted[name]
