"""The block-batched CSV sink: same bytes as row-by-row formatting, one
write per block, and resumable at any block boundary."""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import cli
from primegaps.fluct import DeltaScan, SchoenfeldScan
from primegaps.runner import RowSink, run_scan
from primegaps.selberg import PartialSumScan, partial_sum_scan

from .oracles import csv_rows_oracle, selberg_csv_oracle

SRC = str(Path(__file__).resolve().parents[1] / "src")
LIMIT = 10**6


def test_write_rows_is_one_write_per_block_and_none_when_empty():
    buf = io.BytesIO()
    sink = RowSink(buf)
    writes = []
    sink.write = lambda line: (writes.append(line), RowSink.write(sink, line))
    sink.write_rows(np.array([2, 3]), np.array([0.1, -0.0]), np.array([True, False]))
    sink.write_rows(np.array([], dtype=np.int64), np.array([]))
    assert writes == [b"2,0.1,true\n3,-0.0,false"]
    assert buf.getvalue() == b"2,0.1,true\n3,-0.0,false\n"
    assert sink.offset == len(buf.getvalue())


@pytest.mark.parametrize(
    "command, which",
    [pytest.param("scan", w, id=f"scan-{w}-records") for w in cli.SCANS]
    + [pytest.param("figure1", "k", id="figure1-k-figure")],
)
def test_csv_bytes_equal_the_row_by_row_oracle(tmp_path, capsys, data_1e6,
                                               command, which):
    # At 1e6 the cg violations {1, 2, 4} all sit in the first of three
    # blocks and dusart has none, so their other blocks write no rows: a
    # blank line for an empty block would show here.
    out = tmp_path / "out.csv"
    args = [command, "--limit", str(LIMIT), "--format", "csv", "--out", str(out)]
    if command == "scan":
        args[1:1] = ["--which", which]
    assert cli.main(args) in (0, 1)
    scan = cli._COMMANDS[command].make(cli._parse(args))
    assert out.read_bytes() == csv_rows_oracle(scan, data_1e6, LIMIT)


@pytest.mark.parametrize("n_max", [32_768, 32_769, 50_000, 78_497])
def test_partial_sum_rows_equal_the_row_by_row_oracle(data_1e6, n_max):
    # 50 000 ends mid-block, so the last block's rows are cut short;
    # 32 768 ends on the first block's last prime and 32 769 one past it.
    buf = io.BytesIO()
    partial_sum_scan(data_1e6, n_max, sink=RowSink(buf))
    scan = PartialSumScan(data_1e6.nth(n_max))
    expected = csv_rows_oracle(scan, data_1e6, scan.limit)
    assert buf.getvalue() == expected


@pytest.mark.parametrize("points", [32, 7])
@pytest.mark.parametrize(
    "schedule", [[], ["--workers", "2", "--segment-size", "5000"]],
    ids=["default", "workers-2-segment-5000"],
)
def test_selberg_csv_equals_the_pointwise_rows(tmp_path, capsys, data_1e6,
                                               points, schedule):
    # The rows are closed block by block in the fold and written once per
    # block; the oracle evaluates each point on its own from the table.
    out = tmp_path / "sel.csv"
    args = ["selberg", "--limit", str(LIMIT), "--points", str(points), *schedule,
            "--out", str(out)]
    assert cli.main(args) == 0
    xs = cli._selberg_points(LIMIT, points)
    assert out.read_bytes() == selberg_csv_oracle(data_1e6, xs)


def test_stdout_holds_the_rows_then_the_summary(tmp_path):
    # Rows go to sys.stdout.buffer a block at a time and the summary
    # through sys.stdout after them; run as a child so both layers are real.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    args = [sys.executable, "-m", "primegaps.cli", "scan", "--which", "delta",
            "--limit", str(LIMIT)]
    piped = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True,
                           timeout=300)
    filed = subprocess.run([*args, "--out", "d.csv"], cwd=tmp_path, env=env,
                           capture_output=True, timeout=300)
    assert piped.returncode == filed.returncode == 1  # violations {1, 2, 4}
    summary = filed.stdout
    assert summary.startswith(b"{") and summary.count(b"\n") == 1
    assert piped.stdout == (tmp_path / "d.csv").read_bytes() + summary


_SCANS = {
    "delta": lambda limit: DeltaScan(limit, 1.0),
    "schoenfeld": lambda limit: SchoenfeldScan(limit, 1.0 / 3.0),
}


@settings(max_examples=12, deadline=None)
@given(drawn=st.data())
def test_csv_resume_from_any_block_is_byte_identical(data_1e5, drawn):
    """Checkpoint after a random block, fold on past it as a crash would,
    cut the file back to the recorded offset and resume from JSON."""
    limit = 10**5
    make = _SCANS[drawn.draw(st.sampled_from(sorted(_SCANS)), label="scan")]
    block_size = drawn.draw(st.sampled_from([512, 1024, 2048]), label="block_size")
    workers = drawn.draw(st.sampled_from([1, 2]), label="workers")
    total = sum(1 for _ in data_1e5.blocks(limit=limit, block_size=block_size))
    stop = drawn.draw(st.integers(1, total - 1), label="stop")
    crash = drawn.draw(st.integers(stop, total - 1), label="crash")
    fold = {"block_size": block_size, "workers": workers}
    saved = {}

    def checkpoint(state):
        if state["block"] == stop:
            saved.update(state=json.dumps(state), offset=sink.offset)

    with tempfile.TemporaryDirectory() as tmp:
        ref, part = Path(tmp) / "ref.csv", Path(tmp) / "part.csv"
        with open(ref, "wb") as fh:
            run_scan(data_1e5, make(limit), sink=RowSink(fh), block_size=block_size)
        with open(part, "wb") as fh:
            sink = RowSink(fh)
            run_scan(data_1e5, make(limit), sink=sink, on_block=checkpoint,
                     stop_after_blocks=crash, **fold)
        offset = saved["offset"]
        with open(part, "r+b") as fh:
            fh.truncate(offset)
            fh.seek(offset)
            _, finished = run_scan(data_1e5, make(limit), sink=RowSink(fh, offset),
                                   state=json.loads(saved["state"]), **fold)
        assert finished
        assert part.read_bytes() == ref.read_bytes()


def test_run_scan_syncs_the_sink_right_before_each_on_block(data_1e5, tmp_path):
    events = []

    class Recording(RowSink):
        def write(self, line):
            events.append("write")
            super().write(line)

        def sync(self):
            events.append(("sync", self.offset))
            super().sync()

    with open(tmp_path / "d.csv", "wb") as fh:
        sink = Recording(fh)
        run_scan(data_1e5, DeltaScan(10**5, 1.0), sink=sink, block_size=4096,
                 on_block=lambda state: events.append(("block", sink.offset)))
        header, *blocks = events
        # every block of the delta scan writes rows
        assert header == "write" and len(blocks) == 3 * 3
        assert blocks[0::3] == ["write"] * 3
        syncs, commits = blocks[1::3], blocks[2::3]
        assert [kind for kind, _ in syncs] == ["sync"] * 3
        assert [("block", offset) for _, offset in syncs] == commits
        assert os.path.getsize(tmp_path / "d.csv") == sink.offset
        events.clear()
        run_scan(data_1e5, DeltaScan(10**5, 1.0), sink=sink, block_size=4096)
        assert "write" in events and not any(isinstance(e, tuple) for e in events)
