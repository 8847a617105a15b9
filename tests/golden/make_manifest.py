"""The golden byte manifest: every command at --limit 1000000, in each
format it accepts, and ``report --limit 100000000``, run through
``cli.main`` in one process.

    PYTHONPATH=src python tests/golden/make_manifest.py

writes ``tests/golden/manifest.json``: per case the exit code and the
sha256 and size of stdout and of each file the case writes, with numpy's
version and the SIMD extensions numpy dispatches to, as
``np.show_runtime()`` lists them.  The float outputs' last bits follow
that dispatch, so the bytes are golden for one numpy build on one CPU.
It also writes ``tests/golden/fixtures/<case>/``: what each ``RESUMED``
case leaves when stopped under --checkpoint after one block.
``tests/test_golden.py`` reruns every case, resumes every fixture, and
compares.  Neither is ever edited by hand; regenerate them only in a
change that says which bytes move and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from primegaps.cli import ENV_PREFIX, SCANS, main

MANIFEST = Path(__file__).with_name("manifest.json")
LIMIT = ["--limit", "1000000"]
FIXTURES = Path(__file__).with_name("fixtures")
# The cases kept as checkpoint fixtures: those whose partial output is small.
RESUMED = ("report", "fit-json", "selberg-csv", "scan-bbound-json")
RESUME = ["--checkpoint", "checkpoint.json", "--resume"]


def cases() -> dict[str, list[str]]:
    """Each case's name and its arguments."""
    runs = {}
    for which in SCANS:
        scan = ["scan", "--which", which, *LIMIT]
        runs[f"scan-{which}-csv"] = [*scan, "--out", "out.csv"]
        runs[f"scan-{which}-json"] = [*scan, "--format", "json", "--out", "out.json"]
    for command in ("figure1", "fit"):
        runs[f"{command}-csv"] = [command, *LIMIT, "--out", "out.csv"]
        runs[f"{command}-json"] = [command, *LIMIT, "--format", "json",
                                   "--out", "out.json"]
    runs["selberg-csv"] = ["selberg", *LIMIT, "--out", "out.csv"]
    runs["report"] = ["report", *LIMIT, "--out", "out.json"]
    runs["report-1e8"] = ["report", "--limit", "100000000"]
    return runs


def numpy_runtime() -> dict:
    """numpy's version and its SIMD extensions, as ``np.show_runtime()``
    lists them."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    return {
        "version": np.__version__,
        "baseline": list(__cpu_baseline__),
        "found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
        "not_found": [f for f in __cpu_dispatch__ if not __cpu_features__[f]],
    }


def _digest(blob: bytes) -> dict:
    return {"sha256": hashlib.sha256(blob).hexdigest(), "size": len(blob)}


def run_case(argv: list[str], directory: Path) -> dict:
    """Run ``main(argv)`` in the empty ``directory``, with no PRIMEGAPS_*
    variable set, and return its exit code, stdout and files as digests."""
    stdout = io.BytesIO()
    text = io.TextIOWrapper(stdout, encoding="ascii", newline="\n",
                            write_through=True)
    env = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith(ENV_PREFIX)}
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(text):
            code = main(argv)
            text.flush()
    finally:
        os.chdir(here)
        os.environ.update(env)
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue()),
        "files": {path.name: _digest(path.read_bytes())
                  for path in sorted(directory.iterdir())},
    }


def build() -> dict:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases().items():
            directory = Path(tmp, name)
            directory.mkdir()
            runs[name] = {"argv": argv, **run_case(argv, directory)}
    return {"numpy": numpy_runtime(), "cases": runs}


def write_fixtures() -> None:
    """Stop each ``RESUMED`` case after one block and keep what it leaves,
    its checkpoint and any partial output, in ``FIXTURES/<case>``."""
    shutil.rmtree(FIXTURES, ignore_errors=True)
    for name in RESUMED:
        directory = FIXTURES / name
        directory.mkdir(parents=True)
        stop = [*cases()[name], *RESUME[:2], "--stop-after-blocks", "1"]
        if run_case(stop, directory)["exit"] != 0:
            raise SystemExit(f"{name} did not stop cleanly")


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                        encoding="ascii")
    write_fixtures()
    print(f"wrote {MANIFEST} and {FIXTURES}", file=sys.stderr)
