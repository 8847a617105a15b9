"""Command-line driver: selberg | scan | figure1 | fit | report.

Exit codes are uniform across commands: 0 when the command's assertion
set passes, 1 when a mathematical violation was found (violations are
still fully emitted), 2 on usage or resource errors.

The argparse subparsers are the one schema of the options: each is
declared once, with its type, default and choices.  The eight of
``_SETTINGS`` may also come from a --config key=value file or a
PRIMEGAPS_<KEY> variable (any other key or PRIMEGAPS_* name is refused).
``_parse`` turns those into ``--flag=value`` arguments and parses
``[command, *file, *env, *flags]`` with the same subparser, so the last
value given wins: command-line flags, then env variables, then the file,
then defaults.  ``_check`` then refuses, before anything is sieved,
--stop-after-blocks below 1 or without --checkpoint, ``selberg --format
json``, a c, B or K that ``Constants`` refuses, two of a run's files at
one path, an --out, plot script or --checkpoint in a directory that does
not exist and an --out, plot script, --checkpoint or checkpoint
temporary file that is a directory.
The parsed namespace, with that ``Constants`` as ``args.constants``, is
the one options object every command reads.

Every command is one entry of ``_COMMANDS`` and runs through ``_run``:
its scan is folded over a streamed sieve in block-sized memory (no
command holds the prime table), with --checkpoint PATH (state written
after every block), --stop-after-blocks N and --resume; a resumed run
reproduces the uninterrupted output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import fit as fitmod
from . import fluct, selberg
from .analytic import Constants
from .errors import PrimeGapsError
from .runner import BlockScan, FusedScan, RowSink, run_scan, run_to_end
from .sieve import PrimeStream

ENV_PREFIX = "PRIMEGAPS_"
CHECKPOINT_VERSION = 5

# The options a --config file or a PRIMEGAPS_<KEY> variable may set as
# well as a flag, by key, with their add_argument keywords.  The flag is
# --key with "-" for "_".
_SETTINGS = {
    "limit": dict(type=int, default=10**8, help="scan limit"),
    "c": dict(type=float, default=Constants.c, help="gap-bound constant"),
    "B": dict(type=float, default=Constants.B, help="|b(x)| bound"),
    "K": dict(type=float, default=Constants.K_all, help="all-x ratio bound"),
    "workers": dict(type=int, default=1, help="sieve and fold threads"),
    "format": dict(choices=["csv", "json"], default="csv", help="output format"),
    "out": dict(default=None, help="output path, stdout if None"),
    "checkpoint": dict(default=None, help="checkpoint path"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class UsageError(Exception):
    pass


def echo(args) -> dict:
    """The settings that shape the results.  Workers only schedule the
    work and change no output byte, so a run may resume under others."""
    return {"limit": args.limit, "c": args.c, "B": args.B, "K": args.K}


def _file_args(path: str) -> list[str]:
    """The key = value lines of a --config file as --flag=value arguments."""
    flags = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                if key not in _SETTINGS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                flags.append(f"{_flag(key)}={value}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return flags


def _add_common(parser: argparse.ArgumentParser) -> None:
    for key, spec in _SETTINGS.items():
        parser.add_argument(_flag(key), dest=key, **spec)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--resume", action="store_true", help="resume from checkpoint")
    parser.add_argument(
        "--stop-after-blocks",
        dest="stop_after_blocks",
        type=int,
        default=None,
        help="stop after N scan blocks (for checkpoint testing)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Prime-gap scans: Selberg sums, gap-ratio and "
        "fluctuation-bound checks, crossover fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = command("selberg", "S1/S2 residual scan at sample points")
    p.add_argument("--points", type=int, default=32, help="number of scan points")
    _add_common(p)

    p = command("scan", "run one named scan")
    p.add_argument("--which", required=True, choices=list(SCANS))
    _add_common(p)

    p = command("figure1", "emit p,k_prime,rhs24 plotting data")
    p.set_defaults(which="k")
    _add_common(p)

    p = command("fit", "fit the k(x) drift model")
    p.add_argument("--stride", type=int, default=1000, help="sample every N-th prime")
    p.add_argument("--bins", type=int, default=20, help="equal-width log-x bins")
    p.add_argument("--x-min", dest="x_min", type=int, default=fitmod.FIT_X_MIN,
                   help="least x")
    _add_common(p)

    p = command("report", "one-shot JSON reproduction document")
    p.add_argument("--points", type=int, default=32, help="number of Selberg points")
    _add_common(p)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, its --config file and the PRIMEGAPS_* variables; check."""
    parser = _parser()
    args = parser.parse_args(argv)
    file = _file_args(args.config) if args.config else []
    names = {ENV_PREFIX + key.upper(): key for key in _SETTINGS}
    given = sorted(name for name in os.environ if name.startswith(ENV_PREFIX))
    unknown = [name for name in given if name not in names]
    if unknown:
        raise UsageError(f"unknown environment variable {', '.join(unknown)}")
    env = [f"{_flag(names[name])}={os.environ[name]}" for name in given]
    args = parser.parse_args([args.command, *file, *env, *argv[1:]])
    _check(args)
    return args


def _check(args) -> None:
    """Refuse, before anything is sieved, a value no run can take."""
    stop = args.stop_after_blocks
    if stop is not None and stop < 1:
        raise UsageError(f"--stop-after-blocks must be >= 1, got {stop}")
    if stop is not None and not args.checkpoint:
        raise UsageError("--stop-after-blocks requires --checkpoint")
    if args.command == "selberg" and args.format == "json":
        raise UsageError("selberg writes CSV only, not --format json")
    _check_paths(args)
    args.constants = Constants(c=args.c, B=args.B, K_all=args.K)


def _check_paths(args) -> None:
    """Refuse, before any file is opened, an --out, figure1 plot script or
    --checkpoint whose directory does not exist, one of those or the
    checkpoint's temporary file that is a directory, and two of the run's
    files at one path: those four."""
    files = {"--out": args.out, "--checkpoint": args.checkpoint}
    if args.checkpoint:
        files["the checkpoint's temporary file"] = args.checkpoint + ".tmp"
    if args.command == "figure1" and args.out and args.format == "csv":
        files["the plot script"] = args.out + ".plot.py"
    for name, what in (("--out", "output"), ("the plot script", "plot script"),
                       ("--checkpoint", "checkpoint"),
                       ("the checkpoint's temporary file", "checkpoint")):
        path = files.get(name)
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise UsageError(f"cannot write {what} {path}: no directory {folder}")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {what} {path}: it is a directory")
    seen = {}
    for name, path in files.items():
        if path:
            first = seen.setdefault(os.path.realpath(path), (name, path))
            if first[0] != name:
                raise UsageError(f"{first[0]} {first[1]} and {name} {path} are one file")


# ----------------------------------------------------------------------
# Checkpoint plumbing


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            # json.dumps takes the C encoder; json.dump the pure-Python one.
            fh.write(json.dumps(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename is durable only once the directory entry is (Pillai
        # et al., "All File Systems Are Not Created Equal", OSDI 2014).
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise UsageError(f"cannot write checkpoint {path}: {exc}") from exc


def _differing(old, new: dict, prefix: str = "") -> list[str]:
    """The fields, as dotted paths, in which ``old``, a checkpoint's key or
    the key tree of its state, differs from ``new``."""
    old = old if isinstance(old, dict) else {}
    names = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if isinstance(a, dict) and isinstance(b, dict):
            names += _differing(a, b, f"{prefix}{name}.")
        elif a != b or (name in old) != (name in new):
            names.append(prefix + name)
    return names


def _key_tree(value):
    """The nested dicts of ``value`` with every other value put to None."""
    if isinstance(value, dict):
        return {name: _key_tree(item) for name, item in value.items()}
    return None


class _Checkpoint:
    """The one checkpoint format: ``{version, key, scan_state, sink_offset}``.

    ``key`` names the command, ``echo(args)`` and the command's own
    output-shaping arguments, so a resume that changes any of them is
    refused instead of mixing two runs in one output.  So is a state whose
    dict keys are not ``scan.start()``'s and ``"block"``, or a block or
    sink offset that is not an int >= 0, before any output is touched.
    """

    def __init__(self, args, scan: BlockScan, **shape):
        self.path = args.checkpoint
        self.key = {"command": args.command, "config": echo(args), **shape}
        self.state = None
        self.offset = 0
        if not args.resume:
            return
        if not self.path:
            raise UsageError("--resume requires --checkpoint")
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load checkpoint {self.path}: {exc}") from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise UsageError(f"checkpoint {self.path} has unsupported version")
        changed = _differing(payload.get("key"), self.key)
        if changed:
            raise UsageError(
                f"checkpoint {self.path} differs from this run in {', '.join(changed)}"
            )
        state, offset = payload.get("scan_state"), payload.get("sink_offset")
        wrong = _differing(_key_tree(state), _key_tree({**scan.start(), "block": 0}))
        if wrong:
            raise UsageError(f"checkpoint {self.path} has a scan_state that differs "
                             f"from the {scan.name} scan's in {', '.join(wrong)}")
        for name, value in (("block", state["block"]), ("sink_offset", offset)):
            if type(value) is not int or value < 0:
                raise UsageError(f"checkpoint {self.path} has {name} {value!r}, "
                                 f"not an int >= 0")
        self.state, self.offset = state, offset

    def save(self, state: dict, offset: int) -> None:
        """Record ``state`` and the sink ``offset``, whose rows ``run_scan``
        has already synced."""
        _write_checkpoint(self.path, {"version": CHECKPOINT_VERSION, "key": self.key,
                                      "scan_state": state, "sink_offset": offset})

    def remove(self) -> None:
        if self.path and os.path.exists(self.path):
            os.remove(self.path)


class _Output(RowSink):
    """The CSV sink on stdout, a fresh file, or a resume file truncated to
    the checkpoint's offset.

    As a context manager it closes the output on leaving, and turns an
    ``OSError`` from writing it (a full disk, a closed pipe) into a
    ``UsageError`` that names it.
    """

    def __init__(self, path: str | None, resume_offset: int = 0):
        self.name = path if path is not None else "<stdout>"
        self._close = path is not None
        if path is None:
            fh = sys.stdout.buffer
        else:
            try:
                if resume_offset:
                    fh = open(path, "r+b")
                    size = fh.seek(0, os.SEEK_END)
                    if size < resume_offset:
                        fh.close()
                        raise UsageError(
                            f"output {path} holds {size} bytes, fewer than the "
                            f"{resume_offset} the checkpoint recorded"
                        )
                    fh.truncate(resume_offset)
                    fh.seek(resume_offset)
                else:
                    fh = open(path, "wb")
            except OSError as exc:
                raise UsageError(f"cannot open output path {path}: {exc}") from exc
        super().__init__(fh, resume_offset)

    def close(self):
        if self._close:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            self.close()
        except OSError as close_error:
            exc = exc if exc is not None else close_error
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write output {self.name}: {exc}") from exc
        return False


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it, so that a full disk or a
    closed pipe shows here, named, and not in the flush at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write output <stdout>: {exc}") from exc


def _emit_summary(summary: dict) -> None:
    _write_stdout(json.dumps(summary, sort_keys=True) + "\n")


def _write_json_file(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write output path {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Scan registry: every --which name with its factory, least limit and verdict


class _ScanEntry(NamedTuple):
    make: Callable[[argparse.Namespace], BlockScan]
    minimum: int
    verdict: Callable[[object, argparse.Namespace], tuple[bool, dict]]


def _no_violations(result, args) -> tuple[bool, dict]:
    return not result.violations, result.to_json()


def _passed(result, args) -> tuple[bool, dict]:
    return result.passed(), result.to_json()


def _schoenfeld_verdict(result, args) -> tuple[bool, dict]:
    k_rh = args.constants.K_rh
    doc = result.to_json()
    doc["k_rh"] = k_rh
    return result.max_after_cutoff <= k_rh, doc


def _deriv(args, mode="records"):
    return fluct.DerivScan(args.limit, args.c, mode)


SCANS = {
    "cg": _ScanEntry(lambda args: fluct.CgScan(args.limit, args.c), 3, _no_violations),
    "b": _ScanEntry(_deriv, 7, lambda r, args: (r.b_pass(), r.to_json())),
    "k": _ScanEntry(_deriv, 5, lambda r, args: (r.k_pass(), r.to_json())),
    "delta": _ScanEntry(
        lambda args: fluct.DeltaScan(args.limit, args.c), 3, _no_violations
    ),
    "schoenfeld": _ScanEntry(
        lambda args: fluct.SchoenfeldScan(args.limit, args.K), 10, _schoenfeld_verdict
    ),
    "dusart": _ScanEntry(lambda args: fluct.DusartScan(args.limit), 355992, _passed),
    "bbound": _ScanEntry(lambda args: fluct.BBoundScan(args.limit, args.B), 10,
                         _passed),
}


# ----------------------------------------------------------------------
# Scan and figure1 outputs


def _finish_scan(result, args) -> int:
    passed, doc = SCANS[args.which].verdict(result, args)
    if args.format == "json" and args.out:
        _write_json_file(args.out, doc)
    _emit_summary({"command": args.command, "which": args.which, "pass": passed, **doc})
    return 0 if passed else 1


def _finish_figure1(result, args) -> int:
    if args.out and args.format == "csv":
        _write_plot_script(args.out + ".plot.py", os.path.basename(args.out))
    return _finish_scan(result, args)


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot the derivative scan: dots are k' at primes, the curve its lower bound."""
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else {csv_name!r}
ps, kp, rhs = [], [], []
with open(path) as fh:
    for row in csv.DictReader(fh):
        ps.append(float(row["p"]))
        kp.append(float(row["k_prime"]))
        rhs.append(float(row["rhs24"]))
plt.figure(figsize=(8, 5))
plt.semilogx(ps, kp, ".", ms=2, label="k' at primes")
plt.semilogx(ps, rhs, "-", lw=1.5, label="lower bound")
plt.xlabel("p")
plt.ylabel("k'(p)")
plt.legend()
plt.tight_layout()
plt.savefig(path + ".png", dpi=150)
print("wrote", path + ".png")
'''


def _write_plot_script(path: str, csv_name: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_PLOT_SCRIPT.format(csv_name=csv_name))
    except OSError as exc:
        raise UsageError(f"cannot write plot script {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Selberg and fit outputs


def _selberg_points(limit: int, count: int) -> list[int]:
    if count < 2:
        raise UsageError(f"--points must be >= 2, got {count}")
    if limit < 10:  # the log-spaced points start at 10: only the limit is left
        return [limit]
    if count > limit:  # the points are distinct integers in [10, limit]
        raise UsageError(f"--points must be <= --limit {limit}, got {count}")
    pts = np.unique(np.rint(np.geomspace(10, limit, count)).astype(np.int64))
    pts = pts[(pts >= 4) & (pts <= limit)]
    if len(pts) == 0 or pts[-1] != limit:
        pts = np.append(pts, limit)
    return [int(x) for x in np.unique(pts)]


def _selberg_scan(args) -> BlockScan:
    return selberg.SelbergScan(_selberg_points(args.limit, args.points))


def _finish_selberg(rows, args) -> int:
    holds = all(r.lemma_holds for r in rows)
    _emit_summary({"command": "selberg", "points": len(rows),
                   "lemma_holds_all": holds, "limit": args.limit})
    return 0 if holds else 1


def _fit_scan(args) -> BlockScan:
    return fitmod.FitScan(args.x_min, args.limit, stride=args.stride,
                          bin_count=args.bins)


def _finish_fit(result, args) -> int:
    if args.out and args.format == "csv":
        with _Output(args.out) as out:
            out.write(b"log_x_mid,k_mean")
            out.write_rows(*np.array(result.bins, dtype=np.float64).T)
    elif args.out:
        _write_json_file(args.out, result.to_json())
    _emit_summary({"command": "fit", "pass": True, **result.to_json()})
    return 0


# ----------------------------------------------------------------------
# Report

# Report sections folded in the one block pass, by the scan each runs.
_REPORT_SCANS = {
    "cramer_granville": "cg",
    "conditions": "b",
    "schoenfeld": "schoenfeld",
    "b_bound": "bbound",
    "dusart": "dusart",
}

_REFERENCE_S1_MINUS_S2 = 686787.25
_S1S2_POINT = 104729


def _report_scan(args) -> BlockScan:
    # every part ends at --limit, the last Selberg point too, as FusedScan requires
    scans = {name: SCANS[which].make(args) for name, which in _REPORT_SCANS.items()}
    scans["partial_sums"] = selberg.PartialSumScan(args.limit)
    scans["selberg_points"] = _selberg_scan(args)
    scans["fit"] = fitmod.FitScan(fitmod.FIT_X_MIN, args.limit)
    return FusedScan(scans)


def _selberg_at_reference() -> dict:
    sums = run_to_end(PrimeStream(_S1S2_POINT), selberg.SelbergScan([_S1S2_POINT]))[0]
    v1, v2o, v2u = sums.s1, sums.s2, sums.s2_unordered
    return {
        "x": _S1S2_POINT,
        "s1": v1,
        "s2_ordered": v2o,
        "s2_unordered": v2u,
        "s1_minus_s2_ordered": v1 - v2o,
        "s1_minus_s2_unordered": v1 - v2u,
        "reference_difference": _REFERENCE_S1_MINUS_S2,
        "ordered_matches_reference": abs((v1 - v2o) - _REFERENCE_S1_MINUS_S2) < 0.5,
        "unordered_matches_reference": abs((v1 - v2u) - _REFERENCE_S1_MINUS_S2) < 0.5,
    }


def _report_pass(doc: dict) -> bool:
    checks = [
        doc["selberg_points"]["all_hold"],
        doc["partial_sums"]["identity_exact"],
        doc["cramer_granville"]["thresholds"]["least_n_holds_onward"] <= 5,
        doc["conditions"]["b_pass"],
        doc["conditions"]["k_pass"],
        doc["schoenfeld"]["max_after_cutoff"] <= doc["constants"]["K_rh"],
        doc["b_bound"]["pass"],
        doc["dusart"]["pass"],
    ]
    return all(checks)


def _finish_report(results, args) -> int:
    partial = results.pop("partial_sums")
    rows = results.pop("selberg_points")
    sections = {name: result.to_json() for name, result in results.items()}
    sections["partial_sums"] = {
        "n_max": partial.n_max,
        "n0": partial.n0,
        "identity_exact": partial.identity_exact,
    }
    sections["selberg_points"] = {
        "points": len(rows),
        "all_hold": all(r.lemma_holds for r in rows),
        "failures": [r.x for r in rows if not r.lemma_holds],
        "residual_per_x_last": rows[-1].residual_per_x,
    }
    sections["selberg_at_104729"] = _selberg_at_reference()

    constants = args.constants
    doc = {
        "version": 1,
        "config": echo(args),
        "constants": {
            "c": constants.c,
            "B": constants.B,
            "K_rh": constants.K_rh,
            "K_all": constants.K_all,
            "granville_c": constants.granville_c,
        },
    }
    doc.update(sections)
    doc["pass"] = _report_pass(doc)

    if args.out:
        _write_json_file(args.out, doc)
    _write_stdout(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if doc["pass"] else 1


# ----------------------------------------------------------------------
# The command table and the one run path

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_block_arrays_on_heap() -> None:
    """Serve the fold's per-block arrays and sieve segments from the heap,
    under glibc malloc.

    They are 256 KiB to 1 MiB.  glibc's mmap threshold starts at 128 KiB
    and rises only to the largest mapped chunk freed, with the trim
    threshold at twice that, so each array is mapped and unmapped again
    (about half a million page faults for ``report`` at 1e8), or the heap
    top is trimmed and faulted in again every few sieve segments (about
    200 k for ``scan --which cg`` at 1e9).  Fixed thresholds, 4 MiB mmap
    and 16 MiB trim for every command, keep them on the heap: at 4 MiB of
    trim ``report`` takes 160 k faults at 1e8, and the streaming commands
    peak no higher at 16.  Elsewhere this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


class _Command(NamedTuple):
    """One command as ``_run`` folds it.

    ``make(args)`` builds the scan and ``minimum(args)`` is the least
    --limit.  ``key`` names the arguments, besides ``echo(args)``, that
    shape the output and so enter the checkpoint key.  ``finish(result,
    args)`` writes the outputs left once the fold ends and returns the
    exit code.  A scan with a ``header()`` streams its CSV rows to the
    sink as it folds, only under --format csv when ``format`` is in the
    key; otherwise it folds without a sink, and so without rows.
    """

    make: Callable[[argparse.Namespace], BlockScan]
    minimum: Callable[[argparse.Namespace], int]
    key: tuple[str, ...]
    finish: Callable[[object, argparse.Namespace], int]


def _which_minimum(args) -> int:
    return SCANS[args.which].minimum


_COMMANDS = {
    "selberg": _Command(
        make=_selberg_scan, minimum=lambda args: 4, key=("points",),
        finish=_finish_selberg,
    ),
    "scan": _Command(
        make=lambda args: SCANS[args.which].make(args),
        minimum=_which_minimum, key=("which", "format"), finish=_finish_scan,
    ),
    "figure1": _Command(
        make=lambda args: _deriv(args, "figure"),
        minimum=_which_minimum, key=("which", "format"), finish=_finish_figure1,
    ),
    "fit": _Command(
        make=_fit_scan, minimum=lambda args: args.x_min + 1,
        key=("stride", "bins", "x_min"),
        finish=_finish_fit,
    ),
    "report": _Command(
        make=_report_scan, minimum=lambda args: 10**6, key=("points",),
        finish=_finish_report,
    ),
}


def _run(args) -> int:
    """Fold the command's scan from its checkpoint, saving after every block
    under --checkpoint, then write its outputs and remove the checkpoint.

    A run stopped by --stop-after-blocks prints the next block instead and
    leaves the checkpoint.
    """
    cmd = _COMMANDS[args.command]
    shape = {name: getattr(args, name) for name in cmd.key}
    # scan and figure1 name their scan in the summaries, scan its --which
    # in the refusal too
    head = {"command": args.command}
    if "which" in shape:
        head["which"] = args.which
    named = f"scan --which {args.which}" if args.command == "scan" else args.command
    least = cmd.minimum(args)
    if args.limit < least:
        raise UsageError(f"{named} needs --limit >= {least}, got {args.limit}")
    data = PrimeStream(args.limit, workers=args.workers)
    scan = cmd.make(args)
    ckpt = _Checkpoint(args, scan, **shape)
    rows = scan.header() is not None and shape.get("format", "csv") == "csv"
    if rows and args.checkpoint and args.out is None:
        raise UsageError("checkpointed CSV runs need --out")

    _keep_block_arrays_on_heap()
    with _Output(args.out, ckpt.offset) if rows else contextlib.nullcontext() as sink:
        state, finished = run_scan(
            data,
            scan,
            workers=args.workers,
            sink=sink,
            state=ckpt.state,
            on_block=(lambda st: ckpt.save(st, sink.offset if rows else 0))
            if args.checkpoint else None,
            stop_after_blocks=args.stop_after_blocks,
        )
    if not finished:
        _emit_summary({**head, "stopped_at_block": state["block"]})
        return 0
    code = cmd.finish(scan.result(state), args)
    ckpt.remove()
    return code


def main(argv=None) -> int:
    try:
        return _run(_parse(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # argparse: --help, or a value it refuses
        return int(exc.code) if exc.code else 0
    # a MemoryError is a resource error, as a full disk is
    except (UsageError, PrimeGapsError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # so the flush at exit neither fails nor prints
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
