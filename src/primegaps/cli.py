"""Command-line driver: selberg | scan | figure1 | fit | report.

Exit codes are uniform across commands: 0 when the command's assertion
set passes, 1 when a mathematical violation was found (violations are
still fully emitted), 2 on usage or resource errors.

Configuration precedence: command-line flags, then PRIMEGAPS_* env
variables, then a --config key=value file, then built-in defaults.
Long scans accept --checkpoint PATH (state written after every block)
and --resume to continue; a resumed run reproduces the uninterrupted
output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fit as fitmod
from . import fluct, selberg
from .analytic import Constants
from .errors import PrimeGapsError
from .runner import RowSink, run_scan
from .sieve import DEFAULT_SEGMENT_SIZE, PrimeData

ENV_PREFIX = "PRIMEGAPS_"
CHECKPOINT_VERSION = 1

DEFAULTS = {
    "limit": 10**8,
    "c": 1.0,
    "B": 5.0,
    "K": 1.0 / 3.0,
    "workers": 1,
    "segment_size": DEFAULT_SEGMENT_SIZE,
    "format": "csv",
    "out": None,
    "checkpoint": None,
}

_INT_KEYS = {"limit", "workers", "segment_size"}
_FLOAT_KEYS = {"c", "B", "K"}


@dataclass(frozen=True)
class RunConfig:
    limit: int
    c: float
    B: float
    K_all: float
    segment_size: int
    workers: int
    output_path: str | None
    format: str
    checkpoint_path: str | None

    def __post_init__(self):
        if self.limit < 2:
            raise PrimeGapsError(f"limit must be >= 2, got {self.limit}")
        if self.workers < 1:
            raise PrimeGapsError(f"workers must be >= 1, got {self.workers}")
        if self.c <= 0:
            raise PrimeGapsError(f"c must be positive, got {self.c}")
        if self.format not in ("csv", "json"):
            raise PrimeGapsError(f"format must be csv or json, got {self.format}")

    def echo(self) -> dict:
        return {
            "limit": self.limit,
            "c": self.c,
            "B": self.B,
            "K": self.K_all,
            "segment_size": self.segment_size,
            "workers": self.workers,
        }


class UsageError(Exception):
    pass


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in DEFAULTS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(key: str, value):
    if value is None:
        return None
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {value!r}") from exc
    return value


def build_config(args) -> RunConfig:
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, val in _parse_config_file(args.config).items():
            values[key] = _coerce(key, val)
    for key in DEFAULTS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _coerce(key, env)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return RunConfig(
            limit=values["limit"],
            c=values["c"],
            B=values["B"],
            K_all=values["K"],
            segment_size=values["segment_size"],
            workers=values["workers"],
            output_path=values["out"],
            format=values["format"],
            checkpoint_path=values["checkpoint"],
        )
    except PrimeGapsError as exc:
        raise UsageError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--limit", type=int, default=None, help="scan limit")
    parser.add_argument("--c", type=float, default=None, help="gap-bound constant")
    parser.add_argument("--B", type=float, default=None, help="|b(x)| bound")
    parser.add_argument("--K", type=float, default=None, help="all-x ratio bound")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--segment-size", dest="segment_size", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--checkpoint", default=None, help="checkpoint path")
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

    p = sub.add_parser("selberg", help="S1/S2 residual scan at sample points")
    p.add_argument("--points", type=int, default=32, help="number of scan points")
    _add_common(p)

    p = sub.add_parser("scan", help="run one named scan")
    p.add_argument(
        "--which",
        required=True,
        choices=["cg", "b", "k", "delta", "schoenfeld", "dusart", "bbound"],
    )
    _add_common(p)

    p = sub.add_parser("figure1", help="emit p,k_prime,rhs24 plotting data")
    _add_common(p)

    p = sub.add_parser("fit", help="fit the k(x) drift model")
    p.add_argument("--stride", type=int, default=1000)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--x-min", dest="x_min", type=int, default=10**4)
    p.add_argument(
        "--synthetic",
        action="store_true",
        help="self-test: fit exact synthetic data instead of sieving",
    )
    _add_common(p)

    p = sub.add_parser("report", help="one-shot JSON reproduction document")
    p.add_argument("--points", type=int, default=32)
    _add_common(p)
    return parser


# ----------------------------------------------------------------------
# Checkpoint plumbing


def _write_checkpoint(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = CHECKPOINT_VERSION
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_checkpoint(path: str, command: str, cfg: RunConfig) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load checkpoint {path}: {exc}") from exc
    if payload.get("version") != CHECKPOINT_VERSION:
        raise UsageError(f"checkpoint {path} has unsupported version")
    if payload.get("command") != command:
        raise UsageError(
            f"checkpoint {path} belongs to command {payload.get('command')!r}"
        )
    if payload.get("config") != cfg.echo():
        raise UsageError(f"checkpoint {path} was written with a different config")
    return payload


class _Output:
    """CSV destination: stdout, a fresh file, or a truncated resume file."""

    def __init__(self, path: str | None, resume_offset: int = 0):
        self.path = path
        if path is None:
            self._fh = sys.stdout.buffer
            self._close = False
            self.sink = RowSink(self._fh)
        else:
            try:
                if resume_offset:
                    self._fh = open(path, "r+b")
                    size = self._fh.seek(0, os.SEEK_END)
                    if size < resume_offset:
                        self._fh.close()
                        raise UsageError(
                            f"output {path} holds {size} bytes, fewer than the "
                            f"{resume_offset} the checkpoint recorded"
                        )
                    self._fh.truncate(resume_offset)
                    self._fh.seek(resume_offset)
                else:
                    self._fh = open(path, "wb")
            except OSError as exc:
                raise UsageError(f"cannot open output path {path}: {exc}") from exc
            self._close = True
            self.sink = RowSink(self._fh, resume_offset)

    def close(self):
        if self._close:
            self._fh.close()
        else:
            self._fh.flush()


def _emit_summary(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


# ----------------------------------------------------------------------
# Scan command


_SCAN_MINIMUM_LIMIT = {
    "cg": 3,
    "b": 7,
    "k": 5,
    "delta": 3,
    "schoenfeld": 10,
    "dusart": 355992,
    "bbound": 10,
}


def _make_scan(which: str, cfg: RunConfig, sink_mode: str = "records"):
    if which == "cg":
        return fluct.CgScan(cfg.limit, cfg.c)
    if which == "b" or which == "k":
        return fluct.DerivScan(cfg.limit, cfg.c, sink_mode=sink_mode)
    if which == "delta":
        return fluct.DeltaScan(cfg.limit, cfg.c)
    if which == "schoenfeld":
        return fluct.SchoenfeldScan(cfg.limit, cfg.K_all)
    if which == "dusart":
        return fluct.DusartScan(cfg.limit)
    if which == "bbound":
        return fluct.BBoundScan(cfg.limit, cfg.B)
    raise UsageError(f"unknown scan {which!r}")


def _scan_verdict(which: str, result, cfg: RunConfig) -> tuple[bool, dict]:
    if which == "cg":
        return not result.violations, result.to_json()
    if which == "b":
        return result.b_pass(), result.to_json()
    if which == "k":
        return result.k_pass(), result.to_json()
    if which == "delta":
        return not result.violations, result.to_json()
    if which == "schoenfeld":
        constants = Constants(c=cfg.c, B=cfg.B, K_all=cfg.K_all)
        doc = result.to_json()
        doc["k_rh"] = constants.K_rh
        return result.max_after_cutoff <= constants.K_rh, doc
    if which == "dusart":
        return result.passed(), result.to_json()
    if which == "bbound":
        return result.passed(), result.to_json()
    raise UsageError(f"unknown scan {which!r}")


def _run_block_command(cfg: RunConfig, args, command: str, which: str, sink_mode: str):
    minimum = _SCAN_MINIMUM_LIMIT[which]
    if cfg.limit < minimum:
        raise UsageError(
            f"{command} --which {which} needs --limit >= {minimum}, "
            f"got {cfg.limit}"
        )
    resume_state = None
    offset = 0
    if args.resume:
        if not cfg.checkpoint_path:
            raise UsageError("--resume requires --checkpoint")
        payload = _load_checkpoint(cfg.checkpoint_path, command, cfg)
        if payload.get("which") != which:
            raise UsageError("checkpoint belongs to a different scan")
        resume_state = payload["scan_state"]
        offset = payload.get("sink_offset", 0)
    if cfg.checkpoint_path and cfg.output_path is None and cfg.format == "csv":
        raise UsageError("checkpointed CSV runs need --out")

    data = PrimeData.build(
        cfg.limit, segment_size=cfg.segment_size, workers=cfg.workers
    )
    scan = _make_scan(which, cfg, sink_mode)
    out = _Output(cfg.output_path if cfg.format == "csv" else None, offset)
    sink = out.sink if cfg.format == "csv" else None

    def on_block(state):
        if cfg.checkpoint_path:
            if sink is not None:
                sink.sync()
            _write_checkpoint(
                cfg.checkpoint_path,
                {
                    "command": command,
                    "which": which,
                    "config": cfg.echo(),
                    "scan_state": state,
                    "sink_offset": sink.offset if sink else 0,
                },
            )

    try:
        state, finished = run_scan(
            data,
            scan,
            limit=cfg.limit,
            workers=cfg.workers,
            sink=sink,
            state=resume_state,
            on_block=on_block,
            stop_after_blocks=args.stop_after_blocks,
        )
    finally:
        out.close()
    if not finished:
        _emit_summary(
            {"command": command, "which": which, "stopped_at_block": state["block"]}
        )
        return 0
    result = scan.result(state)
    passed, doc = _scan_verdict(which, result, cfg)
    if cfg.format == "json" and cfg.output_path:
        _write_json_file(cfg.output_path, doc)
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        os.remove(cfg.checkpoint_path)
    summary = {"command": command, "which": which, "pass": passed}
    summary.update(doc)
    _emit_summary(summary)
    return 0 if passed else 1


def _write_json_file(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write output path {path}: {exc}") from exc


def cmd_scan(cfg: RunConfig, args) -> int:
    return _run_block_command(cfg, args, "scan", args.which, "records")


def cmd_figure1(cfg: RunConfig, args) -> int:
    code = _run_block_command(cfg, args, "figure1", "k", "figure")
    if cfg.output_path and cfg.format == "csv":
        script = cfg.output_path + ".plot.py"
        _write_plot_script(script, os.path.basename(cfg.output_path))
    return code


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
# Selberg command


def _selberg_points(limit: int, count: int) -> list[int]:
    pts = np.unique(
        np.rint(np.geomspace(10, limit, max(2, count))).astype(np.int64)
    )
    pts = pts[pts >= 4]
    if len(pts) == 0 or pts[-1] != limit:
        pts = np.append(pts, limit)
    return [int(x) for x in np.unique(pts)]


def _selberg_row(s: selberg.SelbergSums) -> str:
    return (
        f"{s.x},{s.s1!r},{s.s2!r},{s.s2_unordered!r},"
        f"{s.residual_per_x!r},{str(s.lemma_holds).lower()}"
    )


def cmd_selberg(cfg: RunConfig, args) -> int:
    if cfg.limit < 4:
        raise UsageError(f"selberg needs --limit >= 4, got {cfg.limit}")
    points = _selberg_points(cfg.limit, args.points)
    start = 0
    offset = 0
    if args.resume:
        if not cfg.checkpoint_path:
            raise UsageError("--resume requires --checkpoint")
        payload = _load_checkpoint(cfg.checkpoint_path, "selberg", cfg)
        if payload.get("points") != points:
            raise UsageError("checkpoint was written for different scan points")
        start = payload["next_point"]
        offset = payload.get("sink_offset", 0)
    if cfg.checkpoint_path and cfg.output_path is None:
        raise UsageError("checkpointed runs need --out")

    data = PrimeData.build(
        cfg.limit, segment_size=cfg.segment_size, workers=cfg.workers
    )
    out = _Output(cfg.output_path, offset)
    holds = payload["holds_so_far"] if args.resume else True
    done = 0
    stopped = False
    try:
        if start == 0:
            out.sink.write("x,s1,s2_ordered,s2_unordered,residual_per_x,lemma1_holds")
        for i in range(start, len(points)):
            sums = selberg.selberg_sums_at(data, points[i])
            out.sink.write(_selberg_row(sums))
            holds = holds and sums.lemma_holds
            if cfg.checkpoint_path:
                out.sink.sync()
                _write_checkpoint(
                    cfg.checkpoint_path,
                    {
                        "command": "selberg",
                        "config": cfg.echo(),
                        "points": points,
                        "next_point": i + 1,
                        "holds_so_far": holds,
                        "sink_offset": out.sink.offset,
                    },
                )
            done += 1
            if args.stop_after_blocks is not None and done >= args.stop_after_blocks:
                stopped = i + 1 < len(points)
                break
    finally:
        out.close()
    if stopped:
        _emit_summary({"command": "selberg", "stopped_at_point": start + done})
        return 0
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        os.remove(cfg.checkpoint_path)
    summary = {
        "command": "selberg",
        "points": len(points),
        "lemma_holds_all": holds,
        "limit": cfg.limit,
    }
    _emit_summary(summary)
    return 0 if holds else 1


# ----------------------------------------------------------------------
# Fit command


def _synthetic_binned(a: float, alpha: float) -> list[tuple[float, float]]:
    xs = np.geomspace(100.0, 1e9, 40)
    w = np.log(xs)
    us = np.log(np.log(w))
    ks = -a * (alpha - us)
    return [(float(w[i]), float(ks[i])) for i in range(len(xs))]


def cmd_fit(cfg: RunConfig, args) -> int:
    if args.synthetic:
        truth_a, truth_alpha = 0.2, 1.4
        result = fitmod.fit_skewes(_synthetic_binned(truth_a, truth_alpha))
        ok = (
            abs(result.A - truth_a) <= 1e-9
            and abs(result.alpha - truth_alpha) <= 1e-9
        )
        summary = {"command": "fit", "synthetic": True, "pass": ok}
        summary.update(result.to_json())
        _emit_summary(summary)
        return 0 if ok else 1
    if cfg.limit < 10**4:
        raise UsageError(f"fit needs --limit >= 10000, got {cfg.limit}")
    if args.x_min < 16:
        raise UsageError(f"fit needs --x-min >= 16, got {args.x_min}")
    data = PrimeData.build(
        cfg.limit, segment_size=cfg.segment_size, workers=cfg.workers
    )
    samples = fitmod.sample_fluctuations(
        data, args.x_min, cfg.limit, stride=args.stride, per_decade=200
    )
    if len(samples) < 3:
        raise UsageError(
            f"only {len(samples)} samples in [{args.x_min}, {cfg.limit}]; "
            "lower --stride or raise --limit"
        )
    binned = fitmod.bin_average_k(samples, args.bins)
    result = fitmod.fit_skewes(binned)
    if cfg.output_path:
        if cfg.format == "csv":
            out = _Output(cfg.output_path)
            try:
                out.sink.write("log_x_mid,k_mean")
                for w, k in binned:
                    out.sink.write(f"{w!r},{k!r}")
            finally:
                out.close()
        else:
            _write_json_file(cfg.output_path, result.to_json())
    summary = {"command": "fit", "synthetic": False, "pass": True}
    summary.update(result.to_json())
    _emit_summary(summary)
    return 0


# ----------------------------------------------------------------------
# Report command

_REPORT_SECTIONS = [
    "selberg_points",
    "selberg_at_104729",
    "partial_sums",
    "cramer_granville",
    "conditions",
    "schoenfeld",
    "b_bound",
    "dusart",
    "fit",
]

_REFERENCE_S1_MINUS_S2 = 686787.25
_S1S2_POINT = 104729


def _report_block_scan(name: str, cfg: RunConfig):
    if name == "cramer_granville":
        return fluct.CgScan(cfg.limit, cfg.c)
    if name == "conditions":
        return fluct.DerivScan(cfg.limit, cfg.c)
    if name == "schoenfeld":
        return fluct.SchoenfeldScan(cfg.limit, cfg.K_all)
    if name == "b_bound":
        return fluct.BBoundScan(cfg.limit, cfg.B)
    if name == "dusart":
        return fluct.DusartScan(cfg.limit)
    raise UsageError(f"unknown report section {name}")


def _report_quick_section(name: str, cfg: RunConfig, points, data) -> dict:
    if name == "selberg_points":
        rows = selberg.selberg_residual_scan(data, points)
        return {
            "points": len(points),
            "all_hold": all(r.lemma_holds for r in rows),
            "failures": [r.x for r in rows if not r.lemma_holds],
            "residual_per_x_last": rows[-1].residual_per_x,
        }
    if name == "selberg_at_104729":
        v1 = selberg.s1(data, _S1S2_POINT)
        v2o = selberg.s2(data, _S1S2_POINT, "ordered")
        v2u = selberg.s2(data, _S1S2_POINT, "unordered")
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
    if name == "fit":
        result = fitmod.fit_from_data(data, 10**4, cfg.limit)
        return result.to_json()
    raise UsageError(f"unknown quick section {name}")


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


def cmd_report(cfg: RunConfig, args) -> int:
    if cfg.limit < 10**6:
        raise UsageError(
            f"report needs --limit >= 1000000 so every section applies, "
            f"got {cfg.limit}"
        )
    points = _selberg_points(cfg.limit, args.points)
    completed: dict = {}
    active_state = None
    if args.resume:
        if not cfg.checkpoint_path:
            raise UsageError("--resume requires --checkpoint")
        payload = _load_checkpoint(cfg.checkpoint_path, "report", cfg)
        if payload.get("points") != points:
            raise UsageError("checkpoint was written for different scan points")
        completed = payload["completed"]
        active_state = payload.get("scan_state")

    data = PrimeData.build(
        cfg.limit, segment_size=cfg.segment_size, workers=cfg.workers
    )

    def checkpoint(scan_state=None):
        if cfg.checkpoint_path:
            _write_checkpoint(
                cfg.checkpoint_path,
                {
                    "command": "report",
                    "config": cfg.echo(),
                    "points": points,
                    "completed": completed,
                    "scan_state": scan_state,
                },
            )

    stop_budget = args.stop_after_blocks
    for name in _REPORT_SECTIONS:
        if name in completed:
            continue
        if name in ("selberg_points", "selberg_at_104729", "fit"):
            completed[name] = _report_quick_section(name, cfg, points, data)
            checkpoint()
            continue
        if name == "partial_sums":
            scan = selberg.PartialSumScan(len(data.primes) - 1)
            limit = None
        else:
            scan = _report_block_scan(name, cfg)
            limit = cfg.limit
        state, finished = run_scan(
            data,
            scan,
            limit=limit,
            workers=cfg.workers,
            state=active_state,
            on_block=lambda st: checkpoint(st),
            stop_after_blocks=stop_budget,
        )
        active_state = None
        if not finished:
            checkpoint(state)
            _emit_summary(
                {"command": "report", "stopped_in": name, "block": state["block"]}
            )
            return 0
        result = scan.result(state)
        if name == "partial_sums":
            completed[name] = {
                "n_max": result.n_max,
                "n0": result.n0,
                "identity_exact": result.identity_exact,
            }
        else:
            completed[name] = result.to_json()
        checkpoint()

    constants = Constants(c=cfg.c, B=cfg.B, K_all=cfg.K_all)
    doc = {
        "version": 1,
        "config": cfg.echo(),
        "constants": {
            "c": constants.c,
            "B": constants.B,
            "K_rh": constants.K_rh,
            "K_all": constants.K_all,
            "granville_c": constants.granville_c,
        },
    }
    for name in _REPORT_SECTIONS:
        doc[name] = completed[name]
    doc["pass"] = _report_pass(doc)

    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write output path {cfg.output_path}: {exc}"
            ) from exc
    sys.stdout.write(text)
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        os.remove(cfg.checkpoint_path)
    return 0 if doc["pass"] else 1


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        if args.command == "selberg":
            return cmd_selberg(cfg, args)
        if args.command == "scan":
            return cmd_scan(cfg, args)
        if args.command == "figure1":
            return cmd_figure1(cfg, args)
        if args.command == "fit":
            return cmd_fit(cfg, args)
        if args.command == "report":
            return cmd_report(cfg, args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrimeGapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
