"""Spans around the public entry points of each primegaps module.

Run as a script, this drives ``primegaps.cli.main`` in-process with the
wrappers installed and writes the spans to a JSON file when the run
ends; the CLI's own stdout and exit code pass through unchanged:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json -- report --limit 1000000

A span is ``[name, start, end, parent, work]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``work`` a dict of counts made
at the same boundary (points, terms, primes, bytes).  ``RowSink.write``
runs once per CSV row, so it is kept as one aggregate per enclosing span
(``[parent, calls, seconds, bytes]``) instead of one span per row.

The timed runs of the benchmark install none of this.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Scans whose map and reduce times are reported one by one, by scan name.
FLUCT_SCANS = ("cg", "deriv", "delta", "schoenfeld", "bbound", "dusart")


class Tracer:
    """Spans kept in memory for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.sinks: dict[int, list] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call; ``work(args, result)`` gives counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], {}]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def wrap_sink_write(self, fn):
        """``RowSink.write`` adding its time, calls and bytes to the enclosing span."""
        sinks, stack, clock = self.sinks, self._stack, time.perf_counter

        @functools.wraps(fn)
        def write(sink, line):
            before = sink.offset
            t0 = clock()
            fn(sink, line)
            elapsed = clock() - t0
            agg = sinks.get(stack[-1])
            if agg is None:
                agg = sinks[stack[-1]] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += sink.offset - before

        return write

    def document(self) -> dict:
        return {
            "spans": self.spans,
            "sinks": [[parent, *agg] for parent, agg in self.sinks.items()],
        }


def install(tracer: Tracer) -> None:
    """Wrap each module's entry points, also where another module imported the name."""
    import numpy as np

    from primegaps import accum, analytic, cli, fit, fluct, runner, selberg, sieve

    def method(cls, attr, name, work=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), work))

    build = sieve.PrimeData.__dict__["build"].__func__
    sieve.PrimeData.build = classmethod(tracer.wrap(
        "sieve.build", build,
        lambda a, r: {"primes": len(r.primes), "bytes": int(r.primes.nbytes)},
    ))

    li = tracer.wrap("analytic.li", analytic.li,
                     lambda a, r: {"points": int(np.size(a[0]))})
    analytic.li = fluct.li = li

    fsum = tracer.wrap("accum.fsum", accum.block_sum,
                       lambda a, r: {"terms": len(a[0])})
    accum.block_sum = fluct.block_sum = selberg.block_sum = fsum

    selberg.s1 = tracer.wrap(
        "selberg.s1", selberg.s1,
        lambda a, r: {"terms": int(np.searchsorted(a[0].primes, a[1], side="right"))},
    )
    selberg.s2 = tracer.wrap("selberg.s2", selberg.s2)
    selberg.selberg_residual_scan = tracer.wrap(
        "selberg.residual_scan", selberg.selberg_residual_scan)
    method(selberg.PartialSumScan, "map_block", "selberg.partial_sums.map")
    method(selberg.PartialSumScan, "reduce", "selberg.partial_sums.reduce")

    for cls in (fluct.CgScan, fluct.DerivScan, fluct.DeltaScan,
                fluct.SchoenfeldScan, fluct.BBoundScan, fluct.DusartScan):
        method(cls, "map_block", f"fluct.{cls.name}.map")
        method(cls, "reduce", f"fluct.{cls.name}.reduce")

    run_scan = tracer.wrap("runner.run_scan", runner.run_scan)
    runner.run_scan = cli.run_scan = fluct.run_scan = run_scan
    runner.RowSink.write = tracer.wrap_sink_write(runner.RowSink.write)

    fit.fit_from_data = tracer.wrap("fit.fit", fit.fit_from_data)
    fit.sample_fluctuations = tracer.wrap(
        "fit.sample", fit.sample_fluctuations, lambda a, r: {"samples": len(r)})

    cli._write_checkpoint = tracer.wrap(
        "cli.checkpoint", cli._write_checkpoint,
        lambda a, r: {"bytes": os.path.getsize(a[0])},
    )
    cli._write_json_file = tracer.wrap("cli.output_write", cli._write_json_file)
    method(cli._Output, "close", "cli.output_write")
    cli.main = tracer.wrap("cli.main", cli.main)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer times and counts from a span document.

    Self time is a span's length minus the time its child spans and sink
    writes cover.  ``sieve.build_s``, ``selberg.residual_scan_s``,
    ``fit.fit_s``, ``runner.*`` and ``cli.*`` times are inclusive; the
    other times are self times.
    """
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _work in spans:
        if parent >= 0:
            covered[parent] += end - start
    sink_calls = sink_s = sink_bytes = 0
    for parent, calls, seconds, nbytes in doc["sinks"]:
        if parent >= 0:
            covered[parent] += seconds
        sink_calls += calls
        sink_s += seconds
        sink_bytes += nbytes

    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: dict[str, Counter] = defaultdict(Counter)
    for i, (name, start, end, _parent, counts) in enumerate(spans):
        incl[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
        work[name].update(counts)

    maps = [n for n in incl if n.endswith(".map")]
    reduces = [n for n in incl if n.endswith(".reduce")]
    m = {
        "sieve.build_s": incl["sieve.build"],
        "sieve.primes": work["sieve.build"]["primes"],
        "sieve.table_mb": work["sieve.build"]["bytes"] / 2**20,
        "analytic.li_s": own["analytic.li"],
        "analytic.li_calls": calls["analytic.li"],
        "analytic.li_points": work["analytic.li"]["points"],
        "accum.fsum_s": own["accum.fsum"],
        "accum.fsum_terms": work["accum.fsum"]["terms"],
        "selberg.residual_scan_s": incl["selberg.residual_scan"],
        "selberg.s1_calls": calls["selberg.s1"],
        "selberg.s1_terms": work["selberg.s1"]["terms"],
        "selberg.s2_s": own["selberg.s2"],
        "selberg.partial_sums.map_s": own["selberg.partial_sums.map"],
        "selberg.partial_sums.reduce_s": own["selberg.partial_sums.reduce"],
    }
    for scan in FLUCT_SCANS:
        m[f"fluct.{scan}.map_s"] = own[f"fluct.{scan}.map"]
        m[f"fluct.{scan}.reduce_s"] = own[f"fluct.{scan}.reduce"]
    m.update({
        "runner.blocks": sum(calls[n] for n in reduces),
        "runner.map_s": sum(incl[n] for n in maps),
        "runner.reduce_s": sum(incl[n] for n in reduces),
        "runner.sink_s": sink_s,
        "runner.sink_rows": sink_calls,
        "runner.sink_bytes": sink_bytes,
        "fit.fit_s": incl["fit.fit"],
        "fit.samples": work["fit.sample"]["samples"],
        "cli.checkpoint_writes": calls["cli.checkpoint"],
        "cli.checkpoint_s": incl["cli.checkpoint"],
        "cli.checkpoint_bytes": work["cli.checkpoint"]["bytes"],
        "cli.output_write_s": incl["cli.output_write"],
    })
    return m


def scan_breakdown(doc: dict) -> dict[str, float]:
    """Inclusive map + reduce seconds per scan, and Li inside the derivative scan.

    The derivative scan evaluates Li once at every prime up to its limit,
    so ``li_at_primes`` is the cost of Li over all primes.
    """
    spans = doc["spans"]
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _work in spans:
        if name.endswith((".map", ".reduce")):
            out[name.rsplit(".", 1)[0]] += end - start
        elif name == "analytic.li" and parent >= 0:
            if spans[parent][0] == "fluct.deriv.map":
                out["li_at_primes"] += end - start
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- <primegaps arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    from primegaps import cli

    install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w", encoding="ascii") as fh:
            json.dump(tracer.document(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
