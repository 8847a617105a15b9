"""Deterministic block-fold driver for long scans.

A scan is split into a pure per-block ``map_block`` (parallelizable)
and an order-fixed ``reduce`` that folds payloads into a JSON-able
state dict.  Because blocks are consumed strictly in index order and
all floating-point grouping is tied to the fixed block size, a scan's
output is byte-identical for any worker count and across a
checkpoint/resume cycle.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

from .errors import PrimeGapsError
from .sieve import BLOCK_PRIMES, PrimeData


def ordered_map(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """Map fn over items, yielding results in input order.

    With workers > 1 a bounded window of futures keeps the pool busy
    without buffering unbounded payloads.
    """
    if workers <= 1 or len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    window = workers + 2
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = {}
        submit = 0
        for i in range(len(items)):
            while submit < len(items) and submit < i + window:
                pending[submit] = pool.submit(fn, items[submit])
                submit += 1
            yield pending.pop(i).result()


class RowSink:
    """Line-oriented ASCII output with a byte offset for resumable writes."""

    def __init__(self, fh, offset: int = 0):
        self._fh = fh
        self.offset = offset

    def write(self, line: str) -> None:
        data = (line + "\n").encode("ascii")
        self._fh.write(data)
        self.offset += len(data)

    def sync(self) -> None:
        """Put every row written so far on disk, so ``offset`` is durable."""
        self._fh.flush()
        os.fsync(self._fh.fileno())


class BlockScan:
    """Interface for block-folded scans; subclasses fill in the four hooks."""

    name = "scan"

    def start(self) -> dict:
        raise NotImplementedError

    def map_block(self, block):
        raise NotImplementedError

    def reduce(self, state: dict, payload, sink: RowSink | None) -> None:
        raise NotImplementedError

    def result(self, state: dict):
        raise NotImplementedError

    def header(self) -> str | None:
        return None


def run_scan(
    data: PrimeData,
    scan: BlockScan,
    *,
    limit: int | None = None,
    workers: int = 1,
    block_size: int = BLOCK_PRIMES,
    sink: RowSink | None = None,
    state: dict | None = None,
    on_block: Callable[[dict], None] | None = None,
    stop_after_blocks: int | None = None,
):
    """Fold a BlockScan over the prime blocks of ``data``.

    Returns ``(state, finished)``; call ``scan.result(state)`` once
    finished.  Pass a previously checkpointed ``state`` to resume: the
    fold restarts at ``state["block"]`` and reproduces the
    uninterrupted run bit for bit.
    """
    if state is None:
        state = scan.start()
        state["block"] = 0
        if sink is not None and scan.header() is not None:
            sink.write(scan.header())
    start_block = state["block"]
    blocks = [
        b
        for b in data.blocks(limit=limit, block_size=block_size)
        if b.index >= start_block
    ]
    done = 0
    for payload in ordered_map(scan.map_block, blocks, workers):
        block = blocks[done]
        scan.reduce(state, payload, sink)
        state["block"] = block.index + 1
        done += 1
        if on_block is not None:
            on_block(state)
        if stop_after_blocks is not None and done >= stop_after_blocks:
            break
    total = data.block_count(limit=limit, block_size=block_size)
    return state, state["block"] >= total


def run_to_end(data: PrimeData, scan: BlockScan, **kwargs):
    """Fold ``scan`` over every block with ``run_scan`` and return its result."""
    state, finished = run_scan(data, scan, **kwargs)
    if not finished:
        raise PrimeGapsError(
            f"scan {scan.name!r} stopped at block {state['block']} before the end"
        )
    return scan.result(state)
