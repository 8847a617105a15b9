"""Deterministic block-fold driver for long scans.

A scan is split into a pure per-block ``map_block`` (parallelizable)
and an order-fixed ``reduce`` that folds payloads into a JSON-able
state dict and returns the block's CSV rows as columns, which
``run_scan`` writes to its sink.  Because blocks are consumed strictly
in index order and all floating-point grouping is tied to the fixed
block size, a scan's output is byte-identical for any worker count and
across a checkpoint/resume cycle.

The fold is lazy: it takes blocks from any source with
``blocks(limit=, block_size=)`` one at a time, so over a
``sieve.PrimeStream`` it holds only the blocks in flight, never the
prime table.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Callable

from .errors import DomainError, PrimeGapsError
from .rowfmt import format_rows
from .sieve import BLOCK_PRIMES, PrimeData, PrimeStream, ordered_map


class RowSink:
    """Line-oriented ASCII output with a byte offset for resumable writes."""

    def __init__(self, fh, offset: int = 0):
        self._fh = fh
        self.offset = offset

    def write(self, line: bytes) -> None:
        """Write ASCII ``line`` and a newline."""
        self._fh.write(line)
        self._fh.write(b"\n")  # not line + b"\n": a block's rows are megabytes
        self.offset += len(line) + 1

    def write_rows(self, *cols) -> None:
        """Write a block's rows, ``rowfmt.format_rows(*cols)``, in one ``write``.

        A block with no rows writes nothing, so no blank line.
        """
        rows = format_rows(*cols)
        if rows:
            self.write(rows)

    def sync(self) -> None:
        """Put every row written so far on disk, so ``offset`` is durable."""
        self._fh.flush()
        os.fsync(self._fh.fileno())


class BlockScan:
    """Interface for block-folded scans; subclasses fill in the four hooks.

    ``limit`` is the one place a scan's range is set: ``run_scan`` folds
    the blocks of the primes <= ``limit``, and None folds the whole source.
    """

    name = "scan"
    limit = None

    def start(self) -> dict:
        raise NotImplementedError

    def map_block(self, block):
        raise NotImplementedError

    def reduce(self, state: dict, payload) -> tuple | None:
        """Fold ``payload`` into ``state``; return the block's CSV rows as a
        tuple of 1-D columns, one per field of ``header()``, or None."""
        raise NotImplementedError

    def result(self, state: dict):
        raise NotImplementedError

    def header(self) -> str | None:
        return None


class FusedScan(BlockScan):
    """Several scans folded in one pass over the blocks.

    ``run_scan`` maps and reduces each block through the sub-scans in
    turn, so each sees the same blocks in the same order as it would
    alone and its result is bit-identical to a separate run, while only
    one sub-scan's payload is alive at a time.  So every part must end at
    the same ``limit``, which is the fused scan's.  The state is ``{name:
    sub_state}``: one state, one checkpoint.  ``run_scan`` refuses it a
    sink, where its parts' rows would interleave.
    """

    name = "fused"

    def __init__(self, scans: dict[str, BlockScan]):
        limits = {scan.limit for scan in scans.values()}
        if len(limits) > 1:
            raise DomainError(
                "fused scans must share one limit, got "
                + ", ".join(f"{name}={scan.limit}" for name, scan in scans.items())
            )
        self.scans = scans
        self.limit = limits.pop() if limits else None

    def start(self) -> dict:
        return {name: scan.start() for name, scan in self.scans.items()}

    def result(self, state: dict) -> dict:
        return {name: scan.result(state[name]) for name, scan in self.scans.items()}


def run_scan(
    data: PrimeData | PrimeStream,
    scan: BlockScan,
    *,
    workers: int = 1,
    block_size: int = BLOCK_PRIMES,
    sink: RowSink | None = None,
    state: dict | None = None,
    on_block: Callable[[dict], None] | None = None,
    stop_after_blocks: int | None = None,
):
    """Fold a BlockScan over the prime blocks of ``data`` up to ``scan.limit``.

    Returns ``(state, finished)``; call ``scan.result(state)`` once
    finished.  ``finished`` means the blocks ran out, also when
    ``stop_after_blocks`` ends the fold on the last block.  Pass a
    previously checkpointed ``state`` to resume: the fold skips the
    blocks before ``state["block"]`` and reproduces the uninterrupted
    run bit for bit.  With a ``sink``, a fresh fold writes the scan's
    header and each block's rows.  ``on_block(state)`` runs after every
    block once the sink is synced, so it may commit the state with
    ``sink.offset``; without ``on_block`` nothing is synced.
    """
    if sink is not None and isinstance(scan, FusedScan):
        raise DomainError("a fused scan folds without a sink: its parts' rows "
                          "would interleave")
    if state is None:
        state = scan.start()
        state["block"] = 0
        header = scan.header()
        if sink is not None and header is not None:
            sink.write(header.encode("ascii"))
    # Each block is folded through its parts in turn; a plain scan is its
    # only part and owns the whole state (key None).
    parts = list(scan.scans.items()) if isinstance(scan, FusedScan) else [(None, scan)]
    first = state["block"]
    blocks = (
        block
        for block in data.blocks(limit=scan.limit, block_size=block_size)
        if block.index >= first
    )
    # A stop below one block still folds one, so a stopped run leaves a checkpoint.
    count = None if stop_after_blocks is None else max(stop_after_blocks, 1)
    steps = (
        (block, key, part)
        for block in islice(blocks, count)
        for key, part in parts
    )
    folded = ordered_map(lambda step: step[2].map_block(step[0]), steps, workers)
    for (block, key, part), payload in folded:
        rows = part.reduce(state if key is None else state[key], payload)
        if sink is not None and rows is not None:
            sink.write_rows(*rows)
        del payload, rows  # free them before the next part maps
        if key != parts[-1][0]:
            continue
        state["block"] = block.index + 1
        if on_block is not None:
            if sink is not None:
                sink.sync()
            on_block(state)
    # islice took exactly ``count`` blocks, so the next one, if any, is unread.
    return state, next(blocks, None) is None


def run_to_end(data: PrimeData | PrimeStream, scan: BlockScan, **kwargs):
    """Fold ``scan`` over every block with ``run_scan`` and return its result."""
    state, finished = run_scan(data, scan, **kwargs)
    if not finished:
        raise PrimeGapsError(
            f"scan {scan.name!r} stopped at block {state['block']} before the end"
        )
    return scan.result(state)
