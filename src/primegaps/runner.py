"""Deterministic block-fold driver for long scans.

A scan folds each block into a JSON-able state dict in an order-fixed
``reduce``.  ``run_scan`` asks ``reduce`` for the block's CSV rows, as
columns, only when it has a sink to write them to; without one a scan
may skip the lanes that cannot change its state.  A scan may also split
off a pure per-block ``map_block``, which ``run_scan`` runs on its
``workers`` threads ahead of the fold.  Only the Selberg scans keep one,
for their exact per-block sums; the fluctuation and fit scans do a
block's work in ``reduce``: their lane skips read the state there, and
their maps bought no time on two threads.  Because blocks are consumed
strictly in index order and all floating-point grouping is tied to the
fixed block size, a scan's output is byte-identical for any worker count
and across a checkpoint/resume cycle.  A ``FusedScan`` folds as any scan
does: its reduce maps and folds its parts in turn.

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
from .sieve import BLOCK_PRIMES, PrimeData, PrimeStream, check_workers, ordered_map


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
    """Interface for block-folded scans: subclasses fill in the hooks.
    ``map_block`` passes the block on to ``reduce`` unless overridden; only
    ``SelbergScan`` and ``PartialSumScan`` override it, as their per-block
    sums need no state.

    ``limit`` is the one place a scan's range is set: ``run_scan`` folds
    the blocks of the primes <= ``limit``.
    """

    name = "scan"
    limit: int

    def start(self) -> dict:
        raise NotImplementedError

    def map_block(self, block):
        return block

    def reduce(self, state: dict, payload, rows: bool = False) -> tuple | None:
        """Fold ``payload``, what ``map_block`` made of a block, into ``state``.
        With ``rows``, return the block's CSV rows as a tuple of 1-D columns,
        one per field of ``header()``, or None when it has none; without,
        return None."""
        raise NotImplementedError

    def result(self, state: dict):
        raise NotImplementedError

    def header(self) -> str | None:
        return None


class FusedScan(BlockScan):
    """Several scans folded in one pass over the blocks.

    Its map passes the block on and its reduce maps and folds it through
    the parts in turn, so each sees the blocks it would alone and its
    result is bit-identical to a separate run, while only one part's
    payload is alive at a time.  So there must be a part, and every part
    must end at the same ``limit``, which is the fused scan's.  The state
    is ``{name: sub_state}``: one state, one checkpoint.  The parts fold
    without rows, which would interleave: no ``header()``, no sink.
    """

    name = "fused"

    def __init__(self, scans: dict[str, BlockScan]):
        limits = {scan.limit for scan in scans.values()}
        if not limits:
            raise DomainError("a fused scan needs at least one part")
        if len(limits) > 1:
            raise DomainError(
                "fused scans must share one limit, got "
                + ", ".join(f"{name}={scan.limit}" for name, scan in scans.items())
            )
        self.scans = scans
        self.limit = limits.pop()

    def start(self) -> dict:
        return {name: scan.start() for name, scan in self.scans.items()}

    def reduce(self, state: dict, block, rows: bool = False) -> None:
        for name, scan in self.scans.items():
            scan.reduce(state[name], scan.map_block(block))

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
    header and each block's rows, which it asks of ``reduce``; without
    one it asks for none.  A scan without a ``header()``, such as a
    ``FusedScan``, writes no rows and is refused a sink.
    ``on_block(state)`` runs after every block once the sink is synced,
    so it may commit the state with ``sink.offset``; without
    ``on_block`` nothing is synced.
    """
    check_workers(workers)
    header = scan.header()
    if sink is not None and header is None:
        raise DomainError(f"the {scan.name} scan writes no rows, so it folds "
                          "without a sink")
    if state is None:
        state = scan.start()
        state["block"] = 0
        if sink is not None:
            sink.write(header.encode("ascii"))
    first = state["block"]
    blocks = (
        block
        for block in data.blocks(limit=scan.limit, block_size=block_size)
        if block.index >= first
    )
    # A stop below one block still folds one, so a stopped run leaves a checkpoint.
    count = None if stop_after_blocks is None else max(stop_after_blocks, 1)
    for block, payload in ordered_map(scan.map_block, islice(blocks, count), workers):
        rows = scan.reduce(state, payload, rows=sink is not None)
        if sink is not None and rows is not None:
            sink.write_rows(*rows)
        del payload, rows  # free them before the next block maps
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
