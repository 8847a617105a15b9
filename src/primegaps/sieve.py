"""Segmented prime sieve, prime-counting lookups and prime blocks.

The sieve works on odd integers only, one segment of ``segment_size``
integers at a time.  A segment's mask starts from the pattern the wheel
primes 3, 5, 7, 11 and 13 leave (one period is 15 015 odd numbers,
crossed off in place and doubled over the segment).  The start offsets of
all the other base primes are computed in one numpy expression; primes
below 1/64 of the segment's odd count clear their multiples with one
strided slice each, and all larger ones with a single scatter whose
indices are built by one cumulative sum.  The primes are read off with
``np.flatnonzero`` from the mask's two classes of positions prime to 3,
laid side by side, not from the whole mask: that array stays above the
10% density below which numpy's ``nonzero`` takes a slower loop, and it
gives the same primes (see ``_sieve_odd_segment``).  Nothing is kept
between segments, so segments can be produced by a thread pool;
consumers always see them in ascending order, so every downstream
accumulation is deterministic regardless of the worker count.

Blocks of primes come from one of two sources with the same
``blocks(limit=, block_size=)``: ``PrimeData`` holds the whole table
and answers ``pi``/``nth``/``cumlog`` lookups for the table-backed
library calls; ``PrimeStream`` sieves as the blocks are consumed and
holds about one block and one segment, and every CLI command folds over
it.  ``PrimeStream`` when it is built, and ``primes_up_to`` and
``prime_count`` when called, refuse a limit, segment size or worker
count no sieve can take; only a held table is checked against the fixed
``MEMORY_BUDGET``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from .errors import DomainError, RangeLimitError, ResourceLimitError

DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_LIMIT = 2**63
MEMORY_BUDGET = 6 << 30  # bytes of prime table; generous for desk-scale scans

# Primes per block handed to scan folds.  Fixed: block boundaries take
# part in the compensated-summation grouping, so changing this constant
# changes low-order bits of scan outputs.
BLOCK_PRIMES = 1 << 15


def _check_sieve(limit: int, segment_size: int, workers: int) -> None:
    """Refuse a sieve run no segment loop can take.

    Output is a pure function of ``limit``; ``segment_size`` and
    ``workers`` only affect how the work is scheduled.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise DomainError(f"sieve limit {limit} exceeds the 64-bit cap 2**63")
    if segment_size < 64:
        raise DomainError(f"segment_size must be >= 64, got {segment_size}")
    check_workers(workers)


def check_workers(workers: int) -> None:
    """Refuse a thread count below one, which no loop can run on."""
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")


def estimate_prime_bytes(limit: int) -> int:
    """Rough upper bound on the bytes needed to hold all primes <= limit."""
    if limit < 10:
        return 64
    count = int(1.3 * limit / math.log(limit)) + 16
    return 8 * count


def check_budget(limit: int) -> None:
    need = estimate_prime_bytes(limit)
    if need > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"sieving to {limit} needs an estimated {need} bytes of prime "
            f"storage, above the configured memory budget of {MEMORY_BUDGET} bytes"
        )


# Odd primes whose multiples the mask starts without; their product is
# the period of that pattern in odd positions.
_WHEEL = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL)


def _base_primes(limit: int) -> np.ndarray:
    """Dense sieve for the sqrt-range base primes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _sieve_odd_segment(lo: int, hi: int, odd_bases: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) for odd lo >= 3, via the precomputed odd base primes.

    Position i of the mask stands for the odd number lo + 2i.  The only
    set position whose number is a multiple of 3 is that of 3 itself, so
    the two classes of i whose numbers are prime to 3, a and b, are laid
    side by side in a (rows, 2) array, whose flat index k stands for
    position (k >> 1) * 3 + a + (k & 1) * (b - a), and 3 is put back.  The
    array holds the mask's set ones in a third fewer bytes, which keeps it
    above numpy's 10% density switch: below that, as the mask is past
    about 4.85e8, ``nonzero`` takes a branchy loop at about twice the time.
    """
    count = (hi - lo + 1) // 2
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    mask = _wheel_mask(lo, hi, count)
    _cross_off(mask, lo, hi, odd_bases)
    a, b = (r for r in range(3) if r != (-2 * lo) % 3)
    pairs = np.empty(((count - a + 2) // 3, 2), dtype=bool)
    pairs[:, 0] = mask[a::3]
    rows_b = (count - b + 2) // 3
    pairs[:rows_b, 1] = mask[b::3]
    pairs[rows_b:, 1] = False
    # Each array is freed once read, so the peak stays below two masks.
    mask = None
    k = np.flatnonzero(pairs)
    pairs = None
    primes = k >> 1
    primes *= 6
    k &= 1
    k *= 2 * (b - a)
    primes += k
    k = None
    primes += lo + 2 * a
    if lo == 3:
        primes = np.concatenate(([3], primes))
    return primes


def _wheel_mask(lo: int, hi: int, count: int) -> np.ndarray:
    """The odd numbers in [lo, hi) prime to the wheel primes, as a mask.

    The first wheel period is crossed off directly and then doubled over
    the rest; nothing is kept between calls.
    """
    mask = np.empty(count, dtype=bool)
    filled = min(count, _WHEEL_PERIOD)
    mask[:filled] = True
    for q in _WHEEL:
        mask[(q - lo) % (2 * q) // 2 : filled : q] = False
    while filled < count:
        step = min(filled, count - filled)
        mask[filled : filled + step] = mask[:step]
        filled += step
    for q in _WHEEL:
        if lo <= q < hi:
            mask[(q - lo) // 2] = True
    return mask


def _cross_off(mask: np.ndarray, lo: int, hi: int, odd_bases: np.ndarray) -> None:
    """Clear the odd multiples of every base prime above the wheel.

    Each p with p * p < hi crosses off from max(p * p, its first odd
    multiple >= lo).  Primes below ``count // 64`` take one strided slice
    each; the rest are crossed off by one scatter.
    """
    count = len(mask)
    first = int(np.searchsorted(odd_bases, _WHEEL[-1], side="right"))
    top = int(np.searchsorted(odd_bases, math.isqrt(hi - 1), side="right"))
    ps = odd_bases[first:top]
    if not len(ps):
        return
    starts = ps - lo
    starts %= 2 * ps
    starts >>= 1
    if int(ps[-1]) ** 2 > lo:
        np.maximum(starts, (ps * ps - lo) >> 1, out=starts)
    small = int(np.searchsorted(ps, count // 64))
    for p, start in zip(ps[:small].tolist(), starts[:small].tolist()):
        mask[start::p] = False
    ps, starts = ps[small:], starts[small:]
    hits = count - 1 - starts
    hits //= ps
    hits += 1
    if not hits.all():
        keep = hits > 0
        ps, starts, hits = ps[keep], starts[keep], hits[keep]
    if not len(ps):
        return
    # The positions of all the primes laid end to end: each prime's run
    # repeats p as the step, its first entry is patched to step from the
    # previous run's last position to its own start, and one cumulative
    # sum turns the steps into positions.  A prime above count hits once,
    # so its step, which may not fit the narrower type, is patched over.
    steps = np.repeat(ps.astype(np.int32 if count < 2**31 else np.int64), hits)
    last = hits - 1
    last *= ps
    last += starts
    starts[1:] -= last[:-1]
    runs = np.cumsum(hits)
    runs -= hits
    steps[runs] = starts
    np.cumsum(steps, out=steps)
    mask[steps] = False


def ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator[tuple]:
    """Map fn over items, yielding ``(item, fn(item))`` in input order.

    ``items`` is iterated once, lazily, so it may be a generator.  With
    workers > 1 a window of ``workers + 2`` futures keeps the pool busy:
    when item i is yielded, no item past i + workers + 1 has been taken.
    """
    items = iter(items)
    if workers <= 1:
        for item in items:
            yield item, fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(
            (item, pool.submit(fn, item)) for item in islice(items, workers + 1)
        )
        for item in items:
            pending.append((item, pool.submit(fn, item)))
            head, future = pending.popleft()
            yield head, future.result()
        for head, future in pending:
            yield head, future.result()


def iter_segments(limit: int, segment_size: int, workers: int) -> Iterator[np.ndarray]:
    """Yield arrays of primes per segment, in ascending order, for a
    limit, segment size and worker count ``_check_sieve`` accepts.

    With ``workers > 1`` segments are sieved concurrently but released
    strictly in order, so consumers observe the same stream for any
    worker count.
    """
    bases = _base_primes(math.isqrt(limit))
    odd_bases = bases[1:] if len(bases) > 0 else bases

    # With an odd segment size every other span starts on an even number,
    # which is never prime here: the kernel starts at the odd one after it.
    spans = (
        (lo | 1, min(lo + segment_size, limit + 1))
        for lo in range(3, limit + 1, segment_size)
    )

    yield np.array([2], dtype=np.int64)
    for _, primes in ordered_map(
        lambda span: _sieve_odd_segment(*span, odd_bases), spans, workers
    ):
        yield primes


def primes_up_to(
    x: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> np.ndarray:
    """All primes <= x in ascending order (empty array for x < 2).

    The whole table is held, so its estimated size must fit ``MEMORY_BUDGET``.
    """
    if x < 0:
        raise DomainError(f"primes_up_to requires x >= 0, got {x}")
    if x < 2:
        return np.empty(0, dtype=np.int64)
    _check_sieve(x, segment_size, workers)
    check_budget(x)
    return np.concatenate(list(iter_segments(x, segment_size, workers)))


def prime_count(
    x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE, workers: int = 1
) -> int:
    """pi(x): the number of primes <= x.

    The segments are counted as they are sieved and none is kept, so, as
    with ``PrimeStream``, no memory budget applies.
    """
    if x < 0:
        raise DomainError(f"prime_count requires x >= 0, got {x}")
    if x < 2:
        return 0
    _check_sieve(x, segment_size, workers)
    return sum(len(s) for s in iter_segments(x, segment_size, workers))


def nth_prime(n: int, **kwargs) -> int:
    """The n-th prime, p_1 = 2."""
    if n < 1:
        raise DomainError(f"nth_prime requires n >= 1, got {n}")
    if n < 6:
        return (2, 3, 5, 7, 11)[n - 1]
    # Rosser's bound: p_n < n (log n + log log n) for n >= 6.
    bound = int(n * (math.log(n) + math.log(math.log(n)))) + 16
    primes = primes_up_to(bound, **kwargs)
    return int(primes[n - 1])


@dataclass(frozen=True)
class PrimeBlock:
    """One slice of the prime stream handed to a scan fold.

    ``n0`` is the 1-based index of the first prime; ``succ`` is the
    prime immediately after the block (None only at the end of data),
    carried so gap- and derivative-style folds can stitch across the
    block boundary.  A block does not know where its range ends: the
    source cuts the blocks at the ``limit`` it is asked for, which
    ``run_scan`` takes from the scan.

    ``column`` builds a derived column once per block, for every scan
    that maps the block, also from several threads at once.  A builder
    may itself ask for another column of the same block.
    """

    index: int
    n0: int
    primes: np.ndarray
    succ: int | None
    _columns: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # Reentrant, so that a builder's own column() call does not wait on
    # the lock its caller holds.
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False,
                                   repr=False, compare=False)

    def column(self, key: Hashable, build: Callable[[], object]):
        """``build()`` on the first call for ``key``; the same object after.

        Callers share the result, so they must not modify it.
        """
        with self._lock:
            if key not in self._columns:
                self._columns[key] = build()
            return self._columns[key]


def _cut_blocks(
    primes: np.ndarray,
    count: int,
    block_size: int,
    first_index: int = 0,
    succ: int | None = None,
) -> Iterator[PrimeBlock]:
    """PrimeBlocks over ``primes[:count]``, numbered from ``first_index``.

    A block's ``succ`` is the prime after it in ``primes``, or ``succ``
    past the end of the array.
    """
    for start in range(0, count, block_size):
        stop = min(start + block_size, count)
        index = first_index + start // block_size
        yield PrimeBlock(index, index * block_size + 1, primes[start:stop],
                         int(primes[stop]) if stop < len(primes) else succ)


class PrimeData:
    """Primes up to a limit with index/count lookups and block iteration."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        self._cumlog = None

    @classmethod
    def build(
        cls,
        limit: int,
        *,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        workers: int = 1,
    ) -> "PrimeData":
        return cls(limit, primes_up_to(limit, segment_size=segment_size,
                                       workers=workers))

    def pi(self, x: int) -> int:
        """pi(x) for any 0 <= x <= limit."""
        if x > self.limit:
            raise RangeLimitError(
                f"pi({x}) is beyond the sieved limit {self.limit}; "
                "build a larger table"
            )
        if x < 2:
            return 0
        return int(np.searchsorted(self.primes, x, side="right"))

    def nth(self, n: int) -> int:
        """The n-th prime of the sieved range."""
        if n < 1:
            raise DomainError(f"prime index must be >= 1, got {n}")
        if n > len(self.primes):
            raise RangeLimitError(
                f"prime index {n} is beyond the sieved range "
                f"(pi({self.limit}) = {len(self.primes)}); build a larger table"
            )
        return int(self.primes[n - 1])

    def cumlog(self) -> np.ndarray:
        """Prefix sums of log p over the prime list (built lazily)."""
        if self._cumlog is None:
            self._cumlog = np.cumsum(np.log(self.primes.astype(np.float64)))
        return self._cumlog

    def blocks(
        self, *, limit: int, block_size: int = BLOCK_PRIMES
    ) -> Iterator[PrimeBlock]:
        """Iterate PrimeBlocks over primes <= limit."""
        yield from _cut_blocks(self.primes, self.pi(limit), block_size)


class PrimeStream:
    """The primes up to ``limit`` as PrimeBlocks, sieved while they are folded.

    ``blocks`` yields the same blocks as ``PrimeData.blocks`` on the same
    primes, but only about one block and one sieve segment are alive at a
    time, so a fold over it needs no table and no memory budget.  Each
    call to ``blocks`` sieves afresh.
    """

    def __init__(
        self,
        limit: int,
        *,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        workers: int = 1,
    ):
        self.limit = int(limit)
        _check_sieve(self.limit, segment_size, workers)
        self.segment_size = segment_size
        self.workers = workers

    def blocks(
        self, *, limit: int, block_size: int = BLOCK_PRIMES
    ) -> Iterator[PrimeBlock]:
        """Iterate PrimeBlocks over primes <= limit.

        A block is yielded once the prime after it is known; that prime,
        the first one above ``limit`` or None at the end of the sieve, is
        the last block's ``succ``, as in ``PrimeData.blocks``.
        """
        if limit > self.limit:
            raise RangeLimitError(
                f"blocks up to {limit} are beyond the sieved limit {self.limit}"
            )
        index, pieces, held, succ = 0, [], 0, None
        for segment in iter_segments(self.limit, self.segment_size, self.workers):
            end = int(np.searchsorted(segment, limit, side="right"))
            pieces.append(segment[:end])
            held += end
            if end < len(segment):
                succ = int(segment[end])
                break
            if held > block_size:
                run = np.concatenate(pieces)
                whole = (len(run) - 1) // block_size * block_size
                # Only ``run`` is kept while its blocks are folded: the
                # segment and the last run it was joined from are freed.
                pieces, held, segment = [run[whole:]], len(run) - whole, None
                yield from _cut_blocks(run, whole, block_size, index)
                index += whole // block_size
        run = np.concatenate(pieces)
        pieces = segment = None
        yield from _cut_blocks(run, len(run), block_size, index, succ)
