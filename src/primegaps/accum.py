"""Compensated and exact accumulation helpers.

Long scans add millions of floating-point terms and must produce
bit-identical results across runs, worker counts, and checkpoint
resumes.  The scheme used throughout the toolkit: per-block subtotals
are exactly rounded, order-independent sums (``math.fsum``, or
``fixed_sum`` for terms of at least 1/4 such as log^2 p), and the
running total is carried by a Neumaier accumulator whose (sum,
compensation) state is small enough to serialize into a checkpoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# A double of at least 2**-2 is a whole multiple of 2**-54, its last place.
FIXED_BITS = 54
_HALF_BITS = 27
_HALF_MASK = (1 << _HALF_BITS) - 1
_MAX_TERM = 2.0**31
_CHUNK = 1 << 16


class NeumaierSum:
    """Running compensated sum with serializable state."""

    __slots__ = ("total", "comp")

    def __init__(self, total: float = 0.0, comp: float = 0.0):
        self.total = total
        self.comp = comp

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.comp += (self.total - t) + value
        else:
            self.comp += (value - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.comp

    def state(self) -> list[float]:
        return [self.total, self.comp]

    @classmethod
    def from_state(cls, state) -> "NeumaierSum":
        return cls(float(state[0]), float(state[1]))


def block_sum(values) -> float:
    """Exactly rounded sum of one block of terms (wraps math.fsum)."""
    return math.fsum(values)


def _fixed_parts(terms: np.ndarray):
    """Each term t as int64 ``floor(t)`` and the high and low 27 bits of
    ``(t - floor t) * 2**54``; all three are exact for t in [1/4, 2**53).
    """
    whole = np.floor(terms)
    frac = ((terms - whole) * 2.0**FIXED_BITS).astype(np.int64)
    return whole.astype(np.int64), frac >> _HALF_BITS, frac & _HALF_MASK


def _bounded_parts(terms: np.ndarray):
    """``_fixed_parts`` of terms in [1/4, 2**31), so that 2**32 of them sum in int64."""
    if len(terms) and not (terms.min() >= 0.25 and terms.max() < _MAX_TERM):
        raise DomainError("exact sums need terms in [1/4, 2**31)")
    return _fixed_parts(terms)


def _units(whole: int, high: int, low: int) -> int:
    return (whole << FIXED_BITS) + (high << _HALF_BITS) + low


def fixed_units(terms: np.ndarray) -> int:
    """The exact sum of terms in [1/4, 2**31), in units of 2**-54.

    The parts of ``_fixed_parts`` are summed as int64, 65 536 terms at a
    time so that no sum can overflow, and meet in one Python int.
    """
    return sum(
        _units(*(int(part.sum()) for part in _bounded_parts(terms[i:i + _CHUNK])))
        for i in range(0, len(terms), _CHUNK)
    )


def fixed_prefix_units(terms: np.ndarray, cuts) -> list[int]:
    """``fixed_units(terms[:c])`` for each c in ``cuts``, from one running
    int64 sum per part (so at most 2**32 terms).
    """
    sums = [np.concatenate([[0], np.cumsum(part)])[cuts].tolist()
            for part in _bounded_parts(terms)]
    return [_units(*parts) for parts in zip(*sums)]


def fixed_column_units(n: int, pieces) -> list[int]:
    """Exact sums of ``n`` columns in units of 2**-54: each ``(at, terms)`` of
    ``pieces`` adds the column sums of the 2-D ``terms`` to columns ``at``,
    ``at + 1``, ....  A term is 0 or a double in [1/4, 2**53), so above the
    2**31 of ``fixed_units``: the caller keeps each column's sum of
    ``floor(t)`` below 2**63, which holds every int64 part exact.
    """
    parts = np.zeros((3, n), dtype=np.int64)
    for at, terms in pieces:
        for acc, part in zip(parts, _fixed_parts(terms)):
            acc[at:at + terms.shape[1]] += part.sum(axis=0)
    return [_units(*column) for column in parts.T.tolist()]


def fixed_value(units: int) -> float:
    """``units * 2**-54`` rounded to nearest, ties to even, as ``math.fsum`` rounds."""
    return units / (1 << FIXED_BITS)


def fixed_sum(terms: np.ndarray) -> float:
    """Exactly rounded sum of terms in [1/4, 2**31): the bits of ``math.fsum``."""
    return fixed_value(fixed_units(terms))
