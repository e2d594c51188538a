"""Shared exception types and the precision policy of every certified decision."""

from __future__ import annotations

PRECISION_CAP_BITS = 1 << 16  # bits; past this a decision is undecided (exit 2)


def precisions(start: int):
    """start, 2 start, 4 start, ... while at most the cap (read at each step)."""
    bits = start
    while bits <= PRECISION_CAP_BITS:
        yield bits
        bits *= 2


class PrecisionExhausted(RuntimeError):
    """A certified decision could not be reached within the precision cap;
    `enclosure` carries the tightest enclosure achieved (expand, L1 check)."""

    def __init__(self, message: str, enclosure=None):
        super().__init__(message)
        self.enclosure = enclosure
