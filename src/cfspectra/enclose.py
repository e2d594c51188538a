"""Transcendental enclosures (logs) bridged through mpmath interval arithmetic.

Only diagnostics flow through here; all theorem checks stay in exact integer
or rational arithmetic. mpmath is imported on the first enclosure, not with
the package, and works in a private interval context: mpmath's global
`iv.prec` is never touched.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .intervals import FInterval


@cache
def _context():
    from mpmath.ctx_iv import MPIntervalContext

    return MPIntervalContext()


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0:
        return Fraction(0)
    val = Fraction(man) * (Fraction(2) ** exp)
    return -val if sign else val


def _to_iv(iv, x):
    if isinstance(x, FInterval):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = Fraction(x)
    a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([a.a, b.b])


def _from_iv(v) -> FInterval:
    a, b = v._mpi_
    return FInterval(_raw_to_fraction(a), _raw_to_fraction(b))


def log_ratio_enclosure(num, den, prec: int = 96) -> FInterval:
    """Enclosure of log(num)/log(den); both arguments positive."""
    iv = _context()
    iv.prec = prec
    n = _to_iv(iv, num)
    d = _to_iv(iv, den)
    if n.a <= 0 or d.a <= 0:
        raise ValueError("arguments must be positive")
    return _from_iv(iv.log(n) / iv.log(d))
