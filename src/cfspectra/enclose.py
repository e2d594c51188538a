"""Log enclosures in integer fixed point, for diagnostics only: each log is an
atanh series summed with every rounding downward plus a proven error term
(Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 4)."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .intervals import FInterval


def _atanh(num: int, den: int, p: int) -> tuple[int, int]:
    """Bounds lo <= 2^p atanh(t) <= hi for t = num/den in [0, 1/3].

    With v_j = 2^p t^(2j+1), the powers p_0 = floor(2^p t) and
    p_{j+1} = floor(p_j floor(p_0^2 / 2^p) / 2^p) obey v_j - 2 < p_j <= v_j
    (by induction, since t^2 <= 1/9), so floor(p_j / (2j+1)) undershoots each
    term v_j / (2j+1) by less than 3. The sum stops at the first p_n = 0,
    where v_n < 2 and the tail t^(2n+1) / ((2n+1)(1 - t^2)) is below 3 units.
    Hence hi = lo + 3(n + 1), and n <= p/3 for p >= 28 because t <= 1/3.
    """
    term = (num << p) // den
    t2 = (term * term) >> p
    lo, n = 0, 0
    while term:
        lo += term // (2 * n + 1)
        term = (term * t2) >> p
        n += 1
    return lo, lo + 3 * (n + 1)


@cache
def _ln2(p: int) -> tuple[int, int]:
    lo, hi = _atanh(1, 3, p)
    return 2 * lo, 2 * hi


def _ln(q: Fraction, p: int) -> tuple[int, int]:
    """Bounds lo <= 2^p ln q <= hi for a positive rational q.

    q = m 2^k with m in [1, 2) from bit lengths, and
    ln q = k ln 2 + 2 atanh((m - 1)/(m + 1)). The enclosure is at most
    (|k| + 1)(6n + 6) units wide, n being the larger series length.
    """
    a, b = q.numerator, q.denominator
    k = a.bit_length() - b.bit_length()
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    if a < b:
        k -= 1
        a <<= 1
    lo, hi = _atanh(a - b, a + b, p)
    l2lo, l2hi = _ln2(p) if k >= 0 else _ln2(p)[::-1]
    return k * l2lo + 2 * lo, k * l2hi + 2 * hi


def _ln_interval(x, p: int) -> FInterval:
    lo, hi = (x.lo, x.hi) if isinstance(x, FInterval) else (Fraction(x),) * 2
    if lo <= 0:
        raise ValueError("arguments must be positive")
    return FInterval(Fraction(_ln(lo, p)[0]), Fraction(_ln(hi, p)[1]))


def log_ratio_enclosure(num, den, prec: int = 96) -> FInterval:
    """Enclosure of log(num)/log(den); num and den are positive rationals or
    FIntervals.

    Both logs are taken in units of 2^-(prec+32); each is within
    2^-(prec+21) (1 + |ln q|) of the truth for prec <= 400 (see `_ln`, with
    |k| + 1 <= 2 (1 + |ln q|) and n <= p/3). The quotient is exact interval
    division, so when |ln den| >= 2^-11 each end lies within
    2^-(prec+9) (1 + |r|) of the ratio r of its endpoints' true logs.
    """
    p = prec + 32
    return _ln_interval(num, p) / _ln_interval(den, p)
