"""Real algebraic numbers as squarefree integer polynomials plus certified
dyadic isolating intervals.

All decisions (signs, floors, comparisons) reduce to exact integer sign tests
on the minimal polynomial at dyadic points; nothing here depends on floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import PrecisionExhausted, precisions
from .intervals import FInterval
from .matrices import Mat2
from .polynomials import (
    IntPolynomial,
    count_roots_in,
    isolating_intervals,
    poly_gcd,
    squarefree_part,
)

# refinements gaining fewer bits than this bisect: Newton's fixed cost of a
# few evaluations plus two exact sign tests only pays off on larger gains
NEWTON_MIN_GAIN = 48


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _dyadic_sign(coeffs: tuple[int, ...], m: int, e: int) -> int:
    """Exact sign of p(m / 2^e), integer arithmetic only."""
    acc = 0
    pw = 1
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * m + coeffs[i] * pw
        if i > 0:
            pw <<= e
    return (acc > 0) - (acc < 0)


def _fixed_value_slope(coeffs: tuple[int, ...], x: int, prec: int) -> tuple[int, int]:
    """p(x / 2^prec) and p'(x / 2^prec), both scaled by 2^prec and truncated."""
    f = df = 0
    for c in reversed(coeffs):
        df = ((df * x) >> prec) + f
        f = ((f * x) >> prec) + (c << prec)
    return f, df


def _newton_cell(
    coeffs: tuple[int, ...], ulo: int, width: int, e: int, k: int, sign_lo: int
) -> int | None:
    """Index j of the cell [ulo 2^k + j width, ulo 2^k + (j+1) width] / 2^(e+k)
    holding the root in [ulo, ulo + width] / 2^e, or None when not certified.

    Fixed-point Newton at doubling precision finds the cell; exact signs at
    both cell ends certify it. sign_lo is the sign of p at the lower end.
    """
    wb = e - width.bit_length()  # the interval's width is about 2^-wb
    target = e + k + 16  # 16 guard bits below the cell width
    prec = max(e, wb + 64)
    # Newton kept inside the bracket [a, b] of the root: a step leaving it
    # bisects it instead. A step below the square root of the precision means
    # x is correct to nearly the full precision, which then nearly doubles.
    a, b = ulo << (prec - e), (ulo + width) << (prec - e)
    x = (a + b) >> 1
    for _ in range(256):
        f, df = _fixed_value_slope(coeffs, x, prec)
        if not df:
            return None
        nxt = x - (f << prec) // df
        if abs(nxt - x) > 1 << ((prec - wb) >> 1):
            # a long step: f is far above rounding noise, so its sign tells
            # which side of the root x is on
            if ((f > 0) - (f < 0)) == sign_lo:
                a = x
            else:
                b = x
            x = nxt if a < nxt < b else (a + b) >> 1
        elif prec < target:
            q = min(target, 2 * prec - wb - 32)
            x, a, b = nxt << (q - prec), a << (q - prec), b << (q - prec)
            prec = q
        else:
            x = nxt
            break
    else:
        return None
    j = ((x >> (prec - e - k)) - (ulo << k)) // width
    if not 0 <= j < 1 << k:
        return None
    left = (ulo << k) + j * width
    if _dyadic_sign(coeffs, left, e + k) != sign_lo:
        return None
    if _dyadic_sign(coeffs, left + width, e + k) != -sign_lo:
        return None
    return j


@dataclass
class DyadicInterval:
    """[lo, hi] with dyadic rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.lo = Fraction(self.lo)
        self.hi = Fraction(self.hi)
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        if not (_is_dyadic(self.lo) and _is_dyadic(self.hi)):
            raise ValueError("endpoints must be dyadic rationals")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_finterval(self) -> FInterval:
        return FInterval(self.lo, self.hi)


class AlgebraicNumber:
    """The unique real root of `minpoly` inside `isolating`."""

    def __init__(self, minpoly: IntPolynomial, isolating: DyadicInterval):
        self.minpoly = minpoly
        self.isolating = isolating
        self._sign_lo: int | None = None

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def __repr__(self):
        return (
            f"AlgebraicNumber({list(self.minpoly.coeffs)}, "
            f"[{self.isolating.lo}, {self.isolating.hi}])"
        )

    @staticmethod
    def from_rational(q) -> "AlgebraicNumber":
        q = Fraction(q)
        p = IntPolynomial.from_coeffs([-q.numerator, q.denominator])
        if _is_dyadic(q):
            return AlgebraicNumber(p, DyadicInterval(q, q))
        scale = 1 << 32
        lo = Fraction(floor(q * scale), scale)
        return AlgebraicNumber(p, DyadicInterval(lo, lo + Fraction(1, scale)))

    def is_degenerate(self) -> bool:
        return self.isolating.lo == self.isolating.hi

    def rational_value(self) -> Fraction | None:
        """The exact value when this number is certifiably rational."""
        if self.is_degenerate():
            return self.isolating.lo
        if self.degree == 1:
            c0, c1 = self.minpoly.coeffs
            return Fraction(-c0, c1)
        return None

    def _endpoint_sign(self) -> int:
        if self._sign_lo is None:
            self._sign_lo = self.minpoly.sign_at(self.isolating.lo)
        return self._sign_lo

    def refine_to(self, bits: int) -> DyadicInterval:
        """Shrink the isolating interval to width <= 2^-bits.

        The result is the cell of the interval's halving grid, at the first
        level fine enough, that holds the root: exactly what one-bit-at-a-time
        bisection reaches, so enclosures do not depend on how the cell was
        found. A root on a grid point ends as that single point. Large gains
        locate the cell by Newton and certify it by two exact sign tests;
        small gains, and cells the sign tests reject, bisect.
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        rat = self.rational_value()
        if rat is not None:
            if _is_dyadic(rat):
                if not self.is_degenerate():  # keep the object: callers key caches by it
                    self.isolating = DyadicInterval(rat, rat)
                return self.isolating
        if self.isolating.width <= Fraction(1, 1 << bits):
            return self.isolating
        sign_lo = self._endpoint_sign()
        lo, hi = self.isolating.lo, self.isolating.hi
        e = max(lo.denominator.bit_length(), hi.denominator.bit_length()) - 1
        ulo = lo.numerator << (e - (lo.denominator.bit_length() - 1))
        uhi = hi.numerator << (e - (hi.denominator.bit_length() - 1))
        coeffs = self.minpoly.coeffs
        width = uhi - ulo  # constant in units of the current grid level
        k = ((width << bits) - 1).bit_length() - e  # levels to descend, >= 1
        j = _newton_cell(coeffs, ulo, width, e, k, sign_lo) if k >= NEWTON_MIN_GAIN else None
        if j is not None:
            ulo = (ulo << k) + j * width
            uhi = ulo + width
            e += k
        else:
            for _ in range(k):
                m = ulo + uhi  # midpoint mantissa at exponent e+1
                e += 1
                s = _dyadic_sign(coeffs, m, e)
                if s == 0:
                    ulo = uhi = m  # the root is exactly dyadic
                    break
                if s == sign_lo:
                    ulo, uhi = m, uhi << 1
                else:
                    ulo, uhi = ulo << 1, m
        self.isolating = DyadicInterval(Fraction(ulo, 1 << e), Fraction(uhi, 1 << e))
        self._sign_lo = sign_lo if ulo != uhi else None
        return self.isolating

    def value_interval(self, bits: int) -> FInterval:
        self.refine_to(bits)
        return self.isolating.as_finterval()

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return alg_equal(self, other)

    __hash__ = None


def isolate_real_roots(p) -> list[AlgebraicNumber]:
    """All real roots of p, ascending, with disjoint dyadic isolating intervals.

    Descartes counts on the squarefree part drive the bisection; a count of
    0 or 1 is exact, so every returned interval is certified.
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial.from_coeffs(p)
    if p.is_zero():
        raise ValueError("degenerate input: zero polynomial")
    p = squarefree_part(p)
    if p.degree == 0:
        return []
    if p.degree == 1:
        c0, c1 = p.coeffs
        return [AlgebraicNumber.from_rational(Fraction(-c0, c1))]
    bound = 2 + max(abs(c) for c in p.coeffs[:-1]) // abs(p.leading)
    big = Fraction(1 << bound.bit_length())
    intervals = sorted(isolating_intervals(p, -big, big))
    return [AlgebraicNumber(p, DyadicInterval(lo, hi)) for lo, hi in intervals]


def moebius_minpoly(m: Mat2, p: IntPolynomial) -> IntPolynomial:
    """Squarefree polynomial vanishing at (a x + b)/(c x + d) for roots x of p."""
    # x = (d y - b)/(a - c y) is the inverse map
    return squarefree_part(p.moebius(m.d, -m.b, -m.c, m.a))


def moebius_apply(m, x: AlgebraicNumber) -> AlgebraicNumber:
    """Image of x under the fractional linear map (a x + b)/(c x + d)."""
    if not isinstance(m, Mat2):
        m = Mat2(*m)
    if abs(m.det()) != 1:
        raise ValueError("matrix determinant must be +-1")
    rat = x.rational_value()
    if rat is not None:
        den = m.c * rat + m.d
        if den == 0:
            raise ZeroDivisionError("pole: c*x + d = 0")
        return AlgebraicNumber.from_rational((m.a * rat + m.b) / den)
    q = moebius_minpoly(m, x.minpoly)
    for work in precisions(64):
        iv = x.value_interval(work)
        if x.rational_value() is not None:
            return moebius_apply(m, x)  # refinement landed exactly on a dyadic root
        den_iv = m.c * iv + Fraction(m.d)
        if den_iv.contains_zero():
            continue
        img = (m.a * iv + Fraction(m.b)) / den_iv
        scale = 1 << (work + 8)
        dlo = Fraction(floor(img.lo * scale), scale)
        dhi = Fraction(-floor(-img.hi * scale), scale)
        if q.sign_at(dlo) != 0 and q.sign_at(dhi) != 0:
            if count_roots_in(q, dlo, dhi) == 1:
                return AlgebraicNumber(q, DyadicInterval(dlo, dhi))
    raise PrecisionExhausted("failed to isolate Moebius image")


def _above_vertex(x: AlgebraicNumber) -> bool:
    """Whether x is the larger root of its quadratic minimal polynomial. The
    vertex -b/(2a) lies strictly between the roots and is none of them, so an
    interval holding it has no root from its lower end to the vertex exactly
    when x lies above."""
    _, b, a = x.minpoly.coeffs
    vertex = Fraction(-b, 2 * a)
    if x.isolating.lo <= vertex <= x.isolating.hi:
        return x.minpoly.sign_at(vertex) == x.minpoly.sign_at(x.isolating.lo)
    return x.isolating.lo > vertex


def quadratic_conjugate(x: AlgebraicNumber) -> AlgebraicNumber:
    """The other root of x's quadratic minimal polynomial; nothing is refined."""
    if x.degree != 2:
        raise ValueError("conjugate defined only for quadratics")
    roots = isolate_real_roots(x.minpoly)
    if len(roots) != 2:
        raise ValueError("polynomial has no real conjugate pair")
    return roots[0] if _above_vertex(x) else roots[1]


def _equals_rational(x: AlgebraicNumber, r: Fraction) -> bool:
    # the isolating interval holds exactly one root of minpoly, so a rational
    # root of minpoly inside the interval is x itself
    if x.minpoly.sign_at(r) != 0:
        return False
    return x.isolating.lo <= r <= x.isolating.hi


def alg_equal(x: AlgebraicNumber, y: AlgebraicNumber) -> bool:
    """Exact equality via common squarefree factor plus interval separation."""
    rx, ry = x.rational_value(), y.rational_value()
    if rx is not None and ry is not None:
        return rx == ry
    if rx is not None:
        return _equals_rational(y, rx)
    if ry is not None:
        return _equals_rational(x, ry)
    g = poly_gcd(x.minpoly, y.minpoly)
    if g.degree == 0:
        return False
    for bits in precisions(16):
        ix = x.value_interval(bits)
        iy = y.value_interval(bits)
        if x.is_degenerate() or y.is_degenerate():
            return alg_equal(x, y)  # rationality discovered during refinement
        if ix.hi < iy.lo or iy.hi < ix.lo:
            return False
        # interval endpoints are never roots for a non-degenerate interval
        cx = count_roots_in(g, ix.lo, ix.hi)
        cy = count_roots_in(g, iy.lo, iy.hi)
        if cx == 0 or cy == 0:
            return False
        lo, hi = min(ix.lo, iy.lo), max(ix.hi, iy.hi)
        if count_roots_in(g, lo, hi) == 1:
            return True
    raise PrecisionExhausted("equality test did not converge")
