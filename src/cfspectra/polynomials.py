"""Dense integer polynomials with the exact primitives needed for root isolation.

Coefficients are stored lowest degree first as plain Python ints, so all
arithmetic is arbitrary precision for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _times_linear(coeffs: list[int], a: int, b: int) -> list[int]:
    """coeffs * (a x + b), lowest degree first."""
    return [b * u + a * v for u, v in zip(coeffs + [0], [0] + coeffs)]


@dataclass(frozen=True)
class IntPolynomial:
    """Primitive integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "IntPolynomial":
        c = _strip([int(x) for x in coeffs])
        if not c:
            raise ValueError("degenerate input: zero polynomial")
        return IntPolynomial(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, q: Fraction) -> int:
        """Exact sign of p(q) for a rational point, integer arithmetic only."""
        u, v = q.numerator, q.denominator
        d = self.degree
        acc = 0
        vp = 1
        for i in range(d, -1, -1):
            acc = acc * u + self.coeffs[i] * vp
            if i > 0:
                vp *= v
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(_strip([i * c for i, c in enumerate(self.coeffs)][1:]) or (0,))

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        if g <= 1:
            p = self
        else:
            p = IntPolynomial(tuple(c // g for c in self.coeffs))
        if p.leading < 0:
            p = IntPolynomial(tuple(-c for c in p.coeffs))
        return p

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def moebius(self, a: int, b: int, c: int, d: int) -> "IntPolynomial":
        """Sum of c_i (a x + b)^i (c x + d)^(deg - i), that is
        (c x + d)^deg p((a x + b)/(c x + d)), by homogeneous Horner."""
        acc = [self.coeffs[-1]]
        power = [1]  # (c x + d)^k after k steps
        for ci in reversed(self.coeffs[:-1]):
            acc = _times_linear(acc, a, b)
            power = _times_linear(power, c, d)
            if ci:
                for j, pj in enumerate(power):
                    acc[j] += ci * pj
        return IntPolynomial(_strip(acc) or (0,))


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A pseudo-remainder of a by nonzero b over Z: a nonzero integer multiple
    of the remainder over Q (lists lowest degree first)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr, shift = r[-1], len(r) - 1 - db
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= lr * c
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z by the primitive pseudo-remainder sequence (Knuth,
    TAOCP vol. 2, 4.6.1; Collins, J. ACM 1967)."""
    if not any(p.coeffs):
        return q.primitive()
    if not any(q.coeffs):
        return p.primitive()
    a, b = p, q
    while True:
        r = _prem(a.coeffs, b.coeffs)
        if not r:
            return b.primitive()
        a, b = b, IntPolynomial(r).primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors removed (p / gcd(p, p')).

    The gcd is primitive, so by Gauss's lemma the quotient is integral and
    long division over Z is exact.
    """
    if p.degree == 0:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    rem = list(p.coeffs)
    quot = [0] * (p.degree - g.degree + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[shift + g.degree], g.leading)
        if r:
            raise ValueError("division is not exact")
        quot[shift] = c
        for i, gc in enumerate(g.coeffs):
            rem[shift + i] -= c * gc
    if any(rem):
        raise ValueError("division is not exact")
    return IntPolynomial(tuple(quot)).primitive()


def sign_variations(coeffs) -> int:
    count = 0
    prev = 0
    for c in coeffs:
        s = (c > 0) - (c < 0)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def isolating_intervals(p: IntPolynomial, a: Fraction, b: Fraction):
    """Yield disjoint subintervals of (a, b), each holding exactly one root of
    squarefree p, covering every root in (a, b); a and b must not be roots.

    Descartes counts drive the bisection; a count of 0 or 1 is exact.
    Endpoints are carried as integer numerators over a common denominator.
    """
    den = a.denominator * b.denominator
    stack = [(a.numerator * b.denominator, b.numerator * a.denominator, den)]
    while stack:
        lo, hi, den = stack.pop()
        # the roots in (lo, hi)/den are the positive roots of
        # p((hi*x + lo) / (den*(x + 1)))
        v = sign_variations(p.moebius(hi, lo, den, den).coeffs)
        if v == 0:
            continue
        if v == 1:
            yield Fraction(lo, den), Fraction(hi, den)
            continue
        lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
        if p.sign_at(Fraction(mid, den)) == 0:
            # split just past the exact root so both halves keep non-root
            # endpoints: try mid + (hi - lo)/4, halving the step on a root
            delta = hi - lo
            lo, mid, hi, den = 4 * lo, 4 * mid, 4 * hi, 4 * den
            while p.sign_at(Fraction(mid + delta, den)) == 0:
                lo, mid, hi, den = 2 * lo, 2 * mid, 2 * hi, 2 * den
            mid += delta
        stack.append((lo, mid, den))
        stack.append((mid, hi, den))


def count_roots_in(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Exact number of roots of squarefree p in the open interval (a, b).

    Endpoints must not be roots.
    """
    if p.sign_at(a) == 0 or p.sign_at(b) == 0:
        raise ValueError("endpoint is a root")
    return sum(1 for _ in isolating_intervals(p, a, b))
