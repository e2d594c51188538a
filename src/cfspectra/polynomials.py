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

    def shift_taylor(self, a: int) -> "IntPolynomial":
        """p(x + a) by repeated synthetic division; exact for integer a."""
        c = list(self.coeffs)
        n = len(c)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return IntPolynomial(tuple(c))

    def reverse(self) -> "IntPolynomial":
        """x^deg * p(1/x); trailing zeros of p become leading and are stripped."""
        return IntPolynomial(_strip(list(reversed(self.coeffs))) or (0,))

    def mul(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(_strip(out) or (0,))


def _divmod_q(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomial division over Q (lists lowest first)."""
    rem = num[:]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = rem[shift + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[shift + i] -= quot[shift] * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _primitive_from_q(coeffs: list[Fraction]) -> IntPolynomial:
    """Clear denominators and take the primitive part."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return IntPolynomial(_strip([int(c * den) for c in coeffs]) or (0,)).primitive()


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z via the Euclidean algorithm over Q."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    if not any(a):
        return q.primitive()
    if not any(b):
        return p.primitive()
    while True:
        _, r = _divmod_q(a, b)
        if not r:
            break
        a, b = b, r
    return _primitive_from_q(b)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors removed (p / gcd(p, p'))."""
    if p.degree == 0:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    quot, rem = _divmod_q([Fraction(c) for c in p.coeffs], [Fraction(c) for c in g.coeffs])
    if rem:
        raise ValueError("division is not exact")
    return _primitive_from_q(quot)


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


def transform_to_unit(p: IntPolynomial, a: Fraction, b: Fraction) -> IntPolynomial:
    """Integer polynomial whose roots in (0,1) correspond to roots of p in (a,b)."""
    # substitute x -> a + (b-a) x and clear denominators
    d = p.degree
    u, v = a.numerator, a.denominator
    w = b - a
    wu, wv = w.numerator, w.denominator
    den = v * wv
    # p(a + w x) * den^d: expand via Horner in the new variable
    # coefficients are Fractions first, then cleared (den is the common denominator)
    acc = [Fraction(p.coeffs[d])]
    for i in range(d - 1, -1, -1):
        # acc = acc * (a + w x) + c_i
        new = [Fraction(0)] * (len(acc) + 1)
        for j, c in enumerate(acc):
            new[j] += c * a
            new[j + 1] += c * w
        new[0] += p.coeffs[i]
        acc = new
    common = 1
    for c in acc:
        common = common * c.denominator // gcd(common, c.denominator)
    return IntPolynomial(_strip([int(c * common) for c in acc]) or (0,))


def isolating_intervals(p: IntPolynomial, a: Fraction, b: Fraction):
    """Yield disjoint subintervals of (a, b), each holding exactly one root of
    squarefree p, covering every root in (a, b); a and b must not be roots.

    Descartes counts drive the bisection; a count of 0 or 1 is exact.
    """
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        v = sign_variations(transform_to_unit(p, lo, hi).reverse().shift_taylor(1).coeffs)
        if v == 0:
            continue
        if v == 1:
            yield lo, hi
            continue
        mid = (lo + hi) / 2
        if p.sign_at(mid) == 0:
            # split just past the exact root so both halves keep non-root endpoints
            delta = (hi - lo) / 4
            while p.sign_at(mid + delta) == 0:
                delta /= 2
            mid = mid + delta
        stack.append((lo, mid))
        stack.append((mid, hi))


def count_roots_in(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Exact number of roots of squarefree p in the open interval (a, b).

    Endpoints must not be roots.
    """
    if p.sign_at(a) == 0 or p.sign_at(b) == 0:
        raise ValueError("endpoint is a root")
    return sum(1 for _ in isolating_intervals(p, a, b))
