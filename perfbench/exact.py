"""Independent exact arithmetic for the benchmark's oracle and generators.

Nothing here imports cfspectra: polynomials are plain coefficient lists
(constant term first), roots are located with Sturm sequences, and continued
fractions come from Euclid on dyadic enclosures (Lehmer's criterion).
"""

from __future__ import annotations

from fractions import Fraction


def eval_scaled(coeffs, p: int, q: int) -> int:
    """q^deg * P(p/q) in exact integers (Horner)."""
    d = len(coeffs) - 1
    acc = 0
    qp = 1
    for i in range(d, -1, -1):
        acc = acc * p + coeffs[i] * qp
        if i:
            qp *= q
    return acc


def sign_at(coeffs, x: Fraction) -> int:
    v = eval_scaled(coeffs, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem(a, b):
    """Remainder of a / b over Q (lists lowest degree first)."""
    a = [Fraction(x) for x in a]
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        s = len(a) - len(b)
        for i, c in enumerate(b):
            a[s + i] -= f * c
        a = _strip(a)
    return a


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def is_squarefree(coeffs) -> bool:
    a, b = _strip(coeffs), _strip(derivative(coeffs))
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def quadratic_factor(coeffs) -> bool:
    """Whether a monic integer quartic is a product of two integer quadratics."""
    c0, c1, c2, c3, _ = coeffs
    bound = 2 + max(abs(c) for c in coeffs)
    for b in _divisors(c0):
        for b in (b, -b):
            d = c0 // b
            for a in range(-bound, bound + 1):
                c = c3 - a
                if b + d + a * c == c2 and a * d + b * c == c1:
                    return True
    return False


class Sturm:
    """Sturm chain of a squarefree polynomial; counts real roots exactly."""

    def __init__(self, coeffs):
        chain = [[Fraction(c) for c in _strip(coeffs)]]
        chain.append([Fraction(c) for c in derivative(chain[0])])
        while len(chain[-1]) > 1:
            r = _rem(chain[-2], chain[-1])
            if not r:
                raise ValueError("polynomial is not squarefree")
            chain.append([-c for c in r])
        self.chain = chain

    def _changes(self, signs) -> int:
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def variations(self, x: Fraction) -> int:
        out = []
        for p in self.chain:
            acc = Fraction(0)
            for c in reversed(p):
                acc = acc * x + c
            out.append((acc > 0) - (acc < 0))
        return self._changes(out)

    def variations_inf(self, sign: int) -> int:
        return self._changes(
            [(1 if p[-1] > 0 else -1) * (sign ** (len(p) - 1)) for p in self.chain]
        )

    def count_real(self) -> int:
        return self.variations_inf(-1) - self.variations_inf(1)

    def count_in(self, lo: Fraction, hi: Fraction) -> int:
        """Roots in the half-open interval (lo, hi]."""
        return self.variations(lo) - self.variations(hi)


def root_bound(coeffs) -> int:
    return 2 + max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1])


def isolate(coeffs, index: int) -> tuple[Fraction, Fraction]:
    """(lo, hi] holding exactly the index-th real root (ascending, negative
    indices from the top). A rational root found on the way comes back as
    (r, r)."""
    st = Sturm(coeffs)
    n = st.count_real()
    if not -n <= index < n:
        raise ValueError("root index out of range")
    i = index % n
    b = root_bound(coeffs)
    lo, hi = Fraction(-b), Fraction(b)
    while st.count_in(lo, hi) != 1:
        mid = (lo + hi) / 2
        c = st.count_in(lo, mid)
        if i < c:
            hi = mid
        else:
            lo, i = mid, i - c
    for r in rational_roots(coeffs):
        if lo < r <= hi:
            return r, r
    return lo, hi


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots (rational root theorem; coefficients must be small)."""
    c = _strip(coeffs)
    shift = 0
    while c[shift] == 0:
        shift += 1
    out = {Fraction(0)} if shift else set()
    for p in _divisors(c[shift]):
        for q in _divisors(c[-1]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sign_at(c, r) == 0:
                    out.add(r)
    return sorted(out)


def refine(coeffs, lo: Fraction, hi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Bisect (lo, hi], which holds one simple root, to width <= 2^-bits."""
    if lo == hi:
        return lo, hi
    s_hi = sign_at(coeffs, hi)
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        s = sign_at(coeffs, mid)
        if s == 0:
            return mid, mid
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def rational_cf(x: Fraction, limit: int) -> list[int]:
    """Up to `limit` terms of the canonical expansion of x (a0 first)."""
    p, q = x.numerator, x.denominator
    out = []
    while q and len(out) < limit:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def cf_word(coeffs, index: int, depth: int) -> tuple[list[int], bool]:
    """a0 plus `depth` certified quotients of a real root, and whether the
    expansion terminated (rational root)."""
    lo, hi = isolate(coeffs, index)
    bits = 4 * depth + 64
    while True:
        lo, hi = refine(coeffs, lo, hi, bits)
        if lo == hi:
            return rational_word(lo, depth)
        wl = rational_cf(lo, depth + 2)
        wh = rational_cf(hi, depth + 2)
        if len(wl) == len(wh) == depth + 2 and wl == wh:
            return wl[: depth + 1], False
        bits *= 2


def rational_word(x: Fraction, depth: int) -> tuple[list[int], bool]:
    full = rational_cf(x, depth + 2)
    return full[: depth + 1], len(full) <= depth + 1


def convergents(word) -> list[tuple[int, int]]:
    """(p_n, q_n) for n = 0..len(word)-1."""
    out = []
    p2, p1, q2, q1 = 0, 1, 1, 0
    for a in word:
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        out.append((p1, q1))
    return out


def cylinder(word) -> tuple[Fraction, Fraction]:
    """Closed interval of the reals whose expansion starts with the word."""
    conv = convergents(word)
    pn, qn = conv[-1]
    pm, qm = conv[-2] if len(conv) > 1 else (1, 0)
    a, b = Fraction(pn, qn), Fraction(pn + pm, qn + qm)
    return min(a, b), max(a, b)
