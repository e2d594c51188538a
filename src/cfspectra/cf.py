"""Certified continued-fraction expansion and the classical identities.

The expander refines the isolating interval and keeps the letters that both
of its endpoints' exact expansions share (Lehmer's criterion), so every
partial quotient is decided by exact integer arithmetic, at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .algebraic import AlgebraicNumber, _above_vertex, _equals_rational
from .errors import PrecisionExhausted
from .intervals import FInterval
from .matrices import Mat2

PRECISION_CAP_BITS = 1 << 16


@dataclass
class CFExpansion:
    """a0 plus positive partial quotients, with lazily built convergents."""

    a0: int
    quotients: list[int]
    source: AlgebraicNumber | None = None
    terminated: bool = False
    _pq: list[tuple[int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        for a in self.quotients:
            if a < 1:
                raise ValueError("partial quotients must be >= 1")

    @property
    def depth(self) -> int:
        return len(self.quotients)

    def word(self) -> tuple[int, ...]:
        """Full quotient word including a0."""
        return (self.a0, *self.quotients)

    def convergent(self, n: int) -> tuple[int, int]:
        """(p_n, q_n) for n >= -2."""
        if n < -2:
            raise IndexError("convergent index below -2")
        if n > self.depth:
            raise IndexError("convergent index beyond computed quotients")
        if n == -2:
            return (0, 1)
        if n == -1:
            return (1, 0)
        if not self._pq:
            p2, p1 = 0, 1
            q2, q1 = 1, 0
            for a in self.word():
                p2, p1 = p1, a * p1 + p2
                q2, q1 = q1, a * q1 + q2
                self._pq.append((p1, q1))
        return self._pq[n]

    def value(self) -> Fraction:
        """Exact value of the finite expansion."""
        p, q = self.convergent(self.depth)
        return Fraction(p, q)

    def value_interval(self) -> FInterval:
        """Enclosure of any real whose expansion starts with this word."""
        if self.terminated:
            v = self.value()
            return FInterval(v, v)
        n = self.depth
        if n == 0:
            return FInterval(Fraction(self.a0), Fraction(self.a0 + 1))
        pn, qn = self.convergent(n)
        pm, qm = self.convergent(n - 1)
        a, b = Fraction(pn, qn), Fraction(pn + pm, qn + qm)
        return FInterval(min(a, b), max(a, b))


def convergents(cf: CFExpansion) -> list[tuple[int, int]]:
    """[(p_0, q_0), ..., (p_N, q_N)] as exact coprime pairs."""
    return [cf.convergent(n) for n in range(cf.depth + 1)]


def word_matrix(word) -> Mat2:
    """Product of [[b, 1], [1, 0]] over the letters of the word."""
    letters = tuple(word)
    if not letters:
        raise ValueError("word must be nonempty")
    m = Mat2.identity()
    for b in letters:
        m = m @ Mat2(b, 1, 1, 0)
    return m


def _rational_cf(r: Fraction, depth: int) -> tuple[int, list[int], bool]:
    """Euclid on r: a0, at most `depth` quotients, and whether r's expansion ended."""
    n, d = r.numerator, r.denominator
    a0, n = divmod(n, d)
    quotients: list[int] = []
    while n and len(quotients) < depth:
        a, rem = divmod(d, n)
        quotients.append(a)
        d, n = n, rem
    return a0, quotients, n == 0


class _SharedPrefix:
    """The letters two endpoints' exact expansions share, with the last two
    convergents p_{k-2}, p_{k-1}, q_{k-2}, q_{k-1} of those k letters.

    Kept between refinements: the refined endpoints lie between the old ones,
    so they share the same k letters, and their expansions resume at letter k.
    """

    def __init__(self):
        self.letters: list[int] = []
        self.pq = (0, 1, 1, 0)

    def _tail(self, end: Fraction) -> tuple[int, int] | None:
        """t with end = [letters..., t], as (num, den > 0); None unless t > 1,
        that is, unless end lies inside the prefix's cylinder."""
        p2, p1, q2, q1 = self.pq
        u, v = end.numerator, end.denominator
        num, den = q2 * u - p2 * v, p1 * v - q1 * u
        if den < 0:
            num, den = -num, -den
        if self.letters and not 0 < den < num:
            return None
        return num, den

    def extend(self, lo: Fraction, hi: Fraction, depth: int) -> tuple[int, int] | None:
        """Grow the prefix to the letters lo and hi share, at most depth + 1.

        Returns the two letters at the position where they part, or None
        when depth + 1 letters agree.
        """
        tails = self._tail(lo), self._tail(hi)
        if None in tails:
            self.__init__()  # an endpoint on a cylinder boundary: start over
            tails = self._tail(lo), self._tail(hi)
        (na, da), (nb, db) = tails
        letters = self.letters
        p2, p1, q2, q1 = self.pq
        parted = None
        while len(letters) <= depth:
            a, ra = divmod(na, da)
            b, rb = divmod(nb, db)
            # the last letter of a finite expansion is ambiguous ([..., a] is
            # [..., a - 1, 1]), so neither endpoint vouches for it
            if a != b or not ra or not rb:
                parted = a, b
                break
            letters.append(a)
            p2, p1, q2, q1 = p1, a * p1 + p2, q1, a * q1 + q2
            na, da, nb, db = da, ra, db, rb
        self.pq = p2, p1, q2, q1
        return parted

    def value_with(self, c: int) -> Fraction:
        """The rational [letters..., c]."""
        p2, p1, q2, q1 = self.pq
        return Fraction(c * p1 + p2, c * q1 + q2)


def expand(x: AlgebraicNumber, depth: int) -> CFExpansion:
    """First `depth` certified partial quotients of x.

    Irrational x is refined until both endpoints of its isolating interval
    expand to a common prefix of depth + 1 letters. Cylinders of a prefix are
    intervals, so x, lying between the endpoints, shares that prefix. Each
    refinement resumes the endpoints' joint expansion where the last one
    parted.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    known = -1
    prefix = _SharedPrefix()
    while (rat := x.rational_value()) is None:
        parted = prefix.extend(x.isolating.lo, x.isolating.hi, depth)
        if parted is None:
            return CFExpansion(prefix.letters[0], prefix.letters[1:], source=x)
        n = len(prefix.letters)
        if n == known:
            # for rational x = [c0; ..., cn] the endpoints' words agree
            # before cn and read cn and cn - 1 there, so the prefix stalls
            rat = prefix.value_with(max(parted))
            if _equals_rational(x, rat):
                break
        known = n
        w = x.isolating.width
        bits = max(64, 2 * (w.denominator.bit_length() - w.numerator.bit_length()))
        if bits > PRECISION_CAP_BITS:
            raise PrecisionExhausted(
                "expansion undecided at precision cap", x.isolating.as_finterval()
            )
        x.refine_to(bits)
    a0, qs, term = _rational_cf(rat, depth)
    return CFExpansion(a0, qs, source=x, terminated=term)


@dataclass(frozen=True)
class PeriodicForm:
    """Eventually periodic word: preperiod (with a0 first) + shortest period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def expand_word(self, cycles: int) -> tuple[int, ...]:
        return self.preperiod + self.period * cycles


def detect_period(x: AlgebraicNumber) -> PeriodicForm:
    """Exact preperiod and shortest period of a quadratic irrational."""
    if x.degree != 2:
        raise ValueError("period detection requires a quadratic irrational")
    c0, c1, c2 = x.minpoly.coeffs
    a, b, c = c2, c1, c0  # a x^2 + b x + c
    disc = b * b - 4 * a * c
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        raise ValueError("not a quadratic irrational")
    # the branch (-b + sqrt(disc)) / (2a) is the larger root exactly when a > 0
    if _above_vertex(x) == (a > 0):
        P, Q = -b, 2 * a
    else:
        P, Q = b, -2 * a
    D = disc
    sq = isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    word: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(word)
        if Q > 0:
            an = (P + sq) // Q
        else:
            an = -((P + sq) // (-Q)) - 1
        word.append(an)
        P = an * Q - P
        Q = (D - P * P) // Q
    start = seen[(P, Q)]
    pre, cycle = word[:start], word[start:]
    # shortest period: smallest divisor-length block that tiles the cycle
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            cycle = cycle[:d]
            break
    # pull the period boundary as far left as possible
    while pre and pre[-1] == cycle[-1]:
        pre.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return PeriodicForm(tuple(pre), tuple(cycle))


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("domain error")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


GROWTH_FRACTIONAL_BITS = 64


@dataclass
class GrowthReport:
    """Per-n enclosures of (q_n q'_n)^(1/n) and their running maximum."""

    values: list[FInterval]
    max_enclosure: FInterval


def growth_metrics(cf: CFExpansion, cf2: CFExpansion | None = None) -> GrowthReport:
    depth = cf.depth if cf2 is None else min(cf.depth, cf2.depth)
    if depth < 1:
        raise ValueError("need at least one partial quotient")
    scale = 1 << GROWTH_FRACTIONAL_BITS
    values = []
    for n in range(1, depth + 1):
        v = cf.convergent(n)[1] * (cf2.convergent(n)[1] if cf2 else 1)
        r = integer_nth_root(v << (GROWTH_FRACTIONAL_BITS * n), n)
        values.append(FInterval(Fraction(r, scale), Fraction(r + 1, scale)))
    max_enc = FInterval(max(v.lo for v in values), max(v.hi for v in values))
    return GrowthReport(values, max_enc)


@dataclass
class IdentityReport:
    """Pass/fail per classical identity, per index."""

    determinant: list[bool]
    mirror_ratio: list[bool]
    convergent_growth: list[bool]
    approximation: list[bool] | None

    @property
    def all_pass(self) -> bool:
        pools = [self.determinant, self.mirror_ratio, self.convergent_growth]
        if self.approximation is not None:
            pools.append(self.approximation)
        return all(all(p) for p in pools)

    def to_dict(self) -> dict:
        return {
            "determinant": self.determinant,
            "mirror_ratio": self.mirror_ratio,
            "convergent_growth": self.convergent_growth,
            "approximation": self.approximation,
            "all_pass": self.all_pass,
        }


def _growth_holds_from(n: int, q: list[int], bits: list[int], slack_min: list[int]) -> bool:
    """Whether 2 q_{m+n}^2 >= 2^m q_n^2 for every m, 1 <= m <= len(q) - 1 - n.

    With t = 2 bits(q_{m+n}) - 2 bits(q_n) - m the inequality holds when
    t >= 1 and fails when t <= -3, so only the band -2 <= t <= 0 needs the
    exact products. slack_min[k] is the least 2 bits(q_j) - j over j >= k, so
    the scan stops once no later index can fall to t <= 0.
    """
    c = 2 * bits[n] - n
    qn2 = q[n] * q[n]
    for k in range(n + 1, len(q)):
        if slack_min[k] > c:
            return True
        t = 2 * bits[k] - k - c
        if t <= -3 or (t <= 0 and 2 * q[k] * q[k] < qn2 << (k - n)):
            return False
    return True


def verify_cf_identities(cf: CFExpansion, depth: int) -> IdentityReport:
    depth = min(depth, cf.depth)
    determinant = []
    for n in range(depth + 1):
        pn, qn = cf.convergent(n)
        pm, qm = cf.convergent(n - 1)
        determinant.append(pn * qm - pm * qn == (-1) ** (n + 1))
    # q_n / q_{n-1} = [a_n; ..., a_1], rebuilt from the letters one at a time
    # and not from the cached convergents, so a wrong convergent shows here
    mirror = []
    num, den = 1, 0
    for n, a in enumerate(cf.quotients[:depth], 1):
        num, den = a * num + den, num
        _, qn = cf.convergent(n)
        _, qm = cf.convergent(n - 1)
        mirror.append(qn * den == qm * num)
    q = [cf.convergent(n)[1] for n in range(depth + 1)]
    bits = [v.bit_length() for v in q]
    slack_min = [2 * b - k for k, b in enumerate(bits)]
    for k in range(depth - 1, -1, -1):
        slack_min[k] = min(slack_min[k], slack_min[k + 1])
    growth = [_growth_holds_from(n, q, bits, slack_min) for n in range(1, depth)]
    approximation = None
    if cf.source is not None and not cf.terminated:
        _, qN = cf.convergent(depth)
        x_iv = cf.source.value_interval(2 * qN.bit_length() + 32)
        ends = [(e.numerator, e.denominator) for e in (x_iv.lo, x_iv.hi)]
        # |x - p_n/q_n| < 1/(q_n q_{n+1}) at both ends of x's enclosure, in integers
        approximation = []
        for n in range(depth):
            pn, qn = cf.convergent(n)
            _, qn1 = cf.convergent(n + 1)
            approximation.append(all(abs(u * qn - pn * v) * qn1 < v for u, v in ends))
    return IdentityReport(determinant, mirror, growth, approximation)
