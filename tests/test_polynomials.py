from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfspectra import Mat2, isolate_real_roots, moebius_minpoly
from cfspectra.polynomials import (
    IntPolynomial,
    count_roots_in,
    isolating_intervals,
    poly_gcd,
    sign_variations,
    squarefree_part,
)

from conftest import mul


def P(*coeffs):
    return IntPolynomial.from_coeffs(list(coeffs))


class TestBasics:
    def test_degree_and_eval(self):
        p = P(-2, 0, 0, 1)  # x^3 - 2
        assert p.degree == 3
        assert p.sign_at(Fraction(1)) < 0
        assert p.sign_at(Fraction(2)) > 0
        assert P(-4, 0, 2).primitive().coeffs == (-2, 0, 1)

    def test_derivative(self):
        assert P(1, 2, 3).derivative().coeffs == (2, 6)

    def test_shift_and_reverse(self):
        p = P(0, 0, 1)  # x^2
        assert p.moebius(1, 1, 0, 1).coeffs == (1, 2, 1)  # Taylor shift: (x+1)^2
        assert P(1, 2, 3).moebius(0, 1, 1, 0).coeffs == (3, 2, 1)  # reversal

    def test_sign_variations(self):
        assert sign_variations([1, -1, 1]) == 2
        assert sign_variations([1, 0, 1]) == 0
        assert sign_variations([-1, 0, 0, 1]) == 1


class TestGcdSquarefree:
    def test_gcd_of_multiple(self):
        p = P(-1, 0, 1)  # (x-1)(x+1)
        q = P(-1, 1)  # x - 1
        assert poly_gcd(p, q).coeffs == (-1, 1)

    def test_squarefree_strips_multiplicity(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        p = P(2, -3, 0, 1)
        sf = squarefree_part(p)
        assert sf.degree == 2
        assert sf.sign_at(Fraction(1)) == 0
        assert sf.sign_at(Fraction(-2)) == 0

    def test_squarefree_of_squarefree(self):
        p = P(-2, 0, 1)
        assert squarefree_part(p).degree == 2


class TestRootCounting:
    def test_unit_transform_maps_interval(self):
        p = P(-2, 0, 1)
        q = p.moebius(2, 1, 1, 1)  # (2x + 1)/(x + 1) maps (0, inf) onto (1, 2)
        # sqrt(2) in (1,2) maps to one sign variation
        assert sign_variations(q.coeffs) == 1

    @pytest.mark.parametrize(
        "coeffs,a,b,expected",
        [
            ((-2, 0, 1), 0, 2, 1),
            ((-2, 0, 1), -2, 2, 2),
            ((-2, 0, 1), 2, 3, 0),
            ((-2, 0, 0, 1), 1, 2, 1),
            ((-1, 0, 1), 2, 3, 0),
            ((2, -3, 0, 1), -3, 3, 2),  # squarefree part used internally
        ],
    )
    def test_counts(self, coeffs, a, b, expected):
        p = IntPolynomial.from_coeffs(list(coeffs))
        got = count_roots_in(squarefree_part(p), Fraction(a), Fraction(b))
        assert got == expected

    def test_exact_dyadic_root_inside(self):
        # root exactly at 1/2, a dyadic bisection point
        p = P(-1, 2)
        assert count_roots_in(p, Fraction(0), Fraction(1)) == 1

    @given(
        roots=st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4, unique=True)
    )
    def test_integer_root_products(self, roots):
        p = P(1)
        for r in roots:
            p = mul(p, P(-r, 1))
        lo, hi = Fraction(min(roots)) - 1, Fraction(max(roots)) + 1
        assert count_roots_in(p, lo, hi) == len(roots)


# Frozen copies of the Fraction-based polynomial layer that the integer
# Moebius transform and the pseudo-remainder gcd replaced: the referees of
# the equal-output contract (same counts, intervals, gcds and images).


def frozen_divmod_q(num, den):
    rem = num[:]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = rem[shift + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[shift + i] -= quot[shift] * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def frozen_primitive_from_q(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    return IntPolynomial(tuple(ints) or (0,)).primitive()


def frozen_poly_gcd(p, q):
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    if not any(a):
        return q.primitive()
    if not any(b):
        return p.primitive()
    while True:
        _, r = frozen_divmod_q(a, b)
        if not r:
            break
        a, b = b, r
    return frozen_primitive_from_q(b)


def frozen_squarefree_part(p):
    if p.degree == 0:
        return p.primitive()
    g = frozen_poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    quot, rem = frozen_divmod_q([Fraction(c) for c in p.coeffs], [Fraction(c) for c in g.coeffs])
    assert not rem
    return frozen_primitive_from_q(quot)


def frozen_transform_to_unit(p, a, b):
    w = b - a
    acc = [Fraction(p.coeffs[-1])]
    for i in range(p.degree - 1, -1, -1):
        new = [Fraction(0)] * (len(acc) + 1)
        for j, c in enumerate(acc):
            new[j] += c * a
            new[j + 1] += c * w
        new[0] += p.coeffs[i]
        acc = new
    common = 1
    for c in acc:
        common = common * c.denominator // gcd(common, c.denominator)
    ints = [int(c * common) for c in acc]
    while ints and ints[-1] == 0:
        ints.pop()
    return ints or [0]


def frozen_descartes(p, lo, hi):
    """transform_to_unit(p, lo, hi).reverse().shift_taylor(1), then its variations."""
    c = frozen_transform_to_unit(p, lo, hi)[::-1]
    while c and c[-1] == 0:
        c.pop()
    c = c or [0]
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    return sign_variations(c)


def frozen_isolating_intervals(p, a, b):
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        v = frozen_descartes(p, lo, hi)
        if v == 0:
            continue
        if v == 1:
            yield lo, hi
            continue
        mid = (lo + hi) / 2
        if p.sign_at(mid) == 0:
            delta = (hi - lo) / 4
            while p.sign_at(mid + delta) == 0:
                delta /= 2
            mid = mid + delta
        stack.append((lo, mid))
        stack.append((mid, hi))


def frozen_moebius_minpoly(m, p):
    deg = p.degree
    num = IntPolynomial.from_coeffs([-m.b, m.d])
    den = IntPolynomial.from_coeffs([m.a, -m.c])
    pows_num = [IntPolynomial((1,))]
    pows_den = [IntPolynomial((1,))]
    for _ in range(deg):
        pows_num.append(mul(pows_num[-1], num))
        pows_den.append(mul(pows_den[-1], den))
    acc = [0] * (deg + 1)
    for i, ci in enumerate(p.coeffs):
        if ci:
            for j, c in enumerate(mul(pows_num[i], pows_den[deg - i]).coeffs):
                acc[j] += ci * c
    return frozen_squarefree_part(IntPolynomial.from_coeffs(acc))


coeff = st.integers(min_value=-30, max_value=30)
small_rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def polynomials(draw, min_degree=1):
    """Random, or reducible with rational, repeated and zero roots and content."""
    cs = draw(st.lists(coeff, min_size=min_degree + 1, max_size=7))
    if cs[-1] == 0:
        cs[-1] = 1
    p = P(*cs)
    for r in draw(st.lists(small_rational, max_size=3)):
        f = P(-r.numerator, r.denominator)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            p = mul(p, f)
    p = mul(p, P(0, 1)) if draw(st.booleans()) and p.degree < 9 else p
    scale = draw(st.sampled_from([1, 1, -1, 6, -35]))
    return IntPolynomial(tuple(scale * c for c in p.coeffs))


@st.composite
def endpoints(draw, p):
    """Dyadic or arbitrary rationals lo < hi that are not roots of p."""
    dyadic = st.builds(
        lambda m, e: Fraction(m, 1 << e),
        st.integers(min_value=-2**12, max_value=2**12),
        st.integers(min_value=0, max_value=10),
    )
    points = st.one_of(dyadic, st.fractions(min_value=-40, max_value=40, max_denominator=1000))
    lo, hi = sorted(draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    assume(p.sign_at(lo) != 0 and p.sign_at(hi) != 0)
    return lo, hi


@st.composite
def unimodular(draw):
    gens = [lambda k: Mat2(1, k, 0, 1), lambda k: Mat2(1, 0, k, 1), lambda k: Mat2(0, -1, 1, 0)]
    m = Mat2(0, 1, 1, 0) if draw(st.booleans()) else Mat2.identity()
    for g, k in draw(st.lists(st.tuples(st.sampled_from(gens), st.integers(-4, 4)), max_size=5)):
        m = m @ g(k)
    return m


class TestMatchesFractionLayer:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=polynomials(min_degree=2))
    def test_descartes_count(self, data, p):
        lo, hi = data.draw(endpoints(p))
        q = lo.denominator * hi.denominator
        a, b = hi.numerator * lo.denominator, lo.numerator * hi.denominator
        assert sign_variations(p.moebius(a, b, q, q).coeffs) == frozen_descartes(p, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=polynomials(min_degree=2))
    def test_isolating_intervals(self, data, p):
        p = squarefree_part(p)
        lo, hi = data.draw(endpoints(p))
        got = list(isolating_intervals(p, lo, hi))
        assert got == list(frozen_isolating_intervals(p, lo, hi))
        assert count_roots_in(p, lo, hi) == len(got)

    @settings(max_examples=200, deadline=None)
    @given(p=polynomials(min_degree=2))
    def test_isolate_real_roots(self, p):
        sf = frozen_squarefree_part(p)
        if sf.degree < 2:
            return
        bound = 2 + max(abs(c) for c in sf.coeffs[:-1]) // abs(sf.leading)
        big = Fraction(1 << bound.bit_length())
        want = sorted(frozen_isolating_intervals(sf, -big, big))
        got = [(r.isolating.lo, r.isolating.hi) for r in isolate_real_roots(p)]
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(p=polynomials(), q=polynomials(), common=polynomials())
    def test_gcd_and_squarefree(self, p, q, common):
        p, q = mul(p, common), mul(q, common)
        assert poly_gcd(p, q) == frozen_poly_gcd(p, q)
        assert poly_gcd(q, p) == frozen_poly_gcd(q, p)
        assert squarefree_part(p) == frozen_squarefree_part(p)

    def test_gcd_with_zero_and_constants(self):
        zero = IntPolynomial((0,))
        for p, q in [(zero, P(-4, 0, 2)), (P(-4, 0, 2), zero), (zero, zero), (P(6), P(-4, 2))]:
            assert poly_gcd(p, q) == frozen_poly_gcd(p, q)

    @settings(max_examples=200, deadline=None)
    @given(m=unimodular(), p=polynomials())
    def test_moebius_minpoly(self, m, p):
        assert moebius_minpoly(m, p) == frozen_moebius_minpoly(m, p)
