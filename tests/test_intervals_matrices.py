import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from cfspectra import FInterval, Mat2, enclose, log_ratio_enclosure

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def iv(a, b):
    return FInterval(Fraction(a), Fraction(b))


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return FInterval(min(a, b), max(a, b))


class TestFInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            iv(1, 0)

    def test_contains(self):
        assert iv(0, 2).contains(1)
        assert iv(0, 2).contains(iv(1, 2))
        assert not iv(0, 2).contains(3)

    @given(intervals(), intervals(), rationals, rationals)
    def test_arithmetic_encloses_points(self, x, y, px, py):
        # clamp the sample points into the intervals
        px = min(max(px, x.lo), x.hi)
        py = min(max(py, y.lo), y.hi)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)
        if not y.contains_zero():
            assert (x / y).contains(px / py)

    @given(intervals())
    def test_abs(self, x):
        a = x.abs()
        assert a.lo >= 0
        assert a.contains(abs(x.lo)) and a.contains(abs(x.hi))

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            iv(1, 2) / iv(-1, 1)

    def test_scalar_mixing(self):
        assert (2 + iv(0, 1)).lo == 2
        assert (Fraction(1, 2) * iv(2, 4)).hi == 2


mat_entries = st.integers(min_value=-20, max_value=20)


class TestMat2:
    def test_identity_and_det(self):
        assert Mat2.identity().det() == 1
        assert Mat2(2, 1, 1, 1).det() == 1
        assert Mat2(1, 2, 1, 1).det() == -1

    @given(*([mat_entries] * 8))
    def test_matmul_adjugate(self, a, b, c, d, e, f, g, h):
        m = Mat2(a, b, c, d)
        n = Mat2(e, f, g, h)
        prod = m @ n
        assert prod.det() == m.det() * n.det()
        assert m @ m.adjugate() == Mat2(m.det(), 0, 0, m.det())

    def test_transpose_norm(self):
        m = Mat2(1, 2, -3, 4)
        assert m.transpose() == Mat2(1, -3, 2, 4)
        assert m.norm() == 4


positive_rationals = st.builds(
    lambda m, n, e: Fraction(m, n) * Fraction(2) ** e,
    st.integers(1, 2**64), st.integers(1, 2**64), st.integers(-200, 200),
)
positive_intervals = st.builds(
    lambda q, w: FInterval(q, q * (1 + Fraction(1, w))), positive_rationals, st.integers(1, 2**200)
)
precisions = st.sampled_from([53, 96, 200])


class TestLogEnclosures:
    def test_log_positive_required(self):
        with pytest.raises(ValueError):
            log_ratio_enclosure(Fraction(-1), Fraction(2))
        with pytest.raises(ValueError):
            log_ratio_enclosure(Fraction(2), iv(0, 4))

    def test_log_ratio(self):
        enc = log_ratio_enclosure(Fraction(8), Fraction(2))
        assert enc.lo < 3 < enc.hi

    def test_log_ratio_tightness(self):
        enc = log_ratio_enclosure(Fraction(10), Fraction(2))
        assert enc.width < Fraction(1, 2**60)

    # The exact referee: for integers n, d >= 2, log(n)/log(d) lies above a/b
    # exactly when n^b > d^a, and equals a/b exactly when n^b == d^a.
    @given(st.integers(2, 10**6), st.integers(2, 10**6), st.integers(1, 20),
           st.integers(1, 20), precisions)
    @example(8, 4, 3, 2, 53)  # 8^2 == 4^3
    @example(3, 2, 19, 12, 96)  # 3^12 > 2^19: log2(3) just above 19/12
    @example(2, 3, 12, 19, 200)  # 2^19 < 3^12
    def test_side_of_a_rational_decided_by_integer_powers(self, n, d, a, b, prec):
        enc = log_ratio_enclosure(n, d, prec)
        r = Fraction(a, b)
        side = n**b - d**a
        if side == 0:
            assert enc.lo <= r <= enc.hi
        elif side > 0:
            assert enc.hi > r
        else:
            assert enc.lo < r

    @given(positive_rationals, st.integers(1, 30), st.integers(1, 30), precisions)
    def test_ratio_of_powers_contains_exponent_ratio(self, q, a, b, prec):
        assume(q != 1)
        enc = log_ratio_enclosure(q**a, q**b, prec)
        assert enc.lo <= Fraction(a, b) <= enc.hi

    @given(positive_rationals, positive_rationals, precisions)
    def test_width_relative_to_the_ratio(self, num, den, prec):
        assume(abs(math.log(den)) >= 2**-10 * (1 + 2**-20))
        enc = log_ratio_enclosure(num, den, prec)
        mid = abs(enc.lo + enc.hi) / 2
        assert enc.width <= Fraction(1, 2 ** (prec - 16)) * max(1, mid)

    def test_contains_the_mpmath_enclosure(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.iv, "prec", 400)

        def to_iv(x):
            lo, hi = (x.lo, x.hi) if isinstance(x, FInterval) else (x, x)
            a = mpmath.iv.mpf(lo.numerator) / mpmath.iv.mpf(lo.denominator)
            b = mpmath.iv.mpf(hi.numerator) / mpmath.iv.mpf(hi.denominator)
            return mpmath.iv.mpf([a.a, b.b])

        def exact(end):
            with mpmath.workprec(400):
                end = mpmath.mpf(end)
            man, exp = end.man_exp  # man is |mantissa|
            return Fraction(man if end >= 0 else -man) * Fraction(2) ** exp

        @given(positive_rationals | positive_intervals, positive_rationals | positive_intervals,
               precisions)
        def check(num, den, prec):
            den_lo = den.lo if isinstance(den, FInterval) else den
            assume(abs(den_lo - 1) > Fraction(1, 2**20))
            want = mpmath.iv.log(to_iv(num)) / mpmath.iv.log(to_iv(den))
            enc = log_ratio_enclosure(num, den, prec)
            assert enc.lo <= exact(want.a) and exact(want.b) <= enc.hi

        @given(positive_rationals, st.sampled_from([53, 128, 232]))
        def check_one_log(q, p):
            # one log's own bounds, without the slack the quotient adds
            want = mpmath.iv.log(to_iv(q)) * mpmath.iv.mpf(2) ** p
            lo, hi = enclose._ln(q, p)
            assert lo <= exact(want.a) and exact(want.b) <= hi

        check()
        check_one_log()
