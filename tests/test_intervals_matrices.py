from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from cfspectra import FInterval, Mat2, log_ratio_enclosure

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

    def test_global_interval_precision_untouched(self, monkeypatch):
        monkeypatch.setattr(mpmath.iv, "prec", 53)
        enc = log_ratio_enclosure(Fraction(10), Fraction(2))
        assert mpmath.iv.prec == 53
        assert enc.width < Fraction(1, 2**60)  # computed at 96 bits all the same

    @pytest.mark.parametrize("prec", [53, 96, 200])
    def test_equal_to_global_context_enclosures(self, monkeypatch, prec):
        # the enclosures the global `mpmath.iv` context gives at the same precision
        def to_iv(x):
            lo, hi = (x.lo, x.hi) if isinstance(x, FInterval) else (Fraction(x),) * 2
            a = mpmath.iv.mpf(lo.numerator) / mpmath.iv.mpf(lo.denominator)
            b = mpmath.iv.mpf(hi.numerator) / mpmath.iv.mpf(hi.denominator)
            return mpmath.iv.mpf([a.a, b.b])

        def to_finterval(v):
            return FInterval(*(Fraction(*mpmath.libmp.to_rational(end)) for end in v._mpi_))

        monkeypatch.setattr(mpmath.iv, "prec", prec)
        for num, den in [(8, 2), (10, 2), (iv(1000, 1001), Fraction(7, 3))]:
            want = to_finterval(mpmath.iv.log(to_iv(num)) / mpmath.iv.log(to_iv(den)))
            assert log_ratio_enclosure(num, den, prec) == want
