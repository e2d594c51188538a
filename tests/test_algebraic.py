from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cfspectra.errors
from cfspectra import (
    IntPolynomial,
    PrecisionExhausted,
    Mat2,
    alg_equal,
    expand,
    isolate_real_roots,
    moebius_apply,
    moebius_minpoly,
    quadratic_conjugate,
)
from cfspectra.algebraic import AlgebraicNumber, DyadicInterval

from conftest import mul, root_of


class TestIsolation:
    def test_sqrt2_roots(self):
        roots = isolate_real_roots(IntPolynomial.from_coeffs([-2, 0, 1]))
        assert len(roots) == 2
        neg, pos = roots
        assert neg.value_interval(16).hi < 0 < pos.value_interval(16).lo

    def test_cubic_single_real_root(self):
        roots = isolate_real_roots(IntPolynomial.from_coeffs([-2, 0, 0, 1]))
        assert len(roots) == 1
        iv = roots[0].value_interval(64)
        assert iv.lo ** 3 <= 2 <= iv.hi ** 3

    def test_rational_root_linear(self):
        roots = isolate_real_roots(IntPolynomial.from_coeffs([-1, 2]))
        assert len(roots) == 1
        assert roots[0].rational_value() == Fraction(1, 2)

    def test_rational_roots_of_quadratic(self):
        # (2x - 1)(x - 3): rational but the minpoly is not factored,
        # so recognition happens through exact equality tests instead
        roots = isolate_real_roots(IntPolynomial.from_coeffs([3, -7, 2]))
        assert len(roots) == 2
        assert roots[0].value_interval(16).contains(Fraction(1, 2))
        assert roots[1].value_interval(16).contains(Fraction(3))

    def test_non_squarefree_input(self):
        # (x - 1)^2: isolation still reports the root once
        roots = isolate_real_roots(IntPolynomial.from_coeffs([1, -2, 1]))
        assert len(roots) == 1
        assert roots[0].rational_value() == 1

    def test_sorted_ascending(self):
        # roots -2, 1/3, 5
        p = IntPolynomial.from_coeffs([10, -27, -16, 3])
        roots = isolate_real_roots(p)
        vals = [r.value_interval(32) for r in roots]
        assert vals[0].hi < vals[1].lo < vals[2].lo


class TestRefinement:
    def test_refine_shrinks(self, sqrt2):
        sqrt2.refine_to(200)
        assert sqrt2.isolating.width <= Fraction(1, 2**200)
        iv = sqrt2.value_interval(200)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi

    @settings(max_examples=80, deadline=None)
    @given(
        coeffs=st.sampled_from(
            [[-2, 0, 0, 1], [1, -3, 0, 1], [-2, 0, 0, 0, 0, 1], [1, 0, -4, 0, 1], [-5, 3, -7, 2]]
        ),
        r=st.one_of(st.none(), st.fractions(min_value=-6, max_value=6, max_denominator=8)),
        pick=st.integers(min_value=0, max_value=7),
        start=st.integers(min_value=0, max_value=30),
        bits=st.integers(min_value=48, max_value=400),
    )
    def test_one_call_matches_bisection(self, coeffs, r, pick, start, bits):
        # one large refinement lands on exactly the cell (or grid point) that
        # refining one bit at a time reaches, also on reducible inputs
        p = IntPolynomial.from_coeffs(coeffs)
        if r is not None:
            p = mul(p, IntPolynomial.from_coeffs([-r.numerator, r.denominator]))
        roots = isolate_real_roots(p)
        x = roots[pick % len(roots)]
        if start:
            x.refine_to(start)
        stepped = AlgebraicNumber(x.minpoly, DyadicInterval(x.isolating.lo, x.isolating.hi))
        for b in range(1, bits + 1):
            stepped.refine_to(b)
        x.refine_to(bits)
        assert (x.isolating.lo, x.isolating.hi) == (stepped.isolating.lo, stepped.isolating.hi)

    # the certified floor is the a0 of a depth-0 expansion
    def test_floor(self, sqrt2, golden, cbrt2):
        assert expand(sqrt2, 0).a0 == 1
        assert expand(golden, 0).a0 == 1
        assert expand(cbrt2, 0).a0 == 1
        assert expand(root_of([-7, 0, 1]), 0).a0 == 2
        assert expand(root_of([-2, 0, 1], 0), 0).a0 == -2  # -sqrt(2)

    def test_floor_of_integer(self):
        three = isolate_real_roots(IntPolynomial.from_coeffs([-3, 1]))[0]
        cf = expand(three, 0)
        assert (cf.a0, cf.terminated) == (3, True)


class TestMoebius:
    def test_minpoly_of_shift(self):
        p = IntPolynomial.from_coeffs([-2, 0, 1])
        q = moebius_minpoly(Mat2(1, 1, 0, 1), p)  # y = x + 1
        # (y-1)^2 = 2 -> y^2 - 2y - 1
        assert q.primitive().coeffs == (-1, -2, 1)

    def test_apply_inverse_roundtrip(self, sqrt2):
        m = Mat2(2, 1, 1, 1)
        y = moebius_apply(m, sqrt2)
        back = moebius_apply(m.adjugate(), y)
        assert alg_equal(back, sqrt2)

    def test_apply_to_root_found_exactly_dyadic(self):
        # the root 1 of x^2 - 1 refines to the single point [1, 1]; its image
        # 2 is then a root at both ends of the image interval
        one = root_of([-1, 0, 1])
        y = moebius_apply(Mat2(1, 1, 0, 1), one)
        assert y.rational_value() == 2

    def test_apply_value(self, golden):
        # 1/x of the golden ratio is the golden ratio minus 1
        y = moebius_apply(Mat2(0, 1, 1, 0), golden)
        shifted = moebius_apply(Mat2(1, -1, 0, 1), golden)
        assert alg_equal(y, shifted)


class TestEqualityConjugate:
    def test_equal_same_root_different_handles(self):
        a = root_of([-2, 0, 1])
        b = root_of([-4, 0, 2])
        assert alg_equal(a, b)

    def test_unequal_conjugates(self):
        assert not alg_equal(root_of([-2, 0, 1], 0), root_of([-2, 0, 1], 1))

    def test_unequal_nearby(self):
        # sqrt(2) vs the root of a cubic passing very close
        assert not alg_equal(root_of([-2, 0, 1]), root_of([-3, 0, 0, 1]))

    def test_quadratic_conjugate(self, sqrt2, golden):
        c = quadratic_conjugate(sqrt2)
        assert c.value_interval(32).hi < 0
        g = quadratic_conjugate(golden)
        iv = g.value_interval(64)  # (1 - sqrt(5))/2
        assert Fraction(-62, 100) < iv.lo and iv.hi < Fraction(-61, 100)

    def test_conjugate_leaves_its_argument(self):
        # 2^40 x^2 - 2^21 x - 1: roots (1 +- sqrt 2) / 2^20 isolated in [-4, 0]
        # and [0, 4]; the second holds the vertex 2^-20, so a sign test decides
        for i in (0, 1):
            roots = isolate_real_roots(IntPolynomial.from_coeffs([-1, -(1 << 21), 1 << 40]))
            x, before = roots[i], roots[i].isolating
            assert (before.lo <= Fraction(1, 1 << 20) <= before.hi) == (i == 1)
            c = quadratic_conjugate(x)
            assert x.isolating == before
            assert c.isolating == roots[1 - i].isolating

    def test_equal_undecided_at_cap(self, monkeypatch):
        # the two roots' intervals share the end 0 until 32 bits
        monkeypatch.setattr(cfspectra.errors, "PRECISION_CAP_BITS", 16)
        neg, pos = isolate_real_roots(IntPolynomial.from_coeffs([-1, -(1 << 21), 1 << 40]))
        with pytest.raises(PrecisionExhausted, match="equality test did not converge"):
            alg_equal(neg, pos)

    def test_conjugate_requires_quadratic(self, cbrt2):
        with pytest.raises(ValueError):
            quadratic_conjugate(cbrt2)
