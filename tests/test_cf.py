import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

import cfspectra.cf
from cfspectra import (
    CFExpansion,
    IntPolynomial,
    Mat2,
    PrecisionExhausted,
    convergents,
    detect_period,
    expand,
    growth_metrics,
    integer_nth_root,
    isolate_real_roots,
    verify_cf_identities,
    word_matrix,
)

from cfspectra.algebraic import AlgebraicNumber, _equals_rational

from conftest import mul, root_of

words = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=20)

# irreducible over Q, degrees 2-4, one to four real roots
IRREDUCIBLE = [
    [-2, 0, 1],
    [-1, -1, 1],
    [-2, 0, 0, 1],
    [1, -3, 0, 1],
    [-3, -1, 0, 2],
    [-2, 0, 0, 0, 1],
    [1, 0, -4, 0, 1],
]


def euclid(r: Fraction, depth: int) -> tuple[tuple[int, ...], bool]:
    """Word of r up to depth quotients, and whether it ended, by textbook Euclid."""
    word = [floor(r)]
    rest = r - word[0]
    while rest and len(word) <= depth:
        r = 1 / rest
        word.append(floor(r))
        rest = r - word[-1]
    return tuple(word), rest == 0


def _rational_cf(r: Fraction, depth: int) -> tuple[int, list[int], bool]:
    n, d = r.numerator, r.denominator
    a0, n = divmod(n, d)
    quotients: list[int] = []
    while n and len(quotients) < depth:
        a, rem = divmod(d, n)
        quotients.append(a)
        d, n = n, rem
    return a0, quotients, n == 0


def expand_by_full_rounds(x: AlgebraicNumber, depth: int) -> CFExpansion:
    """`expand` as it was before the endpoints' expansion was resumed: each
    round expands both endpoints from scratch to `depth` letters."""
    known = -1
    while (rat := x.rational_value()) is None:
        (a0, qa, ta), (b0, qb, tb) = (
            _rational_cf(end, depth) for end in (x.isolating.lo, x.isolating.hi)
        )
        wa, wb = [a0, *qa], [b0, *qb]
        usable = min(len(wa) - ta, len(wb) - tb)
        n = 0
        while n < usable and wa[n] == wb[n]:
            n += 1
        if n > depth:
            return CFExpansion(a0, qa, source=x)
        if n == known:
            letters = wa[:n] + [max(wa[n], wb[n])]
            rat = CFExpansion(letters[0], letters[1:]).value()
            if _equals_rational(x, rat):
                break
        known = n
        w = x.isolating.width
        bits = max(64, 2 * (w.denominator.bit_length() - w.numerator.bit_length()))
        if bits > cfspectra.cf.PRECISION_CAP_BITS:
            raise PrecisionExhausted("expansion undecided at precision cap")
        x.refine_to(bits)
    a0, qs, term = _rational_cf(rat, depth)
    return CFExpansion(a0, qs, source=x, terminated=term)


def _record_refinements(x: AlgebraicNumber) -> list[int]:
    """The list that each later x.refine_to(bits) call appends its bits to."""
    bits = []
    refine = x.refine_to

    def recorded(b):
        bits.append(b)
        return refine(b)

    x.refine_to = recorded
    return bits


def _times_linear(coeffs, r: Fraction) -> IntPolynomial:
    linear = IntPolynomial.from_coeffs([-r.numerator, r.denominator])
    return mul(IntPolynomial.from_coeffs(coeffs), linear)


def _nonconstant(coeffs) -> bool:
    return any(coeffs[1:])


BIG = 1 << 40
expansion_inputs = st.one_of(
    # (x - r) f(x) with an integer, dyadic or other rational root r
    st.builds(
        _times_linear,
        st.sampled_from(IRREDUCIBLE),
        st.one_of(
            st.integers(min_value=-9, max_value=9).map(Fraction),
            st.builds(Fraction, st.integers(-99, 99), st.sampled_from([2, 4, 8, 64])),
            st.fractions(min_value=-9, max_value=9, max_denominator=30),
        ),
    ),
    # quadratics, many of them irrational
    st.lists(st.integers(-60, 60), min_size=2, max_size=2)
    .flatmap(lambda c: st.integers(1, 60).map(lambda a: [*c, a]))
    .map(IntPolynomial.from_coeffs),
    # degree 2-5 with 40-bit coefficients
    st.integers(2, 5)
    .flatmap(lambda d: st.lists(st.integers(-BIG, BIG), min_size=d + 1, max_size=d + 1))
    .filter(_nonconstant)
    .map(IntPolynomial.from_coeffs),
)


class TestExpansion:
    def test_sqrt2(self, sqrt2):
        cf = expand(sqrt2, 12)
        assert cf.a0 == 1
        assert cf.quotients == [2] * 12
        assert not cf.terminated

    def test_cbrt2_prefix(self, cbrt2):
        cf = expand(cbrt2, 10)
        assert cf.word() == (1, 3, 1, 5, 1, 1, 4, 1, 1, 8, 1)

    def test_rational_terminates(self):
        x = isolate_real_roots(IntPolynomial.from_coeffs([-10, 7]))[0]  # 10/7
        cf = expand(x, 50)
        assert (cf.a0, cf.quotients, cf.terminated) == (1, [2, 3], True)
        assert cf.value() == Fraction(10, 7)

    def test_negative_number(self):
        x = root_of([-2, 0, 1], 0)  # -sqrt(2) = [-2; 1, 1, 2, 2, ...]
        cf = expand(x, 6)
        assert cf.word() == (-2, 1, 1, 2, 2, 2, 2)

    def test_depth_zero(self, golden):
        cf = expand(golden, 0)
        assert cf.word() == (1,)

    def test_integer_root_of_reducible_polynomial(self):
        # the largest root is exactly 1, a point of the bisection grid
        x = isolate_real_roots(IntPolynomial.from_coeffs([-1, 1, -3, 2, 0, 0, 0, 1]))[-1]
        cf = expand(x, 5)
        assert (cf.word(), cf.terminated) == ((1,), True)

    def test_precision_cap(self, cbrt2, monkeypatch):
        monkeypatch.setattr(cfspectra.cf, "PRECISION_CAP_BITS", 256)
        with pytest.raises(PrecisionExhausted):
            expand(cbrt2, 500)

    @settings(max_examples=60, deadline=None)
    @given(
        f=st.sampled_from(IRREDUCIBLE),
        r=st.one_of(
            st.integers(min_value=-9, max_value=9).map(Fraction),
            st.fractions(min_value=-9, max_value=9, max_denominator=16),
        ),
        depth=st.integers(min_value=0, max_value=40),
    )
    def test_reducible_with_rational_root(self, f, r, depth):
        # (x - r) f(x): r gets its exact finite expansion, every other root
        # the same word as when f is expanded alone
        f = IntPolynomial.from_coeffs(f)
        p = mul(f, IntPolynomial.from_coeffs([-r.numerator, r.denominator]))
        alone = iter(isolate_real_roots(f))
        for x in isolate_real_roots(p):
            cf = expand(x, depth)
            if x.minpoly.sign_at(r) == 0 and x.isolating.lo <= r <= x.isolating.hi:
                assert (cf.word(), cf.terminated) == euclid(r, depth)
            else:
                other = expand(next(alone), depth)
                assert (cf.word(), cf.terminated) == (other.word(), False)

    @settings(max_examples=200, deadline=None)
    @given(poly=expansion_inputs, depth=st.integers(min_value=0, max_value=300))
    def test_matches_full_rounds(self, poly, depth):
        # the resumed joint expansion against every round expanding both
        # endpoints from scratch: same word, same refinements, same interval
        for index in range(len(isolate_real_roots(poly))):
            runs = []
            for expander in (expand, expand_by_full_rounds):
                x = isolate_real_roots(poly)[index]
                bits = _record_refinements(x)
                try:
                    cf = expander(x, depth)
                    outcome = (cf.word(), cf.terminated)
                except PrecisionExhausted:
                    outcome = "undecided"
                runs.append((outcome, bits, x.isolating))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("lo, hi, shared", [
        (Fraction(11, 8), Fraction(3, 2), [1]),  # [1; 2, 1, 2] and [1; 2]
        (Fraction(7, 5), Fraction(24, 17), [1, 2]),  # [1; 2, 2] and [1; 2, 2, 3]
    ])
    def test_last_letter_of_an_endpoint_is_not_shared(self, lo, hi, shared):
        # [..., a] is also [..., a - 1, 1], so neither endpoint vouches for its last letter
        prefix = cfspectra.cf._SharedPrefix()
        assert prefix.extend(lo, hi, 10) is not None
        assert prefix.letters == shared

    @pytest.mark.parametrize("lo, hi", [
        (Fraction(4, 3), Fraction(7, 5)),  # 4/3 = [1; 2, 1]: the tail past [1; 2] is 1
        (Fraction(7, 5), Fraction(3, 2)),  # 3/2 = [1; 2]: no tail past [1; 2]
    ])
    def test_endpoint_on_a_cylinder_boundary_restarts(self, lo, hi):
        # 7/5 = [1; 2, 2] and 17/12 = [1; 2, 2, 2] leave the prefix [1; 2]
        kept = cfspectra.cf._SharedPrefix()
        assert kept.extend(Fraction(7, 5), Fraction(17, 12), 10) == (2, 2)
        assert kept.letters == [1, 2]
        fresh = cfspectra.cf._SharedPrefix()
        assert kept.extend(lo, hi, 10) == fresh.extend(lo, hi, 10)
        assert (kept.letters, kept.pq) == (fresh.letters, fresh.pq) == ([1], (1, 1, 0, 1))


class TestConvergents:
    def test_fixture(self):
        cf = CFExpansion(0, [1, 2, 3])
        assert convergents(cf) == [(0, 1), (1, 1), (2, 3), (7, 10)]

    def test_seeds(self):
        cf = CFExpansion(5, [])
        assert cf.convergent(-2) == (0, 1)
        assert cf.convergent(-1) == (1, 0)
        assert cf.convergent(0) == (5, 1)

    def test_value_interval_brackets(self, sqrt2):
        cf = expand(sqrt2, 8)
        iv = cf.value_interval()
        assert iv.lo * iv.lo < 2 < iv.hi * iv.hi


class TestWordMatrix:
    def test_fixture(self):
        assert word_matrix((0, 1, 2, 3)) == Mat2(7, 2, 10, 3)

    @given(words)
    def test_matches_convergents(self, w):
        m = word_matrix(w)
        cf = CFExpansion(w[0], list(w[1:]))
        p, q = cf.convergent(len(w) - 1)
        p1, q1 = cf.convergent(len(w) - 2)
        assert (m.a, m.b, m.c, m.d) == (p, p1, q, q1)

    @given(words, words)
    def test_homomorphism(self, u, v):
        assert word_matrix(u + v) == word_matrix(u) @ word_matrix(v)

    @given(words)
    def test_reversal_is_transpose(self, w):
        assert word_matrix(w[::-1]) == word_matrix(w).transpose()


class TestPeriods:
    def test_sqrt2(self, sqrt2):
        form = detect_period(sqrt2)
        assert form.preperiod == (1,)
        assert form.period == (2,)

    def test_sqrt7(self):
        form = detect_period(root_of([-7, 0, 1]))
        assert form.preperiod == (2,)
        assert form.period == (1, 1, 1, 4)

    def test_golden(self, golden):
        form = detect_period(golden)
        assert form.preperiod == ()
        assert form.period == (1,)

    def test_negative_surd(self):
        x = root_of([-2, 0, 1], 0)
        form = detect_period(x)
        word = form.expand_word(3)
        cf = expand(x, len(word) - 1)
        assert cf.word() == word

    def test_roundtrip_three_periods(self):
        for coeffs in ([-2, 0, 1], [-7, 0, 1], [-1, -1, 1], [-13, 0, 1], [-3, 4, 2]):
            x = root_of(coeffs)
            form = detect_period(x)
            word = form.expand_word(3)
            cf = expand(x, len(word) - 1)
            assert cf.word() == word

    def test_period_is_minimal(self):
        # sqrt(13) = [3; 1,1,1,1,6]: naive cycle detection returns the cycle
        # possibly repeated; the reported period must be the shortest
        form = detect_period(root_of([-13, 0, 1]))
        assert form.period == (1, 1, 1, 1, 6)

    def test_rejects_non_quadratic(self, cbrt2):
        with pytest.raises(ValueError):
            detect_period(cbrt2)

    def test_negative_leading_coefficient(self, sqrt2):
        # sqrt(2) as the root of 2 - x^2 used to get the period of -sqrt(2)
        x = AlgebraicNumber(IntPolynomial.from_coeffs([2, 0, -1]), sqrt2.isolating)
        assert detect_period(x) == detect_period(sqrt2)


class TestIdentities:
    def test_all_pass_sqrt2(self, sqrt2):
        cf = expand(sqrt2, 51)
        report = verify_cf_identities(cf, 50)
        assert report.all_pass
        assert report.approximation is not None

    def test_all_pass_random_word(self):
        rng = random.Random(7)
        w = [rng.randint(1, 9) for _ in range(40)]
        report = verify_cf_identities(CFExpansion(w[0], w[1:]), 39)
        assert report.all_pass
        assert report.approximation is None  # no source number attached


    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=30), st.data())
    def test_tampered_convergent_breaks_its_identities(self, w, data):
        cf = CFExpansion(w[0], w[1:])
        depth = cf.depth
        n = data.draw(st.integers(min_value=1, max_value=depth))
        cf.convergent(0)
        p, q = cf._pq[n]
        cf._pq[n] = (2 * p, 2 * q)
        report = verify_cf_identities(cf, depth)
        touched = {n, n + 1}  # identities at n and n + 1 read the pair at n
        assert report.determinant == [i not in touched for i in range(depth + 1)]
        assert report.mirror_ratio == [i not in touched for i in range(1, depth + 1)]

    def test_approximation_matches_fractions(self, cbrt2):
        cf = expand(cbrt2, 120)
        x_iv = cbrt2.value_interval(2 * cf.convergent(120)[1].bit_length() + 32)
        expected = []
        for n in range(120):
            p, q = cf.convergent(n)
            err = (x_iv - Fraction(p, q)).abs()
            expected.append(err.hi < Fraction(1, q * cf.convergent(n + 1)[1]))
        assert verify_cf_identities(cf, 120).approximation == expected


def direct_growth(cf, depth):
    """q_{m+n}^2 * 2 >= 2^m * q_n^2 for every m, with the exact products only."""
    q = [cf.convergent(n)[1] for n in range(depth + 1)]
    return [
        all(2 * q[n + m] ** 2 >= 2**m * q[n] ** 2 for m in range(1, depth - n + 1))
        for n in range(1, depth)
    ]


# long runs of 1s grow slowest, so the bit-length test sits closest to its band
runs_of_ones = st.lists(
    st.one_of(
        st.lists(st.just(1), min_size=1, max_size=40),
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=6,
).map(lambda parts: [a for part in parts for a in part])


class TestGrowthIdentity:
    @given(runs_of_ones)
    def test_matches_direct_formula(self, w):
        cf = CFExpansion(1, w)
        assert verify_cf_identities(cf, cf.depth).convergent_growth == direct_growth(cf, cf.depth)

    @given(runs_of_ones, st.data())
    def test_matches_direct_formula_on_tampered_denominators(self, w, data):
        # scaled denominators make the identity fail, so both verdicts are compared
        cf = CFExpansion(0, w)
        cf.convergent(0)
        for n in data.draw(st.lists(st.integers(min_value=1, max_value=cf.depth), max_size=3)):
            p, q = cf._pq[n]
            cf._pq[n] = (p, q * data.draw(st.sampled_from([2, 3, 5, 16, 1000])))
        assert verify_cf_identities(cf, cf.depth).convergent_growth == direct_growth(cf, cf.depth)

    def test_band_edge(self):
        # for n = 1, m = 2 the bit lengths give t = 0: only 2 * 8^2 < 2^2 * 7^2 decides
        cf = CFExpansion(0, [1, 1, 1])
        cf.convergent(0)
        for n, q in ((1, 7), (2, 10), (3, 8)):
            cf._pq[n] = (cf._pq[n][0], q)
        growth = verify_cf_identities(cf, 3).convergent_growth
        assert growth == direct_growth(cf, 3)
        assert growth[0] is False

    def test_random_words(self):
        rng = random.Random(12)
        for _ in range(200):
            w = [rng.choice((1, 1, 1, 2, rng.randint(1, 99))) for _ in range(rng.randint(1, 80))]
            cf = CFExpansion(rng.randint(-3, 3), w)
            depth = rng.randint(0, cf.depth)
            assert verify_cf_identities(cf, depth).convergent_growth == direct_growth(cf, depth)


class TestGrowth:
    def test_integer_nth_root(self):
        assert integer_nth_root(0, 3) == 0
        assert integer_nth_root(26, 3) == 2
        assert integer_nth_root(27, 3) == 3
        assert integer_nth_root(10**60, 4) == 10**15
        r = integer_nth_root(3**100, 7)
        assert r**7 <= 3**100 < (r + 1) ** 7

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=8))
    def test_nth_root_bracket(self, n, k):
        r = integer_nth_root(n, k)
        assert r**k <= n and (r + 1) ** k > n

    def test_growth_metrics_golden(self, golden):
        cf = expand(golden, 60)
        rep = growth_metrics(cf)
        # q_n^(1/n) tends to the golden ratio
        assert Fraction(16, 10) < rep.max_enclosure.hi < Fraction(17, 10)

    def test_growth_metrics_pair(self, sqrt2, golden):
        rep = growth_metrics(expand(sqrt2, 30), expand(golden, 30))
        assert rep.max_enclosure.lo > 1
