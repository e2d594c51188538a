from fractions import Fraction
from math import floor, gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import cfspectra.orbit
from cfspectra import (
    CFExpansion,
    IntPolynomial,
    Mat2,
    complete_unimodular,
    enumerate_bottom_rows,
    detect_period,
    expand,
    growth_gap_scan,
    isolate_real_roots,
    moebius_apply,
    orbit_best_approximations,
    quadratic_norm,
    separation_bound,
)
from cfspectra.algebraic import AlgebraicNumber, _above_vertex, alg_equal, quadratic_conjugate
from cfspectra.errors import PrecisionExhausted
from cfspectra.orbit import (
    ApproxRecord,
    OrbitScanResult,
    _exponent,
    _small_d,
    _xi_interval,
    rational_baseline_scan,
)

from conftest import root_of


def psl2z_normalize(m) -> Mat2:
    """Projective representative with c > 0, or c = 0 and d > 0."""
    if not isinstance(m, Mat2):
        m = Mat2(*m)
    if abs(m.det()) != 1:
        raise ValueError("determinant must be +-1")
    if m.c < 0 or (m.c == 0 and m.d < 0):
        m = -m
    return m


def norm_of(m: Mat2) -> int:
    """Matrix height max(|c|, |d|)."""
    return m.norm()


class TestEnumeration:
    def test_normalize(self):
        assert psl2z_normalize(Mat2(1, 0, -1, -1)) == Mat2(-1, 0, 1, 1)
        assert psl2z_normalize(Mat2(-1, 0, 0, -1)) == Mat2(1, 0, 0, 1)
        with pytest.raises(ValueError):
            psl2z_normalize(Mat2(2, 0, 0, 2))

    def test_bottom_rows_complete_and_distinct(self):
        h = 12
        rows = list(enumerate_bottom_rows(h))
        assert len(rows) == len(set(rows))
        brute = {(0, 1)}
        for c in range(1, h + 1):
            for d in range(-h, h + 1):
                if gcd(c, abs(d)) == 1:
                    brute.add((c, d))
        assert set(rows) == brute

    def test_completion_dets(self):
        for c, d in [(0, 1), (1, 0), (3, 5), (7, -4)]:
            for det in (1, -1):
                m = complete_unimodular(c, d, det)
                assert (m.c, m.d) == (c, d)
                assert m.det() == det

    def test_completion_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            complete_unimodular(2, 4, 1)

    def test_norm(self):
        assert norm_of(Mat2(9, 9, 2, -5)) == 5


class TestQuadraticNorm:
    def test_identity_at_sqrt2(self, sqrt2):
        # |(0*a+1)(0*s+1)/(a-s)| = 1/(2 sqrt 2)
        enc = quadratic_norm(Mat2(1, 0, 0, 1), sqrt2)
        truth = Fraction(353553390593, 10**12)
        assert enc.lo < truth + Fraction(1, 10**6)
        assert enc.hi > truth - Fraction(1, 10**6)

    def test_requires_quadratic(self, cbrt2):
        with pytest.raises(ValueError):
            quadratic_norm(Mat2(1, 0, 0, 1), cbrt2)

    def test_given_conjugate(self, sqrt2):
        fresh = quadratic_norm(Mat2(2, 1, 3, -1), root_of([-2, 0, 1]))
        conj = quadratic_conjugate(sqrt2)
        assert quadratic_norm(Mat2(2, 1, 3, -1), sqrt2, conj=conj) == fresh

    def test_precision_cap(self, monkeypatch):
        # 2^140 x^2 - 2^71 x - 1 has the roots (1 +- sqrt 2) / 2^70. Given the
        # other root unrefined, its 64-bit cell overlaps alpha's, so the norm
        # doubles to 128 bits; with the cap at 64 that is undecided
        close = isolate_real_roots(IntPolynomial.from_coeffs([-1, -(1 << 71), 1 << 140]))
        enc = quadratic_norm(Mat2(1, 0, 0, 1), close[1], conj=close[0])
        assert enc.lo > 0
        close = isolate_real_roots(IntPolynomial.from_coeffs([-1, -(1 << 71), 1 << 140]))
        monkeypatch.setattr(cfspectra.orbit, "REFINE_HARD_CAP", 64)
        with pytest.raises(PrecisionExhausted):
            quadratic_norm(Mat2(1, 0, 0, 1), close[1], conj=close[0])


class TestScan:
    def test_xi_in_orbit_flagged(self, golden):
        shifted = moebius_apply(Mat2(1, 1, 0, 1), golden)
        res = orbit_best_approximations(shifted, golden, 5)
        assert res.xi_in_orbit
        for m in res.xi_in_orbit:
            assert abs(m.det()) == 1

    def test_self_orbit_identity_case(self, sqrt2):
        res = orbit_best_approximations(sqrt2, sqrt2, 3)
        assert any((m.c, m.d) == (0, 1) for m in res.xi_in_orbit)

    def test_records_sorted_and_improving(self, sqrt2, golden):
        res = orbit_best_approximations(sqrt2, golden, 25)
        norms = [r.norm for r in res.records]
        assert norms == sorted(norms)
        for r in res.records:
            assert r.distance.lo > 0
            assert r.exponent.lo <= r.exponent.hi

    def test_rational_baseline_on_word(self):
        cf = expand(root_of([-2, 0, 1]), 25)
        res = orbit_best_approximations(cf, None, 200, min_norm=10)
        assert res.records
        for r in res.records:
            assert isinstance(r.norm, int) and r.norm >= 10

    def test_quadratic_mode_filters(self, sqrt2, golden):
        res = orbit_best_approximations(sqrt2, golden, 10, mode="quadratic")
        for r in res.records:
            assert r.norm.hi <= 10

    def test_bad_mode(self, sqrt2, golden):
        with pytest.raises(ValueError):
            orbit_best_approximations(sqrt2, golden, 5, mode="bogus")

    def test_quadratic_mode_needs_alpha(self, sqrt2):
        # used to return the rational baseline's records
        with pytest.raises(ValueError):
            orbit_best_approximations(sqrt2, None, 5, mode="quadratic")


class TestSeparation:
    def test_sqrt2_vs_sqrt3(self, sqrt2, sqrt3):
        sep = separation_bound(expand(sqrt2, 25), expand(sqrt3, 25))
        assert sep.n == 1  # words diverge at the first partial quotient
        assert sep.distance.lo >= sep.bound
        assert sep.ok

    def test_divergence_at_a0(self, sqrt2):
        beta = expand(root_of([-7, 0, 1]), 25)
        sep = separation_bound(expand(sqrt2, 25), beta)
        assert sep.n == 0
        assert sep.ok

    def test_no_divergence_raises(self, sqrt2):
        cf = expand(sqrt2, 20)
        with pytest.raises(ValueError):
            separation_bound(cf, expand(sqrt2, 25))


class TestGapsAndNorms:
    def test_growth_gap_small_eps_everywhere(self, golden):
        cf = expand(golden, 40)
        # q_{n+5} > q_n^{1.01} holds for every n once q_n > 1
        hits = growth_gap_scan(cf, 5, Fraction(1, 100))
        assert hits == list(range(1, 36))

    def test_growth_gap_large_eps_finite(self, sqrt2):
        cf = expand(sqrt2, 60)
        hits = growth_gap_scan(cf, 1, Fraction(2))
        # q_{n+1} > q_n^3 can only happen at tiny n for bounded quotients
        assert all(n <= 3 for n in hits)

    def test_gap_validation(self, sqrt2):
        cf = expand(sqrt2, 10)
        with pytest.raises(ValueError):
            growth_gap_scan(cf, 0, Fraction(1, 2))


# ---------------------------------------------------- equivalence referee
# The scans as they were before pruning and integer arithmetic: every
# candidate pays a log enclosure on FInterval images, and every norm finds
# the conjugate afresh by the interval search the library used before its
# vertex test. The scans under test must return the same records in the same
# order, with the same enclosures, and the same orbit hits.


def frozen_quadratic_conjugate(x):
    """The other root of x's quadratic, by separating intervals at 16, 32, ...
    bits; refines x in place."""
    roots = isolate_real_roots(x.minpoly)
    bits = 16
    while True:
        x.refine_to(bits)
        for r in roots:
            r.refine_to(bits)
        apart = [r for r in roots
                 if r.isolating.hi < x.isolating.lo or r.isolating.lo > x.isolating.hi]
        if apart:
            (conj,) = apart
            return conj
        bits *= 2


def oracle_quadratic_norm(m, alpha, bits=64):
    conj = frozen_quadratic_conjugate(alpha)
    work = bits
    while True:
        a = alpha.value_interval(work)
        s = conj.value_interval(work)
        num = (m.c * a + Fraction(m.d)) * (m.c * s + Fraction(m.d))
        den = a - s
        if not den.contains_zero():
            return (num / den).abs()
        work *= 2


def oracle_rational_scan(xi, height, bits=256, min_norm=2):
    result = OrbitScanResult()
    xi_iv = _xi_interval(xi, bits)
    mid = (xi_iv.lo + xi_iv.hi) / 2
    best_hi = Fraction(0)
    for c in range(max(2, min_norm), height + 1):
        for a in (floor(c * mid), floor(c * mid) + 1):
            if gcd(abs(a), c) != 1:
                continue
            dist = (xi_iv - Fraction(a, c)).abs()
            if dist.hi == 0:
                result.xi_in_orbit.append(complete_unimodular(c, _small_d(a, c), 1))
                continue
            if dist.lo > 0 and best_hi >= 2 and dist.lo * c * c > 1:
                continue
            exp = _exponent(dist, c)
            if exp is None:
                continue
            if exp.hi > best_hi:
                best_hi = exp.hi
                result.records.append(
                    ApproxRecord(complete_unimodular(c, _small_d(a, c), 1), c, dist, exp)
                )
    result.records.sort(key=lambda r: r.norm)
    return result


def oracle_scan(xi, alpha, height, mode="classic", *, bits=192, min_norm=2):
    if alpha is None:
        return oracle_rational_scan(xi, height, bits=bits, min_norm=min_norm)
    result = OrbitScanResult()
    xi_iv = _xi_interval(xi, bits)
    xi_mid = (xi_iv.lo + xi_iv.hi) / 2
    a_iv = alpha.value_interval(bits)
    best_hi = Fraction(0)
    candidates = []
    for c, d in enumerate_bottom_rows(height):
        den = c * a_iv + Fraction(d)
        if den.contains_zero():
            alpha.refine_to(bits * 2)
            a_iv = alpha.value_interval(bits * 2)
            den = c * a_iv + Fraction(d)
            if den.contains_zero():
                continue
        for det in (1, -1):
            base = complete_unimodular(c, d, det)
            beta0 = (base.a * a_iv + Fraction(base.b)) / den
            t_opt = floor(xi_mid - (beta0.lo + beta0.hi) / 2 + Fraction(1, 2))
            for t in (t_opt - 1, t_opt, t_opt + 1):
                m = psl2z_normalize(Mat2(base.a + t * c, base.b + t * d, c, d))
                candidates.append((m, beta0 + Fraction(t)))
    for m, beta in candidates:
        dist = (xi_iv - beta).abs()
        if dist.lo <= 0:
            if isinstance(xi, AlgebraicNumber) and alg_equal(moebius_apply(m, alpha), xi):
                result.xi_in_orbit.append(m)
            continue
        if mode == "quadratic":
            nrm = oracle_quadratic_norm(m, alpha, bits=64)
            if not (nrm.hi <= height):
                continue
        else:
            nrm = norm_of(m)
            if nrm < min_norm:
                continue
        exp = _exponent(dist, nrm)
        if exp is None:
            continue
        if exp.hi > best_hi:
            best_hi = exp.hi
            result.records.append(ApproxRecord(m, nrm, dist, exp))
    result.records.sort(key=lambda r: r.norm if isinstance(r.norm, int) else r.norm.lo)
    return result


def _outcome(scan, *args, **kwargs):
    try:
        res = scan(*args, **kwargs)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__
    return [r.to_dict() for r in res.records], res.xi_in_orbit


XI_POLYS = [[-2, 0, 0, 1], [-3, 0, 0, 1], [-2, 0, 0, 0, 1], [1, -3, 0, 1], [-5, 1, 0, 1], [-3, 0, 1]]
QUADRATICS = [
    [-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-7, 2, 3], [1, -5, 2], [-11, 3, 1],
    [-1, -(1 << 21), 1 << 40],  # conjugates about 2^-18 apart: found at 32 bits
    [-1, -(1 << 71), 1 << 140],  # about 2^-68 apart: the norm needs 128 bits
]
HITS = [Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0), Mat2(2, 1, 1, 1), Mat2(1, -3, 1, -2), Mat2(3, 2, 4, 3)]


def _nth_root(coeffs, i):
    roots = isolate_real_roots(IntPolynomial.from_coeffs(coeffs))
    return roots[i % len(roots)]


class TestScanMatchesUnpruned:
    @settings(max_examples=40, deadline=None)
    @given(
        xi_poly=st.sampled_from(XI_POLYS),
        alpha_poly=st.sampled_from(QUADRATICS),
        roots=st.tuples(st.integers(0, 3), st.integers(0, 1)),
        target=st.sampled_from(["root", "word", "hit"]),
        depth=st.integers(0, 25),
        hit=st.sampled_from(HITS),
        height=st.integers(1, 9),
        mode=st.sampled_from(["classic", "quadratic"]),
        min_norm=st.integers(1, 4),
        bits=st.sampled_from([1, 2, 8, 64, 192]),
    )
    def test_orbit(self, xi_poly, alpha_poly, roots, target, depth, hit, height, mode,
                   min_norm, bits):
        def build():
            # fresh numbers per scan: scans refine them in place
            alpha = _nth_root(alpha_poly, roots[1])
            if target == "hit":
                xi = moebius_apply(hit, _nth_root(alpha_poly, roots[1]))
            elif target == "word":
                xi = expand(_nth_root(xi_poly, roots[0]), depth)
            else:
                xi = _nth_root(xi_poly, roots[0])
            return xi, alpha

        kwargs = dict(bits=bits, min_norm=min_norm)
        expected = _outcome(oracle_scan, *build(), height, mode, **kwargs)
        assert _outcome(orbit_best_approximations, *build(), height, mode, **kwargs) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        xi_poly=st.sampled_from(XI_POLYS + QUADRATICS[:6]),
        root=st.integers(0, 3),
        target=st.sampled_from(["root", "word", "rational"]),
        depth=st.integers(0, 25),
        height=st.integers(2, 3000),
        min_norm=st.integers(1, 4),
        bits=st.sampled_from([1, 8, 64, 256]),
    )
    def test_rational_baseline(self, xi_poly, root, target, depth, height, min_norm, bits):
        def build():
            x = _nth_root(xi_poly, root)
            if target == "root":
                return x
            cf = expand(x, depth)
            if target == "rational":
                return CFExpansion(cf.a0, cf.quotients, terminated=True)
            return cf

        kwargs = dict(bits=bits, min_norm=min_norm)
        expected = _outcome(oracle_rational_scan, build(), height, **kwargs)
        assert _outcome(rational_baseline_scan, build(), height, **kwargs) == expected
        assert _outcome(orbit_best_approximations, build(), None, height, **kwargs) == expected


# ------------------------------------------------ quadratic branch referee
# The vertex test against the interval searches it replaced: the conjugate,
# the norm with one conjugate for many rows while alpha is refined in
# between, the scan that reuses a norm per row, and detect_period's branch.
# Quadratics come with close conjugates, rational roots (dyadic or not) and
# coefficients up to 2^60; alpha at its isolating interval or at 1-256 bits.


def frozen_above_vertex(x):
    """detect_period's branch as it was decided: refine x in place until its
    interval leaves the vertex."""
    _, b, a = x.minpoly.coeffs
    pivot = Fraction(-b, 2 * a)
    bits = 8
    while x.isolating.lo <= pivot <= x.isolating.hi:
        x.refine_to(bits)
        bits *= 2
    return x.isolating.lo > pivot


def frozen_detect_period(x):
    """detect_period with the branch decided by frozen_above_vertex."""
    c0, c1, c2 = x.minpoly.coeffs
    a, b, c = c2, c1, c0
    disc = b * b - 4 * a * c
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        raise ValueError("not a quadratic irrational")
    P, Q = (-b, 2 * a) if frozen_above_vertex(x) else (b, -2 * a)
    sq = isqrt(disc)
    seen = {}
    word = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(word)
        an = (P + sq) // Q if Q > 0 else -((P + sq) // (-Q)) - 1
        word.append(an)
        P = an * Q - P
        Q = (disc - P * P) // Q
    start = seen[(P, Q)]
    pre, cycle = word[:start], word[start:]
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            cycle = cycle[:d]
            break
    while pre and pre[-1] == cycle[-1]:
        pre.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return tuple(pre), tuple(cycle)


BRANCH_QUADRATICS = [
    [-1, -(1 << 21), 1 << 40], [-1, -(1 << 71), 1 << 140],  # close conjugates
    [-3, 5, 2], [-1, 0, 4], [1, -4, 3], [-2, 1, 3],  # rational roots
    [-7, 2, 3], [-1, -20, 5], [-2, 0, 1],
]


@st.composite
def quadratics(draw):
    kind = draw(st.sampled_from(["listed", "small", "large", "reducible"]))
    if kind == "listed":
        return draw(st.sampled_from(BRANCH_QUADRATICS))
    if kind == "reducible":
        # (q0 x - p0)(q1 x - p1) with distinct roots
        q0, q1 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        p0, p1 = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
        assume(p0 * q1 != p1 * q0)
        return [p0 * p1, -(p0 * q1 + p1 * q0), q0 * q1]
    top = 30 if kind == "small" else 1 << 60
    coeff = st.integers(-top, top)
    c, b, a = draw(coeff), draw(coeff), draw(st.integers(1, top))
    assume(b * b - 4 * a * c > 0)
    return [c, b, a]


def _raised_or(f, *args):
    try:
        return f(*args)
    except ValueError:
        return "ValueError"


def _referee(poly, index, bits, rows) -> bool:
    """Check the vertex test's users against the frozen searches on the root
    at `bits` (None: as isolated). True when the vertex is in its interval."""

    def fresh():
        x = _nth_root(poly, index)
        if bits is not None:
            x.refine_to(bits)
        return x

    x = fresh()
    c, b, a = x.minpoly.coeffs
    before = x.isolating
    conj = quadratic_conjugate(x)
    # the frozen search's cell lies inside one isolating interval only
    old = frozen_quadratic_conjugate(fresh()).isolating
    assert conj.isolating.lo <= old.lo and old.hi <= conj.isolating.hi
    assert _above_vertex(x) == frozen_above_vertex(fresh())
    if b * b - 4 * a * c < 10**8:  # periods shorter than 10^4
        form = _raised_or(detect_period, x)
        if form != "ValueError":
            form = form.preperiod, form.period
        assert form == _raised_or(frozen_detect_period, fresh())
    assert x.isolating == before  # neither refines its argument
    # one conjugate for every row, as in the scan; each norm equals a fresh
    # call of the old search on a number in the same state
    ref = fresh()
    for row_c, row_d, refine in rows:
        m = Mat2(1, 0, row_c, row_d)
        assert quadratic_norm(m, x, conj=conj) == oracle_quadratic_norm(m, ref)
        x.refine_to(refine)
        ref.refine_to(refine)
    return before.lo <= Fraction(-b, 2 * a) <= before.hi


class TestQuadraticBranch:
    def test_matches_frozen_searches(self):
        @settings(max_examples=120, deadline=None)
        @given(
            poly=quadratics(),
            index=st.integers(0, 1),
            bits=st.integers(1, 256),
            rows=st.lists(
                st.tuples(st.integers(0, 9), st.integers(-9, 9), st.integers(1, 256)),
                min_size=1, max_size=4,
            ),
        )
        def check(poly, index, bits, rows):
            for level in (None, bits):
                _referee(poly, index, level, rows)

        check()

    # (poly, index) whose isolating interval holds the vertex -b/(2a), the case
    # the side test cannot decide: close conjugates, rational roots, and a
    # vertex on an endpoint of the interval
    VERTEX_INSIDE = [
        ([-1, -(1 << 21), 1 << 40], 1), ([-1, -(1 << 71), 1 << 140], 1),
        ([-3, 5, 2], 0), ([1, -4, 3], 0), ([-2, 1, 3], 0), ([-7, 2, 3], 0),
        ([-1, -20, 5], 1), ([-1, 0, 4], 1), ([-2, 0, 1], 0), ([-2, 0, 1], 1),
    ]

    @pytest.mark.parametrize("poly, index", VERTEX_INSIDE)
    def test_vertex_inside_the_interval(self, poly, index):
        assert _referee(poly, index, None, [(0, 1, 8), (1, -2, 64), (3, 7, 200)])

    @settings(max_examples=30, deadline=None)
    @given(
        poly=quadratics(),
        index=st.integers(0, 1),
        xi_poly=st.sampled_from(XI_POLYS),
        hit=st.one_of(st.none(), st.integers(-2, 2)),
        height=st.integers(1, 3),
        bits=st.integers(1, 256),
    )
    def test_scan_reuses_row_norms(self, poly, index, xi_poly, hit, height, bits):
        # an orbit hit makes alg_equal refine alpha between two rows
        def build():
            alpha = _nth_root(poly, index)
            if hit is None:
                return _nth_root(xi_poly, 0), alpha
            return moebius_apply(Mat2(1, hit, 0, 1), _nth_root(poly, index)), alpha

        args = (height, "quadratic")
        expected = _outcome(oracle_scan, *build(), *args, bits=bits)
        assert _outcome(orbit_best_approximations, *build(), *args, bits=bits) == expected
