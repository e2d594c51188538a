from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

import cfspectra.orbit
from cfspectra import (
    CFExpansion,
    IntPolynomial,
    Mat2,
    complete_unimodular,
    enumerate_bottom_rows,
    expand,
    growth_gap_scan,
    isolate_real_roots,
    moebius_apply,
    orbit_best_approximations,
    quadratic_norm,
    separation_bound,
)
from cfspectra.algebraic import AlgebraicNumber, alg_equal, quadratic_conjugate
from cfspectra.errors import PrecisionExhausted
from cfspectra.orbit import (
    ApproxRecord,
    OrbitScanResult,
    _exponent,
    _RowNorms,
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

    def test_exceedances_split(self, sqrt2, golden):
        res = orbit_best_approximations(sqrt2, golden, 15)
        ex = res.exceedances(Fraction(1, 2))
        above1 = set(id(r) for r in ex["above_1_plus_eps"])
        above2 = set(id(r) for r in ex["above_2_plus_eps"])
        assert above2 <= above1

    def test_bad_mode(self, sqrt2, golden):
        with pytest.raises(ValueError):
            orbit_best_approximations(sqrt2, golden, 5, mode="bogus")


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
# the conjugate afresh. The scans under test must return the same records in
# the same order, with the same enclosures, and the same orbit hits.


def oracle_quadratic_norm(m, alpha, bits=64):
    conj = quadratic_conjugate(alpha)
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


class TestRowNorms:
    """Norms reused per bottom row equal fresh quadratic_norm calls on the
    same alpha, also after alpha is refined between two calls."""

    @pytest.mark.parametrize(
        "poly",
        [
            [-2, 0, 1],
            [-7, 2, 3],
            # roots (1 +- sqrt 2) / 2^70: the conjugate search ends at 128 bits
            # while alpha is coarse, at 64 once alpha is fine
            [-1, -(1 << 71), 1 << 140],
        ],
    )
    def test_match_fresh_calls(self, poly):
        def fresh():
            x = root_of(poly)
            x.refine_to(8)
            return x

        alpha, ref = fresh(), fresh()
        norms = _RowNorms(alpha)
        for c, d in [(1, 1), (3, -4), (1, 1), (0, 1)]:
            assert norms.norm(2, 1, c, d) == oracle_quadratic_norm(Mat2(2, 1, c, d), ref)
        alpha.refine_to(1000)
        ref.refine_to(1000)
        for c, d in [(1, 1), (3, -4), (2, 3)]:
            assert norms.norm(2, 1, c, d) == oracle_quadratic_norm(Mat2(2, 1, c, d), ref)
