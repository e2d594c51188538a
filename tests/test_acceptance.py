"""Acceptance suite: each test pins one headline guarantee of the package,
with an explicit wall-clock budget and, where stated, an independent oracle.
"""

import random
import resource
import time
from fractions import Fraction
from math import floor, gcd

from cfspectra import (
    CFExpansion,
    IntPolynomial,
    PairContext,
    check_L1_smallness,
    check_transport_identity,
    detect_period,
    expand,
    find_mirror_repetitions,
    find_repetitions,
    find_shared_blocks,
    isolate_real_roots,
    moebius_apply,
    orbit_best_approximations,
    separation_bound,
    subword_complexity,
    validate_witness,
    word_matrix,
)
from cfspectra.orbit import complete_unimodular

from conftest import root_of
from test_words import oracle_repetitions, oracle_shared


def timed(budget_s):
    """Context manager asserting the block stays within its time budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            assert self.elapsed < budget_s, f"budget {budget_s}s exceeded: {self.elapsed:.1f}s"

    return _Timer()


def test_1_exact_identity_suite():
    """Determinant alternation, mirror ratio, and the word-matrix
    homomorphism hold exactly on 1000 random quotient words."""
    rng = random.Random(20260823)
    with timed(5):
        for _ in range(1000):
            n = rng.randint(1, 50)
            w = [rng.randint(1, 9) for _ in range(n)]
            cf = CFExpansion(w[0], w[1:])
            # p_n q_{n-1} - p_{n-1} q_n = (-1)^(n+1)
            for i in range(n):
                p, q = cf.convergent(i)
                p1, q1 = cf.convergent(i - 1)
                assert p * q1 - p1 * q == (-1) ** (i + 1)
            # q_n / q_{n-1} = [a_n; a_{n-1}, ..., a_1], built incrementally
            r = None
            for i in range(1, n):
                a = w[i]
                r = Fraction(a) if r is None else a + 1 / r
                _, qn = cf.convergent(i)
                _, qm = cf.convergent(i - 1)
                assert Fraction(qn, qm) == r
            # homomorphism at a random split, and matrix/convergent agreement
            if n >= 2:
                k = rng.randint(1, n - 1)
                assert word_matrix(w) == word_matrix(w[:k]) @ word_matrix(w[k:])
            m = word_matrix(w)
            p, q = cf.convergent(n - 1)
            assert (m.a, m.c) == (p, q)


def _gauss_oracle(coeffs, nquots, bits=1200):
    """Independent expansion: plain bisection to 2^-bits, then the interval
    Gauss map with floors accepted only when both endpoints agree."""
    p = IntPolynomial.from_coeffs(coeffs)
    lo, hi = Fraction(1), Fraction(2)
    slo = p.sign_at(lo)
    assert slo != 0 and p.sign_at(hi) == -slo
    for _ in range(bits):
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        assert s != 0
        if s == slo:
            lo = mid
        else:
            hi = mid
    word = []
    for _ in range(nquots + 1):
        alo, ahi = floor(lo), floor(hi)
        assert alo == ahi, "oracle floor not certified at this precision"
        word.append(alo)
        flo, fhi = lo - alo, hi - ahi
        assert flo > 0
        lo, hi = 1 / fhi, 1 / flo
    return word


def test_2_expansion_fixtures_against_gauss_oracle():
    """First 50 quotients of the real roots of x^3-2, x^3-3, x^4-2 match an
    interval-Gauss-map oracle run at >= 1024 bits."""
    for coeffs in ([-2, 0, 0, 1], [-3, 0, 0, 1], [-2, 0, 0, 0, 1]):
        with timed(10):
            cf = expand(root_of(coeffs), 50)
            assert list(cf.word()) == _gauss_oracle(coeffs, 50)


def test_3_quadratic_periods():
    with timed(1):
        f2 = detect_period(root_of([-2, 0, 1]))
        assert (f2.preperiod, f2.period) == ((1,), (2,))
        f7 = detect_period(root_of([-7, 0, 1]))
        assert (f7.preperiod, f7.period) == ((2,), (1, 1, 1, 4))
        fg = detect_period(root_of([-1, -1, 1]))
        assert (fg.preperiod, fg.period) == ((), (1,))
        for coeffs in ([-2, 0, 1], [-7, 0, 1], [-1, -1, 1]):
            x = root_of(coeffs)
            word = detect_period(x).expand_word(3)
            assert expand(x, len(word) - 1).word() == word


def test_4_approximation_and_growth_bounds():
    """|x - p_n/q_n| < 1/(q_n q_{n+1}) and q_{m+n} >= 2^((m-1)/2) q_n for ten
    algebraic numbers of degrees 2-4, n <= 200, m <= 50."""
    numbers = [
        [-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-7, 0, 1],
        [-2, 0, 0, 1], [-3, 0, 0, 1], [-5, 0, 0, 1], [-1, -1, 0, 1],
        [-2, 0, 0, 0, 1], [-1, -1, 0, 0, 1],
    ]
    with timed(60):
        for coeffs in numbers:
            x = root_of(coeffs)
            cf = expand(x, 201)
            _, q_last = cf.convergent(201)
            x_iv = x.value_interval(2 * q_last.bit_length() + 64)
            for n in range(201):
                p, q = cf.convergent(n)
                _, q1 = cf.convergent(n + 1)
                err = (x_iv - Fraction(p, q)).abs()
                assert err.hi < Fraction(1, q * q1)
            for n in range(201):
                _, qn = cf.convergent(n)
                for m in range(1, min(50, 200 - n) + 1):
                    _, qmn = cf.convergent(m + n)
                    assert 2 * qmn * qmn >= (1 << m) * qn * qn


def test_5_transport_identities():
    """The block-transport matrix identity and its mirrored variant hold on
    1000 random (A, A', B) triples with lengths <= 8."""
    rng = random.Random(5)
    with timed(5):
        for _ in range(1000):
            a = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            a2 = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            assert check_transport_identity(a, a2, b)
            assert check_transport_identity(a, a2, b, mirror=True)


def test_6_l1_smallness_on_constructed_witnesses():
    """50 tail-spliced pairs: the first linear form is certified below
    2/(q_{k+m} q'_{l+m}) at <= 1024 bits, never undecided."""
    rng = random.Random(6)
    bases = [[-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-2, 0, 0, 1]]
    with timed(120):
        done = 0
        while done < 50:
            alpha = root_of(bases[done % 4])
            c = rng.randint(1, 9)
            d = rng.choice([v for v in range(-9, 10) if gcd(c, abs(v)) == 1])
            m = complete_unimodular(c, d, rng.choice((1, -1)))
            alpha2 = moebius_apply(m, alpha)
            ctx = PairContext.build(alpha, alpha2, 60)
            wits = find_shared_blocks(
                ctx.cf.quotients, ctx.cf2.quotients, L=10, min_b=25
            )
            if not wits:
                continue  # splice landed outside the witness ratio budget
            wt = max(wits, key=lambda t: t.m)
            assert check_L1_smallness(ctx, wt, bits=1024) is True
            done += 1


def test_7_detector_oracle_equivalence():
    """Detectors agree exactly with cubic brute-force oracles on 10^4 sampled
    words of length <= 14 over the alphabet {1,2,3}."""
    rng = random.Random(7)
    words = [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 14)))
        for _ in range(10**4)
    ]
    with timed(300):
        for w in words:
            got = [(t.kA, t.kA_prime, t.m) for t in find_repetitions(w, 3, 1)]
            assert got == oracle_repetitions(w, 3, 1, False)
            got = [(t.kA, t.kA_prime, t.m) for t in find_mirror_repetitions(w, 3, 1)]
            assert got == oracle_repetitions(w, 3, 1, True)
        for w, w2 in zip(words, words[1:]):
            got = sorted((t.k, t.l, t.m) for t in find_shared_blocks(w, w2, 3, 1))
            assert got == oracle_shared(w, w2, 3, 1, False)
            got = sorted(
                (t.k, t.l, t.m) for t in find_shared_blocks(w, w2, 3, 1, mirror=True)
            )
            assert got == oracle_shared(w, w2, 3, 1, True)


def test_8_subword_complexity():
    """Fibonacci prefix has p(w,n) = n+1; periodic words have p <= period."""
    with timed(1):
        s = (1,)
        while len(s) < 500:
            s = tuple(1 if a == 2 else x for a in s for x in ((1, 2) if a == 1 else (1,)))
        w = s[:500]
        for n in range(1, 16):
            assert subword_complexity(w, n) == n + 1
        periodic = (3, 1, 4, 1, 5) * 40
        for n in range(1, 20):
            assert subword_complexity(periodic, n) <= 5


def test_9_separation_lemma():
    """100 random CF pairs diverging at position n <= 30 keep a distance of at
    least 1/(72 q_n^2 b_{n+1} b_{n+2})."""
    rng = random.Random(9)
    with timed(30):
        for _ in range(100):
            n = rng.randint(0, 30)
            # two words equal up to index n-1 and different at index n
            common = [rng.randint(1, 9) for _ in range(n)]
            if common:
                common[0] = rng.randint(-5, 5)  # a0 may be any integer
            va = rng.randint(1, 9)
            vb = rng.choice([v for v in range(1, 10) if v != va])
            tail_a = [rng.randint(1, 9) for _ in range(30)]
            tail_b = [rng.randint(1, 9) for _ in range(30)]
            if n == 0:
                wa = [va] + tail_a
                wb = [vb] + tail_b
            else:
                wa = common[:n] + [va] + tail_a
                wb = common[:n] + [vb] + tail_b
            cfa = CFExpansion(wa[0], wa[1:])
            cfb = CFExpansion(wb[0], wb[1:])
            sep = separation_bound(cfa, cfb)
            assert sep.n == n
            assert sep.distance.lo >= sep.bound
            assert sep.ok


def test_10_rational_baseline_negative_control():
    """Rational-approximation scan of sqrt(2) up to height 10^4: no record is
    certified above exponent 2.5 (denominators below 10 excluded as trivially
    inflated)."""
    sqrt2 = root_of([-2, 0, 1])
    with timed(120):
        res = orbit_best_approximations(sqrt2, None, 10**4, min_norm=10)
        assert res.records, "scan produced no records at all"
        assert all(not (r.exponent.lo > Fraction(5, 2)) for r in res.records)


def test_11_performance_depth_1000():
    """Depth-1000 expansion of the real root of x^3 - 2 in under 10 s and
    under 1 GB peak memory."""
    x = isolate_real_roots(IntPolynomial.from_coeffs([-2, 0, 0, 1]))[0]
    with timed(10):
        cf = expand(x, 1000)
    assert cf.depth == 1000
    assert all(a >= 1 for a in cf.quotients)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 1024 * 1024  # 1 GB, Linux reports kilobytes


def test_12_detectors_at_1000_letters():
    """All four detectors on the depth-1000 words of the real roots of x^3-2
    and x^3-3 within 20 s; every witness re-validates against the words."""
    a = tuple(expand(root_of([-2, 0, 0, 1]), 1000).quotients)
    b = tuple(expand(root_of([-3, 0, 0, 1]), 1000).quotients)
    with timed(20):
        shared = find_shared_blocks(a, b, 2, 1) + find_shared_blocks(a, b, 2, 1, mirror=True)
        repetitions = [
            (w, wt)
            for w in (a, b)
            for wt in find_repetitions(w, 2, 1) + find_mirror_repetitions(w, 2, 1)
        ]
    assert shared and repetitions
    for wt in shared:
        assert validate_witness(wt, a, b)
        assert wt.m >= 1 and wt.ratio <= 2
    for w, wt in repetitions:
        j = wt.kA + wt.m + wt.kA_prime
        first, second = w[wt.kA : wt.kA + wt.m], w[j : j + wt.m]
        assert len(second) == wt.m
        assert first == (second[::-1] if wt.mirror else second)
        assert wt.kA >= 1 and wt.kA_prime >= 1
        assert wt.ratio == Fraction(wt.kA + wt.kA_prime, wt.m) <= 2


def test_13_orbit_scan_height_100():
    """Classic orbit scan of the real root of x^3 - 2 against sqrt(2) up to
    height 100 within 10 s: 97 records, each unimodular, with norm
    max(|c|, |d|) and a distance enclosure meeting |xi - M(alpha)| at 400 bits."""
    xi, alpha = root_of([-2, 0, 0, 1]), root_of([-2, 0, 1])
    with timed(10):
        res = orbit_best_approximations(xi, alpha, 100)
    assert len(res.records) == 97
    xi_iv, a_iv = root_of([-2, 0, 0, 1]).value_interval(400), root_of([-2, 0, 1]).value_interval(400)
    for r in res.records:
        m = r.matrix
        assert abs(m.det()) == 1
        assert r.norm == max(abs(m.c), abs(m.d))
        true = (xi_iv - (m.a * a_iv + Fraction(m.b)) / (m.c * a_iv + Fraction(m.d))).abs()
        assert r.distance.lo <= true.hi and true.lo <= r.distance.hi
        assert 0 < r.distance.lo
