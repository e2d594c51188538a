"""PSL(2,Z) enumeration, norms, best-approximant scanning, and the
separation / growth-gap lemma checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, log2

from .algebraic import (
    REFINE_HARD_CAP,
    AlgebraicNumber,
    alg_equal,
    moebius_apply,
    quadratic_conjugate,
)
from .cf import CFExpansion
from .enclose import log_ratio_enclosure
from .errors import PrecisionExhausted
from .intervals import FInterval
from .matrices import Mat2


def quadratic_norm(
    m: Mat2, alpha: AlgebraicNumber, *, conj: AlgebraicNumber | None = None
) -> FInterval:
    """Enclosure of |(c a + d)(c a^s + d) / (a - a^s)| for quadratic a.

    conj, when given, is alpha's conjugate (the other root of its minimal
    polynomial). The enclosures are the cells of alpha and conj at the first
    of 64, 128, ... bits where they are apart; past REFINE_HARD_CAP that is
    undecided. alpha is refined in place, conj in place only up to 64 bits and
    past that as a copy, so conj's cell depends on the level alone.
    """
    if conj is None:
        conj = quadratic_conjugate(alpha)  # ValueError unless alpha is quadratic
    work = 64
    while True:
        a = alpha.value_interval(work)
        if work > 64:
            conj = AlgebraicNumber(conj.minpoly, conj.isolating)
        s = conj.value_interval(work)
        num = (m.c * a + Fraction(m.d)) * (m.c * s + Fraction(m.d))
        den = a - s
        if not den.contains_zero():
            return (num / den).abs()
        work *= 2
        if work > REFINE_HARD_CAP:
            raise PrecisionExhausted("quadratic norm: conjugates not separated at the cap")


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def enumerate_bottom_rows(height: int):
    """Coprime (c, d) with max(|c|, |d|) <= height, normalized orientation."""
    if height < 1:
        raise ValueError("height must be >= 1")
    yield (0, 1)
    for c in range(1, height + 1):
        for d in range(-height, height + 1):
            if gcd(c, abs(d)) == 1:
                yield (c, d)


def complete_unimodular(c: int, d: int, det: int) -> Mat2:
    """Some (a, b) completing the bottom row to determinant det."""
    g, u, v = _egcd(d, c)
    if g != 1:
        raise ValueError("bottom row must be coprime")
    # u*d + v*c = 1 -> (u)*d - (-v)*c = 1
    if det == 1:
        return Mat2(u, -v, c, d)
    if det == -1:
        return Mat2(-u, v, c, d)
    raise ValueError("det must be +-1")


@dataclass(frozen=True)
class ApproxRecord:
    matrix: Mat2
    norm: object  # int (classic) or FInterval (quadratic mode)
    distance: FInterval
    exponent: FInterval

    def to_dict(self) -> dict:
        nrm = self.norm if isinstance(self.norm, int) else [str(self.norm.lo), str(self.norm.hi)]
        return {
            "matrix": [self.matrix.a, self.matrix.b, self.matrix.c, self.matrix.d],
            "norm": nrm,
            "distance": [str(self.distance.lo), str(self.distance.hi)],
            "exponent": [float(self.exponent.lo), float(self.exponent.hi)],
        }


@dataclass
class OrbitScanResult:
    records: list[ApproxRecord] = field(default_factory=list)
    xi_in_orbit: list[Mat2] = field(default_factory=list)


def _xi_interval(xi, bits: int) -> FInterval:
    if isinstance(xi, AlgebraicNumber):
        return xi.value_interval(bits)
    if isinstance(xi, CFExpansion):
        return xi.value_interval()
    raise TypeError("xi must be an AlgebraicNumber or a CFExpansion")


def _exponent(distance: FInterval, norm) -> FInterval | None:
    if distance.lo <= 0 or (norm if isinstance(norm, int) else norm.lo) <= 1:
        return None
    return log_ratio_enclosure(FInterval(1 / distance.hi, 1 / distance.lo), norm)


# Pruning against the running best. A candidate is a record when the upper end
# of its exponent enclosure, log(1/dist.lo) / log(norm.lo) from
# log_ratio_enclosure at 96 bits, exceeds best_hi. With log2(norm.lo) >=
# _PRUNE_MIN_LOG2 that end overshoots the true ratio by at most 2^-105 (1 + |U|)
# (the enclosure's proven bound), and U below, the same ratio in floats from
# two _log2_ratio calls within 2^-51 (1 + |log2|) each, is within about
# 2^-40 (1 + |U|) of it. So U + 2^-30 (1 + |U|) < float(best_hi), which also
# absorbs best_hi's rounding to a float, proves exp.hi <= best_hi: the unpruned
# scan would not have recorded the candidate, and best_hi evolves exactly as
# there. Norms closer to 1 are never pruned.
_PRUNE_MARGIN = 2.0**-30
_PRUNE_MIN_LOG2 = 2.0**-10


def _log2_ratio(num: int, den: int) -> float:
    """log2(num / den) for positive integers, within 2^-51 (1 + |result|)."""
    k = num.bit_length() - den.bit_length()
    if k > 0:
        den <<= k
    else:
        num <<= -k
    return k + log2(num / den)  # num / den is in (1/2, 2), correctly rounded


def _cannot_beat(dist_num: int, dist_den: int, log2_norm: float, best: float) -> bool:
    """True when the distance dist_num / dist_den at a norm with the given
    log2 provably gives an exponent enclosure whose hi is <= the running best."""
    u = _log2_ratio(dist_den, dist_num) / log2_norm
    return u + _PRUNE_MARGIN * (1 + abs(u)) < best


def rational_baseline_scan(
    xi, height: int, bits: int = 256, min_norm: int = 2
) -> OrbitScanResult:
    """The alpha = infinity specialization: approximation by rationals a/c.

    Only the two integers nearest c*xi matter for each denominator, so the
    scan is linear in the height. Denominators below min_norm are skipped;
    tiny denominators carry trivially inflated exponents.
    """
    result = OrbitScanResult()
    xi_iv = _xi_interval(xi, bits)
    mid = (xi_iv.lo + xi_iv.hi) / 2
    lo_n, lo_d = xi_iv.lo.numerator, xi_iv.lo.denominator
    hi_n, hi_d = xi_iv.hi.numerator, xi_iv.hi.denominator
    best_hi = Fraction(0)
    best = 0.0
    for c in range(max(2, min_norm), height + 1):
        a0 = c * mid.numerator // mid.denominator
        for a in (a0, a0 + 1):
            if gcd(a, c) != 1:
                continue
            # xi_iv - a/c = [e_lo / (c lo_d), e_hi / (c hi_d)]
            e_lo = c * lo_n - a * lo_d
            e_hi = c * hi_n - a * hi_d
            if e_lo > 0:
                dist = (e_lo, c * lo_d, e_hi, c * hi_d)
            elif e_hi < 0:
                dist = (-e_hi, c * hi_d, -e_lo, c * lo_d)
            elif e_lo == e_hi == 0:
                result.xi_in_orbit.append(complete_unimodular(c, _small_d(a, c), 1))
                continue
            else:
                continue  # dist.lo = 0: no exponent
            if best_hi >= 2 and dist[0] * c * c > dist[1]:
                continue  # exponent at most 2, cannot improve the running best
            if _cannot_beat(dist[0], dist[1], log2(c), best):
                continue
            dist_iv = FInterval(Fraction(dist[0], dist[1]), Fraction(dist[2], dist[3]))
            exp = _exponent(dist_iv, c)
            if exp.hi > best_hi:
                best_hi, best = exp.hi, float(exp.hi)
                result.records.append(
                    ApproxRecord(complete_unimodular(c, _small_d(a, c), 1), c, dist_iv, exp)
                )
    result.records.sort(key=lambda r: r.norm)
    return result


def _small_d(a: int, c: int) -> int:
    # smallest |d| with a*d = +-1 (mod c), so the completion has norm c
    d = pow(a, -1, c)
    return d - c if d > c // 2 else d


def _over_common_den(iv: FInterval) -> tuple[int, int, int]:
    """(p0, p1, q) with iv = [p0 / q, p1 / q]."""
    q = lcm(iv.lo.denominator, iv.hi.denominator)
    return (iv.lo.numerator * (q // iv.lo.denominator),
            iv.hi.numerator * (q // iv.hi.denominator), q)


def _image_candidates(alpha: AlgebraicNumber, height: int, bits: int, xi_mid: Fraction):
    """Enumerate rows; per (c, d, det) the three translates t_opt - 1 .. t_opt + 1
    of the alpha-image, as (a, b, c, d, lo_num, lo_den, hi_num, hi_den).

    The image interval is the one FInterval arithmetic gives for
    (a alpha + b) / (c alpha + d) on alpha's interval [p0, p1] / q: the min
    and max of the four ratios N_i / D_j with N_i = a p_i + b q and
    D_j = c p_j + d q, denominators made positive. Rows whose denominator
    straddles 0 get one refinement of alpha to twice the bits, then are dropped.
    """
    x_n, x_d = xi_mid.numerator, xi_mid.denominator
    p0, p1, q = _over_common_den(alpha.value_interval(bits))
    out = []
    for c, d in enumerate_bottom_rows(height):
        d0, d1 = c * p0 + d * q, c * p1 + d * q  # d0 <= d1 since c >= 0
        if d0 <= 0 <= d1:
            alpha.refine_to(bits * 2)
            p0, p1, q = _over_common_den(alpha.value_interval(bits * 2))
            d0, d1 = c * p0 + d * q, c * p1 + d * q
            if d0 <= 0 <= d1:
                continue
        sign, den_lo, den_hi = (1, d0, d1) if d0 > 0 else (-1, -d1, -d0)
        for det in (1, -1):
            base = complete_unimodular(c, d, det)
            n0 = sign * (base.a * p0 + base.b * q)
            n1 = sign * (base.a * p1 + base.b * q)
            n_lo, n_hi = (n0, n1) if n0 <= n1 else (n1, n0)
            lo_n, lo_d = (n_lo, den_hi) if n_lo >= 0 else (n_lo, den_lo)
            hi_n, hi_d = (n_hi, den_lo) if n_hi >= 0 else (n_hi, den_hi)
            # floor(xi_mid - (beta_lo + beta_hi) / 2 + 1/2) over one denominator
            dd = lo_d * hi_d
            t_opt = (2 * x_n * dd - x_d * (lo_n * hi_d + hi_n * lo_d) + x_d * dd) // (2 * x_d * dd)
            for t in (t_opt - 1, t_opt, t_opt + 1):
                out.append((base.a + t * c, base.b + t * d, c, d,
                            lo_n + t * lo_d, lo_d, hi_n + t * hi_d, hi_d))
    return out


def orbit_best_approximations(
    xi,
    alpha: AlgebraicNumber | None,
    height: int,
    mode: str = "classic",
    *,
    bits: int = 192,
    min_norm: int | None = None,
) -> OrbitScanResult:
    """Scan the PSL(2,Z) orbit of alpha for good approximants to xi.

    Records improve the running best exponent and come back sorted by norm.
    alpha=None selects the rational baseline (orbit of infinity). Candidates
    that provably cannot beat the running best skip the log enclosure, so
    the records are those of the unpruned scan. min_norm (default 2) skips
    smaller classic norms; quadratic mode refuses it.
    """
    if mode not in ("classic", "quadratic"):
        raise ValueError("mode must be 'classic' or 'quadratic'")
    if mode == "quadratic" and min_norm is not None:
        raise ValueError("min_norm is not used in quadratic mode")
    min_norm = 2 if min_norm is None else min_norm
    if alpha is None:
        if mode == "quadratic":
            raise ValueError("quadratic mode needs a quadratic alpha")
        return rational_baseline_scan(xi, height, bits=bits, min_norm=min_norm)
    result = OrbitScanResult()
    xi_iv = _xi_interval(xi, bits)
    candidates = _image_candidates(alpha, height, bits, (xi_iv.lo + xi_iv.hi) / 2)
    x0, x1, xq = _over_common_den(xi_iv)
    best_hi = Fraction(0)
    best = 0.0
    conj = None  # alpha's conjugate, found at the first norm
    norms = {}  # (c, d, alpha's interval before the call) -> norm; hit checks refine alpha
    for a, b, c, d, lo_n, lo_d, hi_n, hi_d in candidates:
        # xi_iv - beta = [x0 / xq - hi_n / hi_d, x1 / xq - lo_n / lo_d]
        e_lo = x0 * hi_d - hi_n * xq
        e_hi = x1 * lo_d - lo_n * xq
        if e_lo > 0:
            dist = (e_lo, xq * hi_d, e_hi, xq * lo_d)
        elif e_hi < 0:
            dist = (-e_hi, xq * lo_d, -e_lo, xq * hi_d)
        else:
            # possible orbit hit; decide exactly when xi is algebraic
            m = Mat2(a, b, c, d)
            if isinstance(xi, AlgebraicNumber) and alg_equal(moebius_apply(m, alpha), xi):
                result.xi_in_orbit.append(m)
            continue  # else: unresolved tiny distance; skip rather than overclaim
        if mode == "quadratic":
            key = (c, d, alpha.isolating.lo, alpha.isolating.hi)
            nrm: object = norms.get(key)
            if nrm is None:
                if conj is None:
                    conj = quadratic_conjugate(alpha)
                nrm = norms[key] = quadratic_norm(Mat2(a, b, c, d), alpha, conj=conj)
            if not (nrm.hi <= height) or nrm.lo <= 1:
                continue
            log2_norm = _log2_ratio(nrm.lo.numerator, nrm.lo.denominator)
        else:
            nrm = max(c, abs(d))
            if nrm < max(min_norm, 2):
                continue
            log2_norm = log2(nrm)
        if log2_norm >= _PRUNE_MIN_LOG2 and _cannot_beat(dist[0], dist[1], log2_norm, best):
            continue
        dist_iv = FInterval(Fraction(dist[0], dist[1]), Fraction(dist[2], dist[3]))
        exp = _exponent(dist_iv, nrm)
        if exp.hi > best_hi:
            best_hi, best = exp.hi, float(exp.hi)
            result.records.append(ApproxRecord(Mat2(a, b, c, d), nrm, dist_iv, exp))
    result.records.sort(key=lambda r: r.norm if isinstance(r.norm, int) else r.norm.lo)
    return result


@dataclass
class SeparationResult:
    n: int
    bound: Fraction
    distance: FInterval
    ok: bool


def separation_bound(alpha_cf: CFExpansion, beta_cf: CFExpansion) -> SeparationResult:
    """First divergence index and the 1/(72 q_n^2 b_{n+1} b_{n+2}) lower bound.

    Quotient indexing follows the expansions: index 0 is a0. The bound uses
    beta's convergents and quotients.
    """
    wa, wb = alpha_cf.word(), beta_cf.word()
    n = None
    for i in range(min(len(wa), len(wb))):
        if wa[i] != wb[i]:
            n = i
            break
    if n is None:
        raise ValueError("no divergence found within the available depth")
    if n + 2 >= len(wb):
        raise ValueError("beta expansion too shallow past the divergence point")
    _, q_n = beta_cf.convergent(n)
    if q_n == 0:
        raise ValueError("divergence at index 0 needs a nonzero q_0")
    b1, b2 = wb[n + 1], wb[n + 2]
    bound = Fraction(1, 72 * q_n * q_n * b1 * b2)
    dist = (alpha_cf.value_interval() - beta_cf.value_interval()).abs()
    return SeparationResult(n, bound, dist, dist.hi >= bound)


def growth_gap_scan(cf: CFExpansion, k: int, eps) -> list[int]:
    """All n with q_{n+k} > q_n^(1+eps), via exact integer powering."""
    eps = Fraction(eps)
    if k < 1 or eps <= 0:
        raise ValueError("need k >= 1 and eps > 0")
    u, v = eps.numerator, eps.denominator
    hits = []
    for n in range(1, cf.depth - k + 1):
        _, qn = cf.convergent(n)
        _, qnk = cf.convergent(n + k)
        if qnk**v > qn ** (v + u):
            hits.append(n)
    return hits
