"""Correctness oracle: certified content of a report, reference-free checks,
and comparison with a recorded reference.

Certified content is what the program certifies (words, witnesses, identity
booleans, counts, exact bounds, orbit records). The `cache` field, the
resolved config, `timestamp`, `digest` and cost figures such as `bits_used`
are left out, so a change that removes the cache or moves the precision
schedule still compares equal. Enclosures are compared by overlap, never by
endpoints: two true enclosures of one real always intersect.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import exact

ORACLE_BITS = 400  # width of the enclosures used for distance checks


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def certified(job, result) -> tuple[object, list[tuple[str, str]]]:
    """(exact content, enclosures as (lo, hi) strings) of one report's result."""
    sub = job.argv[0]
    if sub == "expand":
        return [result["a0"], result["quotients"], result["terminated"]], []
    if sub == "detect":
        return result["witnesses"], []
    if sub == "verify":
        return result, []
    if sub == "complexity":
        return [result["length"], result["complexity"]], []
    if sub == "harness":
        exact_part = [result["holds"], result["premise_ok"], result["bound"]]
        return exact_part, [tuple(result["enclosure"])]
    kind = _flag(job.argv, "--kind")
    if kind == "scan":
        records, encl = [], []
        for r in result["records"]:
            if isinstance(r["norm"], int):
                records.append([r["matrix"], r["norm"]])
            else:
                records.append([r["matrix"]])
                encl.append(tuple(r["norm"]))
            encl.append(tuple(r["distance"]))
            encl.append(_float_enclosure(r["exponent"]))
        return [records, result["xi_in_orbit"]], encl
    if kind == "gap":
        return [result["k"], result["epsilon"], result["hits"]], []
    return [result["n"], result["bound"], result["ok"]], [tuple(result["distance"])]


def digest(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def _num(text) -> Fraction:
    """A Fraction from 'p/q', a decimal, or the reference's 'm p e' = m * 2^e."""
    if isinstance(text, str) and "p" in text:
        m, e = text.split("p")
        return Fraction(int(m)) * Fraction(2) ** int(e)
    return Fraction(text)


def _iv(pair) -> tuple[Fraction, Fraction]:
    return _num(pair[0]), _num(pair[1])


def _round(x: Fraction, bits: int, up: bool) -> str:
    if x == 0:
        return "0p0"
    e = bits - (abs(x.numerator).bit_length() - x.denominator.bit_length())
    scaled = x * Fraction(2) ** e
    m = -((-scaled.numerator) // scaled.denominator) if up else scaled.numerator // scaled.denominator
    return f"{m}p{-e}"


def outward(pair, bits: int = 64) -> list[str]:
    """The enclosure rounded outward to `bits` significant bits: still true,
    and short enough to ship as a reference."""
    lo, hi = _iv(pair)
    return [_round(lo, bits, False), _round(hi, bits, True)]


def _float_enclosure(pair) -> tuple[str, str]:
    """Reports print exponent enclosures as nearest floats; widen them by
    2^-40 relative so that a float rounding step cannot break an overlap."""
    lo, hi = Fraction(pair[0]), Fraction(pair[1])
    return str(lo - abs(lo) / 2**40), str(hi + abs(hi) / 2**40)


def _overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


class Oracle:
    """Independent expectations, memoized per real number for one run."""

    def __init__(self):
        self._words: dict = {}
        self._intervals: dict = {}
        self.passed: set = set()  # (argv, content digest, enclosures) already checked

    def word(self, number):
        if number not in self._words:
            self._words[number] = exact.cf_word(*number)
        return self._words[number]

    def interval(self, number):
        coeffs, index, _ = number
        key = (coeffs, index)
        if key not in self._intervals:
            lo, hi = exact.isolate(coeffs, index)
            self._intervals[key] = exact.refine(coeffs, lo, hi, ORACLE_BITS)
        return self._intervals[key]

    def prepare(self, jobs) -> None:
        """Compute what the checks need before any timing starts."""
        for job in jobs:
            for number in job.numbers:
                if _flag(job.argv, "--kind") == "scan":
                    self.interval(number)
                elif job.argv[0] != "expand":  # expand answers are checked without a word
                    self.word(number)

    # ------------------------------------------------------------- checks

    def check(self, job, result) -> list[str]:
        """Reference-free problems with one job's result (empty when fine)."""
        sub = job.argv[0]
        kind = _flag(job.argv, "--kind")
        if sub == "expand":
            return self._check_expand(job, result)
        if sub == "detect" and kind == "shared":
            return self._check_shared(job, result)
        if sub == "detect":
            return self._check_repetitions(job, result)
        if sub == "verify":
            return self._check_verify(job, result)
        if sub == "complexity":
            return self._check_complexity(job, result)
        if sub == "harness":
            return self._check_l1(job, result)
        if kind == "scan":
            return self._check_scan(job, result)
        if kind == "gap":
            return self._check_gap(job, result)
        return self._check_separation(job, result)

    def _check_expand(self, job, result) -> list[str]:
        coeffs, index, depth = job.numbers[0]
        word = [result["a0"], *result["quotients"]]
        if any(a < 1 for a in word[1:]):
            return ["non-positive partial quotient"]
        if "rational_root" in job.facts:
            want = exact.rational_word(Fraction(job.facts["rational_root"]), depth)
            if (word, result["terminated"]) != want:
                return [f"rational root: got {word[:8]}, want {want[0][:8]}"]
            return []
        if result["terminated"]:
            p, q = exact.convergents(word)[-1]
            return [] if exact.eval_scaled(coeffs, p, q) == 0 else ["terminated on a non-root"]
        if len(word) != depth + 1:
            return [f"expected {depth} quotients, got {len(word) - 1}"]
        lo, hi = exact.cylinder(word)
        if exact.sign_at(coeffs, lo) * exact.sign_at(coeffs, hi) >= 0:
            return ["no sign change of the polynomial across the cylinder"]
        st = exact.Sturm(coeffs)
        below = st.count_in(Fraction(-exact.root_bound(coeffs)), lo)
        if st.count_in(lo, hi) != 1 or below != index % st.count_real():
            return ["cylinder does not isolate the selected root"]
        return []

    def _check_shared(self, job, result) -> list[str]:
        a = self.word(job.numbers[0])[0][1:]
        b = self.word(job.numbers[1])[0][1:]
        L, min_b = Fraction(_flag(job.argv, "--L")), int(_flag(job.argv, "--min-b"))
        mirror = "--mirror" in job.argv
        for w in result["witnesses"]:
            k, l, m = w["k"], w["l"], w["m"]
            block, other = a[k:k + m], b[l:l + m]
            if mirror:
                other = other[::-1]
            if (len(block) != m or block != other or m < min_b or w["mirror"] != mirror
                    or Fraction(w["ratio"]) != Fraction(k + l, m) or Fraction(k + l, m) > L):
                return [f"shared-block witness does not validate: {w}"]
            if not mirror and k + m < len(a) and l + m < len(b) and a[k + m] == b[l + m]:
                return [f"shared block is not maximal: {w}"]
        return []

    def _check_repetitions(self, job, result) -> list[str]:
        w = self.word(job.numbers[0])[0][1:]
        L, min_b = Fraction(_flag(job.argv, "--L")), int(_flag(job.argv, "--min-b"))
        mirror = _flag(job.argv, "--kind") == "mirror"
        for t in result["witnesses"]:
            ka, ka2, m = t["kA"], t["kA_prime"], t["m"]
            first = w[ka:ka + m]
            second = w[ka + m + ka2:ka + 2 * m + ka2]
            if mirror:
                second = second[::-1]
            if (len(second) != m or first != second or m < min_b or ka < 1 or ka2 < 1
                    or Fraction(t["ratio"]) != Fraction(ka + ka2, m) or Fraction(ka + ka2, m) > L):
                return [f"repetition witness does not validate: {t}"]
        return []

    def _check_verify(self, job, result) -> list[str]:
        depth = job.numbers[0][2]
        lengths = {"determinant": depth + 1, "mirror_ratio": depth,
                   "convergent_growth": depth - 1, "approximation": depth}
        for key, n in lengths.items():
            if len(result[key]) != n or not all(result[key]):
                return [f"identity list {key} is wrong"]
        return [] if result["all_pass"] is True else ["all_pass is not true"]

    def _check_complexity(self, job, result) -> list[str]:
        w = tuple(self.word(job.numbers[0])[0][1:])
        want = [{"n": n, "p": len({w[i:i + n] for i in range(len(w) - n + 1)})}
                for n in range(1, min(int(_flag(job.argv, "--max-n")), len(w)) + 1)]
        if result["length"] != len(w) or result["complexity"] != want:
            return ["subword complexity differs from direct count"]
        return []

    def _check_l1(self, job, result) -> list[str]:
        k, l, m = job.facts["k"], job.facts["l"], job.facts["m"]
        wa, _ = self.word(job.numbers[0])
        wb, _ = self.word(job.numbers[1])
        premise = wa[1:][k:k + m] == wb[1:][l:l + m]
        bound = Fraction(2, exact.convergents(wa)[k + m][1] * exact.convergents(wb)[l + m][1])
        lo, hi = _iv(result["enclosure"])
        if result["premise_ok"] != premise or Fraction(result["bound"]) != bound:
            return ["L1 premise or bound differs from the words"]
        holds = result["holds"]
        if not 0 <= lo <= hi or holds and not hi < bound or holds is False and not lo > bound:
            return ["L1 verdict does not follow from its enclosure"]
        return []

    def _check_scan(self, job, result) -> list[str]:
        xi = self.interval(job.numbers[0])
        alpha = self.interval(job.numbers[1]) if len(job.numbers) > 1 else None
        height = int(_flag(job.argv, "--height"))
        classic = _flag(job.argv, "--mode", "classic") == "classic"
        for r in result["records"]:
            a, b, c, d = r["matrix"]
            if abs(a * d - b * c) != 1:
                return [f"record matrix is not unimodular: {r['matrix']}"]
            if classic and r["norm"] != max(abs(c), abs(d)) or classic and not 2 <= r["norm"] <= height:
                return [f"record norm is wrong: {r}"]
            if not classic and Fraction(r["norm"][0]) > Fraction(r["norm"][1]):
                return [f"norm enclosure out of order: {r}"]
            if r["exponent"][0] > r["exponent"][1]:
                return [f"exponent enclosure out of order: {r}"]
            dist = _iv(r["distance"])
            if dist[0] > dist[1] or not _overlap(dist, _distance(xi, alpha, (a, b, c, d))):
                return [f"record distance misses |xi - M(alpha)|: {r}"]
        for a, b, c, d in result["xi_in_orbit"]:
            if abs(a * d - b * c) != 1:
                return ["xi_in_orbit matrix is not unimodular"]
        return []

    def _check_gap(self, job, result) -> list[str]:
        word, _ = self.word(job.numbers[0])
        k, eps = job.facts["k"], Fraction(job.facts["epsilon"])
        q = [qn for _, qn in exact.convergents(word)]
        u, v = eps.numerator, eps.denominator
        want = [n for n in range(1, len(word) - k) if q[n + k] ** v > q[n] ** (v + u)]
        return [] if result["hits"] == want else ["growth-gap hits differ from the convergents"]

    def _check_separation(self, job, result) -> list[str]:
        wa, _ = self.word(job.numbers[0])
        wb, _ = self.word(job.numbers[1])
        n = next((i for i in range(min(len(wa), len(wb))) if wa[i] != wb[i]), None)
        if n is None or n + 2 >= len(wb):
            return ["the two words do not diverge in time"]
        q_n = exact.convergents(wb)[n][1]
        bound = Fraction(1, 72 * q_n * q_n * wb[n + 1] * wb[n + 2])
        dist = _iv(result["distance"])
        a = exact.cylinder(wa)
        b = exact.cylinder(wb)
        true = _abs_iv((a[0] - b[1], a[1] - b[0]))
        if result["n"] != n or Fraction(result["bound"]) != bound or result["ok"] != (dist[1] >= bound):
            return ["separation index, bound or verdict differs from the words"]
        if dist[0] > dist[1] or not _overlap(dist, true):
            return ["separation distance misses the cylinders' distance"]
        return []


def _abs_iv(iv):
    lo, hi = iv
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def _distance(xi, alpha, m):
    """Enclosure of |xi - (a alpha + b)/(c alpha + d)|; alpha None is infinity."""
    a, b, c, d = m
    if alpha is None:
        # the rational baseline records the bottom row (c, d) completed by
        # some (a, b): the approximant is a/c up to an integer translation
        t = round(xi[0] - Fraction(a, c))
        img = (Fraction(a, c) + t, Fraction(a, c) + t)
    else:
        ends = []
        for t in alpha:
            den = c * t + d
            if den == 0:
                return Fraction(0), Fraction(10) ** 9  # pole inside: no information
            ends.append((a * t + b) / den)
        if (c * alpha[0] + d) * (c * alpha[1] + d) < 0:
            return Fraction(0), Fraction(10) ** 9
        img = (min(ends), max(ends))
    return _abs_iv((xi[0] - img[1], xi[1] - img[0]))


def compare(content_digest: str, enclosures, ref: dict) -> list[str]:
    """Problems against one recorded reference entry."""
    if content_digest != ref["exact"]:
        return ["certified content differs from the reference"]
    if len(enclosures) != len(ref["enclosures"]):
        return ["enclosure count differs from the reference"]
    for got, want in zip(enclosures, ref["enclosures"]):
        g, w = _iv(got), _iv(want)
        if g[0] > g[1] or not _overlap(g, w):
            return [f"enclosure {got} does not meet the reference {want}"]
    return []
