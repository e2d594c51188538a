import random
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice
from math import ceil, log2

import pytest
from hypothesis import example, given, settings, strategies as st

from cfspectra.words import (
    RepetitionWitness,
    SharedBlockWitness,
    find_mirror_repetitions,
    find_repetitions,
    find_shared_blocks,
    normalize_witness,
    same_tail_offset,
    strictly_increasing_blocks,
    subword_complexity,
    validate_witness,
)
from cfspectra.words import _longest_common_factor

small_words = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=12)


def oracle_repetitions(w, L, min_b, mirror, low=1):
    """Direct triple-loop reference: every (kA, m, kA') with w[kA:kA+m]
    matching w[kA+m+kA':kA+2m+kA'] (reversed when mirror) and kA, kA' >= low."""
    w = tuple(w)
    L = Fraction(L)
    n = len(w)
    out = []
    for ka in range(low, n + 1):
        for m in range(min_b, n + 1):
            for ka2 in range(low, n + 1):
                if ka + 2 * m + ka2 > n:
                    continue
                if Fraction(ka + ka2, m) > L:
                    continue
                first = w[ka : ka + m]
                second = w[ka + m + ka2 : ka + 2 * m + ka2]
                if mirror:
                    second = second[::-1]
                if first == second:
                    out.append((ka, ka2, m))
    return sorted(out, key=lambda t: (t[2], t[0], t[1]))


def oracle_shared(a, a2, L, min_b, mirror):
    a, a2 = tuple(a), tuple(a2)
    L = Fraction(L)
    out = []
    for k in range(len(a)):
        for l in range(len(a2)):
            best = 0
            for m in range(1, min(len(a) - k, len(a2) - l) + 1):
                blk, other = a[k : k + m], a2[l : l + m]
                if blk == (other[::-1] if mirror else other):
                    best = m
                elif not mirror:
                    break
            if best >= min_b and Fraction(k + l, best) <= L:
                out.append((k, l, best))
    return sorted(out)


def oracle_same_tail(a, a2, min_tail):
    """The slicing loop: first (i, j), 1-based, whose suffixes agree on their overlap."""
    a, a2 = tuple(a), tuple(a2)
    for i in range(1, len(a) + 1):
        for j in range(1, len(a2) + 1):
            overlap = min(len(a) - i, len(a2) - j) + 1
            if overlap >= min_tail and a[i - 1 : i - 1 + overlap] == a2[j - 1 : j - 1 + overlap]:
                return (i, j)
    return None


# binary words repeat often, so the detectors' boundary cases show up
dense_words = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=16)
any_words = st.one_of(small_words, dense_words)
ratios = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.builds(Fraction, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=5)),
)


class TestComplexity:
    def test_single_letter(self):
        assert subword_complexity((1, 1, 1, 1), 1) == 1
        assert subword_complexity((1, 1, 1, 1), 2) == 1

    def test_two_letters(self):
        assert subword_complexity((1, 2, 1, 2), 1) == 2
        assert subword_complexity((1, 2, 1, 2), 2) == 2
        assert subword_complexity((1, 2, 2, 1), 2) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subword_complexity((1, 2), 3)

    @given(small_words)
    def test_first_count_is_alphabet(self, w):
        assert subword_complexity(w, 1) == len(set(w))

    @given(small_words)
    def test_bounded_by_window_count(self, w):
        for n in range(1, len(w) + 1):
            assert 1 <= subword_complexity(w, n) <= len(w) - n + 1


class TestRepetitions:
    def test_square_word(self):
        # (1) (2,3) (1) (2,3) with A=(1), A'=(1), B=(2,3)
        w = (1, 2, 3, 1, 2, 3)
        wits = find_repetitions(w, L=2, min_b=2)
        assert any((t.kA, t.kA_prime, t.m) == (1, 1, 2) for t in wits)

    def test_mirror_word(self):
        w = (1, 2, 3, 1, 3, 2)
        wits = find_mirror_repetitions(w, L=2, min_b=2)
        assert any((t.kA, t.kA_prime, t.m) == (1, 1, 2) for t in wits)

    def test_ratio_filter(self):
        w = (9, 9, 9, 9, 1, 2, 9, 9, 1, 2)
        assert find_repetitions(w, L=Fraction(1, 2), min_b=2) == []

    @given(any_words, ratios, st.integers(min_value=1, max_value=3), st.booleans())
    def test_against_oracle(self, w, L, min_b, nonempty):
        # exact list equality, order included
        low = 1 if nonempty else 0
        for finder, mirror in ((find_repetitions, False), (find_mirror_repetitions, True)):
            wits = finder(w, L, min_b, require_nonempty_a=nonempty)
            got = [(t.kA, t.kA_prime, t.m) for t in wits]
            assert got == oracle_repetitions(w, L, min_b, mirror, low)
            for t in wits:
                assert t.mirror is mirror
                assert t.ratio == Fraction(t.kA + t.kA_prime, t.m)

    def test_rejects_bad_budgets(self):
        for finder in (find_repetitions, find_mirror_repetitions):
            with pytest.raises(ValueError):
                finder((1, 2, 1, 2), 0)
            with pytest.raises(ValueError):
                finder((1, 2, 1, 2), 2, 0)


class TestSharedBlocks:
    def test_basic(self):
        wits = find_shared_blocks((2, 2, 2), (1, 2, 2, 2), L=10, min_b=2)
        assert any((t.k, t.l, t.m) == (0, 1, 3) for t in wits)

    def test_mirror(self):
        wits = find_shared_blocks((1, 2, 3), (9, 3, 2, 1), L=10, min_b=3, mirror=True)
        assert [(t.k, t.l, t.m) for t in wits] == [(0, 1, 3)]

    @given(any_words, any_words, ratios, st.integers(min_value=1, max_value=3), st.booleans())
    def test_against_oracle(self, a, a2, L, min_b, mirror):
        # exact list equality, order included
        wits = find_shared_blocks(a, a2, L, min_b, mirror=mirror)
        assert [(t.k, t.l, t.m) for t in wits] == oracle_shared(a, a2, L, min_b, mirror)
        assert all(t.mirror is mirror for t in wits)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            find_shared_blocks((1, 2), (1, 2), -1)
        with pytest.raises(ValueError):
            find_shared_blocks((1, 2), (1, 2), 2, 0, mirror=True)

    @given(small_words, small_words)
    def test_witnesses_validate(self, a, a2):
        for wt in find_shared_blocks(a, a2, 5, 1, mirror=True):
            assert validate_witness(wt, a, a2)


class TestWitnessTools:
    def test_validate_rejects_wrong(self):
        assert not validate_witness(SharedBlockWitness(0, 0, 2), (1, 2), (1, 3))

    def test_normalize_moves_common_tail(self):
        a = (3, 7, 1, 2)
        a2 = (5, 7, 1, 2)
        wt = normalize_witness(SharedBlockWitness(2, 2, 2), a, a2)
        assert (wt.k, wt.l, wt.m) == (1, 1, 3)

    def test_normalize_fixed_point(self):
        a = (3, 1, 2)
        a2 = (5, 1, 2)
        wt = normalize_witness(SharedBlockWitness(1, 1, 2), a, a2)
        assert (wt.k, wt.l, wt.m) == (1, 1, 2)

    def test_normalize_boundary_empty_a(self):
        wt = normalize_witness(SharedBlockWitness(0, 0, 2), (1, 2), (1, 2))
        assert (wt.k, wt.l, wt.m) == (0, 0, 2)

    def test_normalize_never_raises_ratio(self):
        rng = random.Random(3)
        for _ in range(200):
            a = tuple(rng.randint(1, 3) for _ in range(12))
            a2 = tuple(rng.randint(1, 3) for _ in range(12))
            for wt in find_shared_blocks(a, a2, 6, 1):
                nw = normalize_witness(wt, a, a2)
                assert validate_witness(nw, a, a2)
                assert nw.ratio <= wt.ratio
                # the A-parts now end differently or one is empty
                assert nw.k == 0 or nw.l == 0 or a[nw.k - 1] != a2[nw.l - 1]

    def test_strictly_increasing_blocks(self):
        wits = [
            RepetitionWitness(1, 1, 2, Fraction(1)),
            RepetitionWitness(1, 1, 2, Fraction(1)),
            RepetitionWitness(1, 1, 5, Fraction(1)),
            RepetitionWitness(1, 1, 4, Fraction(1)),
            RepetitionWitness(1, 1, 6, Fraction(1)),
        ]
        assert [t.m for t in strictly_increasing_blocks(wits)] == [2, 5, 6]


class TestTailAndCycle:
    def test_same_tail(self):
        a = (5, 1, 2, 1, 2)
        a2 = (9, 9, 1, 2, 1, 2)
        assert same_tail_offset(a, a2) == (1, 1) or same_tail_offset(a, a2, 3) == (2, 3)

    def test_same_tail_fixture(self):
        a = (5, 1, 2, 1, 2)
        a2 = (9, 9, 1, 2, 1, 2)
        assert same_tail_offset(a, a2, min_tail=3) == (2, 3)

    def test_identical_words(self):
        assert same_tail_offset((1, 2, 3), (1, 2, 3)) == (1, 1)

    def test_disjoint(self):
        assert same_tail_offset((1, 1, 1), (2, 2, 2), min_tail=2) is None


class TestSameTailOracle:
    @given(any_words, any_words, st.integers(min_value=1, max_value=4))
    def test_against_slicing_loop(self, a, a2, min_tail):
        assert same_tail_offset(a, a2, min_tail) == oracle_same_tail(a, a2, min_tail)

    @given(any_words, any_words, any_words, st.integers(min_value=1, max_value=4))
    def test_common_suffix(self, p, p2, tail, min_tail):
        a, a2 = p + tail, p2 + tail
        assert same_tail_offset(a, a2, min_tail) == oracle_same_tail(a, a2, min_tail)

    @given(any_words, st.integers(min_value=1, max_value=4))
    def test_equal_words(self, w, min_tail):
        assert same_tail_offset(w, w, min_tail) == oracle_same_tail(w, w, min_tail)


# ------------------------------------------------------------ window referee
# Frozen copy of the row-scan detectors as they were before the scan was cut
# to the window the longest common factor leaves: they fill the whole table.


def frozen_lce_rows(a, b, mirror):
    row = [0] * len(b)
    for i in range(len(a) - 1, -1, -1):
        x = a[i]
        diagonal = chain((0,), row) if mirror else chain(islice(row, 1, None), (0,))
        row = [d + 1 if c == x else 0 for d, c in zip(diagonal, b)]
        yield i, row


def frozen_repetitions(w, L, min_b, mirror, low):
    num, den = Fraction(L).numerator, Fraction(L).denominator
    n = len(w)
    found = []
    for j, row in frozen_lce_rows(w, w, mirror):
        m_lo = max(min_b, -(-j * den // (num + den)))
        if m_lo > n - j:
            continue
        if mirror:
            for e in range(j - low):
                if row[e] >= m_lo:
                    m_hi = min(row[e], e + 1 - low)
                    found.extend((m, e + 1 - m, j - 1 - e) for m in range(m_lo, m_hi + 1))
        else:
            for i in range(low, j):
                if row[i] >= m_lo:
                    m_hi = min(row[i], j - i - low)
                    found.extend((m, i, j - i - m) for m in range(m_lo, m_hi + 1))
    found.sort()
    return [(ka, ka2, m) for m, ka, ka2 in found]


def frozen_longest_mirror_from(row):
    end_by_start = [-1] * len(row)
    for e in compress(count(), row):
        end_by_start[e + 1 - row[e]] = e
    return [e + 1 - l for l, e in enumerate(accumulate(end_by_start, max))]


def frozen_shared(a, a2, L, min_b, mirror):
    num, den = Fraction(L).numerator, Fraction(L).denominator
    out = []
    for k, row in frozen_lce_rows(a, a2, mirror):
        if k * den > num * (len(a) - k):
            continue
        best = frozen_longest_mirror_from(row) if mirror else row
        out.extend((k, l, m) for l, m in enumerate(best) if m >= min_b and (k + l) * den <= num * m)
    out.sort()
    return out


def brute_longest_common_factor(a, b):
    """Longest common factor of a and b by slicing (b None: at two starts of a)."""
    pairs = [(i, j) for i in range(len(a)) for j in range(i + 1, len(a))] if b is None else [
        (i, j) for i in range(len(a)) for j in range(len(b))]
    b = a if b is None else b
    best = 0
    for i, j in pairs:
        m = 0
        while i + m < len(a) and j + m < len(b) and a[i + m] == b[j + m]:
            m += 1
        best = max(best, m)
    return best


def _gauss_kuzmin(i):
    """The letter at quantile (i + 1/2)/2^16 of P(a = k) = log2(1 + 1/(k(k + 2)))."""
    u = (i + 0.5) / 2**16
    return max(1, ceil(1 / (2 ** (1 - u) - 1)) - 1)


gk_letters = st.integers(0, 2**16 - 1).map(_gauss_kuzmin)


def gk_words(lo, hi):
    return st.lists(gk_letters, min_size=lo, max_size=hi).map(tuple)


@st.composite
def periodic_words(draw, hi=300):
    period = draw(gk_words(1, 6))
    w = (period * hi)[: draw(st.integers(40, hi))]
    return w[::-1] if draw(st.booleans()) else w


@st.composite
def spliced_pairs(draw, tail_hi=150):
    """Two words that share a tail (and so are close to related numbers)."""
    tail = draw(gk_words(1, tail_hi))
    return draw(gk_words(40, 150)) + tail, draw(gk_words(0, 150)) + tail


@st.composite
def long_pairs(draw):
    kind = draw(st.sampled_from(["unrelated", "spliced", "periodic"]))
    if kind == "unrelated":
        return draw(gk_words(40, 300)), draw(gk_words(40, 300))
    if kind == "spliced":
        return draw(spliced_pairs())
    w = draw(periodic_words(hi=120))
    return w, w[::-1]


@st.composite
def long_words(draw):
    kind = draw(st.sampled_from(["unrelated", "unrelated", "spliced", "periodic"]))
    if kind == "unrelated":
        return draw(gk_words(40, 300))
    if kind == "spliced":  # a repeated block past the window or inside it
        return sum(draw(spliced_pairs(30)), ())
    return draw(periodic_words(hi=60))


def _at_cap(lam, cut_by, mirror):
    """40 letters whose longest common factor λ has the given length.

    The block s of λ distinct letters sits at offsets 6 and 6 + cut_by; the
    letters around it differ, so nothing longer is shared. With L = 2 the cap
    is 13 for shared blocks and 10 for repetitions.
    """
    s = tuple(range(3, 3 + lam))
    other = s[::-1] if mirror else s
    if cut_by is None:  # shared blocks: s in a, s or reversed s in a2
        a = (1,) * 6 + s + (1,) * (34 - lam)
        a2 = (2,) * 12 + other + (2,) * (28 - lam)
        return a, a2
    filler = tuple(range(100, 100 + 40 - 2 * lam - 1 - cut_by))
    return (1,) + s + (2, 1)[:cut_by] + other + filler


class TestWindowReferee:
    """The cut scan gives the whole-table lists, order included."""

    @settings(max_examples=60, deadline=None)
    @given(long_pairs(), ratios, st.integers(1, 3), st.booleans())
    @example(_at_cap(13, None, False), 2, 1, False)
    @example(_at_cap(13, None, True), 2, 1, True)
    @example(_at_cap(12, None, False), 2, 1, False)
    @example(_at_cap(12, None, True), 2, 1, True)
    def test_shared_blocks(self, pair, L, min_b, mirror):
        a, a2 = pair
        got = [(t.k, t.l, t.m) for t in find_shared_blocks(a, a2, L, min_b, mirror=mirror)]
        assert got == frozen_shared(a, a2, L, min_b, mirror)

    @settings(max_examples=60, deadline=None)
    @given(long_words(), ratios, st.integers(1, 3), st.booleans(), st.booleans())
    @example(_at_cap(10, 1, False), 2, 1, True, False)
    @example(_at_cap(9, 1, False), 2, 1, False, False)
    @example(_at_cap(10, 2, True), 2, 1, True, True)
    @example(_at_cap(9, 2, True), 2, 1, False, True)
    def test_repetitions(self, w, L, min_b, nonempty, mirror):
        finder = find_mirror_repetitions if mirror else find_repetitions
        got = [(t.kA, t.kA_prime, t.m) for t in finder(w, L, min_b, require_nonempty_a=nonempty)]
        assert got == frozen_repetitions(w, L, min_b, mirror, 1 if nonempty else 0)

    def test_examples_sit_at_the_cap(self):
        for lam in (13, 12):
            for mirror in (False, True):
                a, a2 = _at_cap(lam, None, mirror)
                assert _longest_common_factor(a, a2[::-1] if mirror else a2, 99) == lam
                assert find_shared_blocks(a, a2, 2, lam, mirror=mirror)
        for lam in (10, 9):
            w = _at_cap(lam, 1, False)
            assert len(w) == 40 and _longest_common_factor(w, None, 99) == lam
            assert find_repetitions(w, 2, lam)
            w = _at_cap(lam, 2, True)
            assert len(w) == 40 and _longest_common_factor(w, w[::-1], 99) == lam
            assert find_mirror_repetitions(w, 2, lam)

    @given(any_words, st.one_of(st.none(), any_words), st.integers(0, 20))
    def test_longest_common_factor(self, a, b, cap):
        a, b = tuple(a), None if b is None else tuple(b)
        assert _longest_common_factor(a, b, cap) == min(cap, brute_longest_common_factor(a, b))
