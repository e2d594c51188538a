"""Detectors for repetition and mirror structure in partial-quotient words.

Words are tuples of positive integers (a0 handled separately by callers).
Witnesses are self-certifying: every returned index triple re-validates by
direct slice comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice


def _as_word(w) -> tuple[int, ...]:
    letters = tuple(int(a) for a in w)
    if any(a < 1 for a in letters):
        raise ValueError("letters must be positive integers")
    return letters


def subword_complexity(w, n: int) -> int:
    """Number of distinct length-n factors of the finite word w."""
    w = _as_word(w)
    if not 1 <= n <= len(w):
        raise ValueError("factor length out of range")
    return len({w[i : i + n] for i in range(len(w) - n + 1)})


@dataclass(frozen=True)
class RepetitionWitness:
    """Prefix factorization A B A' B (or A B A' rev(B)) of one word."""

    kA: int
    kA_prime: int
    m: int
    ratio: Fraction
    mirror: bool = False

    def to_dict(self) -> dict:
        return {
            "kA": self.kA,
            "kA_prime": self.kA_prime,
            "m": self.m,
            "ratio": str(self.ratio),
            "mirror": self.mirror,
        }


@dataclass(frozen=True)
class SharedBlockWitness:
    """Offsets (k, l) and length m of a block shared by two words.

    a[k:k+m] equals a2[l:l+m], reversed when mirror is set.
    """

    k: int
    l: int
    m: int
    mirror: bool = False

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.k + self.l, self.m)

    def to_dict(self) -> dict:
        return {"k": self.k, "l": self.l, "m": self.m, "ratio": str(self.ratio), "mirror": self.mirror}


def _ratio_bound(L) -> tuple[int, int]:
    """Numerator and denominator of the positive length-ratio budget L."""
    L = Fraction(L)
    if L <= 0:
        raise ValueError("L must be positive")
    return L.numerator, L.denominator


def _lce_rows(a, b, mirror: bool = False):
    """Rows of the longest-common-extension table of a against b, last row first.

    Yields (i, row) for i = len(a) - 1 down to 0. Without mirror, row[j] is
    the largest m with a[i:i+m] == b[j:j+m], by E[i][j] = E[i+1][j+1] + 1 on a
    match. With mirror set, row[e] is the largest m with a[i:i+m] equal to
    b[e-m+1:e+1] reversed, by R[i][e] = R[i+1][e-1] + 1. Only the previous
    row is kept, so memory is O(len(b)).
    """
    row = [0] * len(b)
    for i in range(len(a) - 1, -1, -1):
        x = a[i]
        diagonal = chain((0,), row) if mirror else chain(islice(row, 1, None), (0,))
        row = [d + 1 if c == x else 0 for d, c in zip(diagonal, b)]
        yield i, row


def _find_prefix_repetitions(w, L, min_b: int, mirror: bool, require_nonempty_a: bool):
    w = _as_word(w)
    num, den = _ratio_bound(L)
    if min_b < 1:
        raise ValueError("minB must be >= 1")
    low = 1 if require_nonempty_a else 0
    n = len(w)
    found = []
    # row j: the second block starts at j. With |A| + |A'| = j - m, the ratio
    # test (j - m) / m <= L reads m >= j / (1 + L).
    for j, row in _lce_rows(w, w, mirror):
        m_lo = max(min_b, -(-j * den // (num + den)))
        if m_lo > n - j:
            continue  # no block that long fits from j on
        if mirror:
            # row[e]: the first block ends at e, so kA = e + 1 - m, kA' = j - 1 - e
            for e in range(j - low):
                if row[e] >= m_lo:
                    m_hi = min(row[e], e + 1 - low)
                    found.extend((m, e + 1 - m, j - 1 - e) for m in range(m_lo, m_hi + 1))
        else:
            # row[i]: the first block starts at i = kA, so kA' = j - i - m
            for i in range(low, j):
                if row[i] >= m_lo:
                    m_hi = min(row[i], j - i - low)
                    found.extend((m, i, j - i - m) for m in range(m_lo, m_hi + 1))
    found.sort()
    return [RepetitionWitness(ka, ka2, m, Fraction(ka + ka2, m), mirror) for m, ka, ka2 in found]


def find_repetitions(w, L, min_b: int = 1, *, require_nonempty_a: bool = True):
    """All prefix factorizations A B A' B with |B| >= minB and (|A|+|A'|)/|B| <= L."""
    return _find_prefix_repetitions(w, L, min_b, False, require_nonempty_a)


def find_mirror_repetitions(w, L, min_b: int = 1, *, require_nonempty_a: bool = True):
    """Like find_repetitions but with the second block reversed."""
    return _find_prefix_repetitions(w, L, min_b, True, require_nonempty_a)


def strictly_increasing_blocks(witnesses):
    """Greedy subsequence with strictly increasing |B| (condition (ii) helper)."""
    out = []
    best = 0
    for wt in witnesses:
        if wt.m > best:
            out.append(wt)
            best = wt.m
    return out


def _longest_mirror_from(row) -> list[int]:
    """Per start l, the largest m with row[l + m - 1] >= m (below 1 if none).

    A mirror match of length r ending at e covers every start in
    [e - r + 1, e], so the answer at l is reached by the largest end e whose
    run starts at or before l: a running maximum over block starts.
    """
    end_by_start = [-1] * len(row)
    for e in compress(count(), row):
        end_by_start[e + 1 - row[e]] = e
    return [e + 1 - l for l, e in enumerate(accumulate(end_by_start, max))]


def find_shared_blocks(a, a2, L, min_b: int = 1, mirror: bool = False):
    """Maximal shared (or mirrored) blocks between two words.

    Returns witnesses (k, l, m) with m >= minB and (k+l)/m <= L; per offset
    pair only the maximal block length is reported.
    """
    a = _as_word(a)
    a2 = _as_word(a2)
    num, den = _ratio_bound(L)
    if min_b < 1:
        raise ValueError("minB must be >= 1")
    out = []
    for k, row in _lce_rows(a, a2, mirror):
        if k * den > num * (len(a) - k):
            continue  # even a block running to the end of a has ratio > L
        best = _longest_mirror_from(row) if mirror else row
        out.extend(
            SharedBlockWitness(k, l, m, mirror)
            for l, m in enumerate(best)
            if m >= min_b and (k + l) * den <= num * m
        )
    out.sort(key=lambda t: (t.k, t.l))
    return out


def validate_witness(wt: SharedBlockWitness, a, a2) -> bool:
    a = _as_word(a)
    a2 = _as_word(a2)
    block = a[wt.k : wt.k + wt.m]
    other = a2[wt.l : wt.l + wt.m]
    if len(block) != wt.m or len(other) != wt.m:
        return False
    return block == (other[::-1] if wt.mirror else other)


def same_tail_offset(a, a2, min_tail: int = 1) -> tuple[int, int] | None:
    """Smallest (i, j), 1-based, with a[i:] == a2[j:] on their common range."""
    if min_tail < 1:
        raise ValueError("minTail must be >= 1")
    a = _as_word(a)
    a2 = _as_word(a2)
    n, n2 = len(a), len(a2)
    found = None
    # (i, j) qualifies when the common extension reaches the end of one word
    for i, row in _lce_rows(a, a2):
        j = next(
            (j for j, m in enumerate(row) if m >= min_tail and (m == n - i or m == n2 - j)),
            None,
        )
        if j is not None:
            found = (i + 1, j + 1)
    return found


def normalize_witness(wt: SharedBlockWitness, a, a2) -> SharedBlockWitness:
    """Move shared trailing letters of the A-parts into the block.

    Repeats while both A-parts are nonempty and end with the same letter; the
    block grows by one per step, so the length ratio never increases.
    """
    if wt.mirror:
        raise ValueError("normalization applies to plain witnesses only")
    a = _as_word(a)
    a2 = _as_word(a2)
    if not validate_witness(wt, a, a2):
        raise ValueError("witness does not validate against the words")
    k, l, m = wt.k, wt.l, wt.m
    while k > 0 and l > 0 and a[k - 1] == a2[l - 1]:
        k -= 1
        l -= 1
        m += 1
    return replace(wt, k=k, l=l, m=m)
