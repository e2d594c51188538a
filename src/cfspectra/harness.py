"""Exact integer vectors, matrix transport identities, and the four linear
forms attached to a pair of continued-fraction expansions.

Everything boolean here is a theorem given its premise; a False from the
identity checkers at sufficient precision means an implementation bug or a
violated premise, never a numerical accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .algebraic import AlgebraicNumber
from .cf import CFExpansion, expand, word_matrix
from .intervals import FInterval
from .matrices import Mat2
from .words import SharedBlockWitness, validate_witness

L1_START_BITS = 256


@dataclass
class PairContext:
    """Two algebraic numbers with their expansions and convergents."""

    alpha: AlgebraicNumber
    alpha2: AlgebraicNumber
    cf: CFExpansion
    cf2: CFExpansion

    @staticmethod
    def build(alpha: AlgebraicNumber, alpha2: AlgebraicNumber, depth: int) -> "PairContext":
        return PairContext(alpha, alpha2, expand(alpha, depth), expand(alpha2, depth))

    def require_witness(self, k: int, l: int, m: int) -> None:
        """Offsets (k, l) and block length m must lie inside both expansions."""
        if min(k, l) < 0 or m < 1:
            raise ValueError(
                f"witness k={k}, l={l}, m={m}: k and l must not be negative, "
                "and m must be positive"
            )
        if k + m > self.cf.depth or l + m > self.cf2.depth:
            raise ValueError(
                f"witness k={k}, l={l}, m={m} needs expansions to depth {max(k, l) + m}; "
                f"have {self.cf.depth} and {self.cf2.depth}"
            )


@dataclass(frozen=True)
class PhiVector:
    """The four 2x2 minors pairing convergents of the two expansions."""

    components: tuple[int, int, int, int]

    def __iter__(self):
        return iter(self.components)


@dataclass(frozen=True)
class MirrorQuadruple:
    """Bilinear sums pairing convergents across a mirrored block."""

    a: int
    b: int
    c: int
    d: int

    @property
    def components(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def arrangement(self) -> Mat2:
        return Mat2(self.d, self.c, self.b, self.a)

    def __iter__(self):
        return iter(self.components)


def phi_vector(ctx: PairContext, k: int, l: int) -> PhiVector:
    p_k, q_k = ctx.cf.convergent(k)
    p_k1, q_k1 = ctx.cf.convergent(k - 1)
    r_l, s_l = ctx.cf2.convergent(l)
    r_l1, s_l1 = ctx.cf2.convergent(l - 1)
    return PhiVector(
        (
            q_k * s_l1 - q_k1 * s_l,
            q_k * r_l1 - q_k1 * r_l,
            p_k * s_l1 - p_k1 * s_l,
            p_k * r_l1 - p_k1 * r_l,
        )
    )


def mirror_quadruple(ctx: PairContext, k: int, l: int, m: int) -> MirrorQuadruple:
    ctx.require_witness(k, l, m)
    p_k, q_k = ctx.cf.convergent(k)
    p_k1, q_k1 = ctx.cf.convergent(k - 1)
    r_lm, s_lm = ctx.cf2.convergent(l + m)
    r_lm1, s_lm1 = ctx.cf2.convergent(l + m - 1)
    return MirrorQuadruple(
        q_k * s_lm + q_k1 * s_lm1,
        q_k * r_lm + q_k1 * r_lm1,
        p_k * s_lm + p_k1 * s_lm1,
        p_k * r_lm + p_k1 * r_lm1,
    )


def check_transport_identity(prefix_a, prefix_a2, block, mirror: bool = False) -> bool:
    """Exact matrix transport identity across a shared (or mirrored) block.

    Words are full quotient words (leading letter playing the role of a0).
    The plain identity carries the determinant sign of the block matrix,
    (-1)^|B|; the mirrored identity is sign-free.
    """
    a = tuple(prefix_a)
    a2 = tuple(prefix_a2)
    b = tuple(block)
    if not (a and a2 and b):
        raise ValueError("words must be nonempty")
    mb = word_matrix(b)
    conv_a = word_matrix(a)
    conv_ab = conv_a @ mb
    if mirror:
        conv_a2 = word_matrix(a2)
        conv_a2m = conv_a2 @ mb.transpose()  # word a2 continues with reverse(B)
        return conv_a @ conv_a2m.transpose() == conv_ab @ conv_a2.transpose()
    conv_a2 = word_matrix(a2)
    conv_a2b = conv_a2 @ mb
    lhs = conv_a @ conv_a2.adjugate()
    rhs = conv_ab @ conv_a2b.adjugate()
    if len(b) % 2 == 1:
        lhs = -lhs
    return lhs == rhs


def _alpha_intervals(ctx: PairContext, bits: int) -> tuple[FInterval, FInterval]:
    return ctx.alpha.value_interval(bits), ctx.alpha2.value_interval(bits)


def eval_linear_forms(ctx: PairContext, v, bits: int = 64) -> tuple[FInterval, FInterval, FInterval, FInterval]:
    """Certified enclosures of L1..L4 at an integer 4-vector.

    L1 = a a' X1 - a X2 - a' X3 + X4, L2 = a' X1 - X2, L3 = a X1 - X3, L4 = X1.
    """
    if bits < 32:
        raise ValueError("bits must be >= 32")
    x1, x2, x3, x4 = tuple(v)
    margin = max(abs(c) for c in (x1, x2, x3, x4, 1)).bit_length() + 8
    a, a2 = _alpha_intervals(ctx, bits + margin)
    l1 = a * a2 * x1 - a * x2 - a2 * x3 + Fraction(x4)
    l2 = a2 * x1 - Fraction(x2)
    l3 = a * x1 - Fraction(x3)
    l4 = FInterval.point(x1)
    return l1, l2, l3, l4


@dataclass
class SmallnessReport:
    """Outcome of the |L1| < 2/(q_{k+m} q'_{l+m}) comparison."""

    holds: bool | None
    premise_ok: bool
    enclosure: FInterval
    bound: Fraction
    bits_used: int


def l1_smallness_report(
    ctx: PairContext, wt: SharedBlockWitness, bits: int = L1_START_BITS
) -> SmallnessReport:
    if wt.mirror:
        raise ValueError("smallness bound applies to plain shared blocks")
    if (start := max(bits, 32)) > errors.PRECISION_CAP_BITS:
        raise ValueError(f"{start} bits is above the precision cap of {errors.PRECISION_CAP_BITS}")
    premise_ok = validate_witness(wt, ctx.cf.quotients, ctx.cf2.quotients)
    k, l, m = wt.k, wt.l, wt.m
    ctx.require_witness(k, l, m)
    _, q_km = ctx.cf.convergent(k + m)
    _, s_lm = ctx.cf2.convergent(l + m)
    bound = Fraction(2, q_km * s_lm)
    phi = phi_vector(ctx, k, l)
    for work in errors.precisions(start):
        enc = eval_linear_forms(ctx, phi, work)[0].abs()
        if enc.hi < bound:
            return SmallnessReport(True, premise_ok, enc, bound, work)
        if enc.lo > bound:
            return SmallnessReport(False, premise_ok, enc, bound, work)
    return SmallnessReport(None, premise_ok, enc, bound, errors.PRECISION_CAP_BITS)


def check_L1_smallness(ctx: PairContext, wt: SharedBlockWitness, bits: int = L1_START_BITS) -> bool:
    rep = l1_smallness_report(ctx, wt, bits)
    if rep.holds is None:
        raise errors.PrecisionExhausted("L1 smallness undecided at precision cap", rep.enclosure)
    return rep.holds


def check_growth_condition(ctx: PairContext, wt: SharedBlockWitness, delta, L) -> bool:
    """(q_k q'_l)^(1+delta) < L q_{k+m} q'_{l+m}, decided in exact integers."""
    delta = Fraction(delta)
    L = Fraction(L)
    if delta <= 0 or L <= 0:
        raise ValueError("delta and L must be positive")
    k, l, m = wt.k, wt.l, wt.m
    ctx.require_witness(k, l, m)
    _, q_k = ctx.cf.convergent(k)
    _, s_l = ctx.cf2.convergent(l)
    _, q_km = ctx.cf.convergent(k + m)
    _, s_lm = ctx.cf2.convergent(l + m)
    u, v = delta.numerator, delta.denominator
    s, t = L.numerator, L.denominator
    return t**v * (q_k * s_l) ** (v + u) < s**v * (q_km * s_lm) ** v

