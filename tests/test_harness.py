import random
from fractions import Fraction

import pytest

from cfspectra import (
    Mat2,
    PairContext,
    PrecisionExhausted,
    check_growth_condition,
    check_L1_smallness,
    check_transport_identity,
    eval_linear_forms,
    find_shared_blocks,
    l1_smallness_report,
    mirror_quadruple,
    phi_vector,
    word_matrix,
)

from conftest import root_of


def make_pair(depth=60):
    alpha = root_of([-2, 0, 1])  # sqrt(2) = [1; 2, 2, ...]
    alpha2 = root_of([-1, 0, 2])  # 1/sqrt(2) = [0; 1, 2, 2, ...]
    return PairContext.build(alpha, alpha2, depth)


class TestTransport:
    def test_plain_fixture(self):
        assert check_transport_identity((1, 2), (2, 1), (3, 4))

    def test_mirror_fixture(self):
        assert check_transport_identity((1, 2), (2, 1), (3, 4), mirror=True)

    def test_random_triples(self):
        rng = random.Random(11)
        for _ in range(300):
            a = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            a2 = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            assert check_transport_identity(a, a2, b)
            assert check_transport_identity(a, a2, b, mirror=True)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_transport_identity((), (1,), (2,))


class TestPhiVector:
    def test_matches_matrix_minors(self):
        ctx = make_pair(depth=20)
        for k, l in [(1, 1), (3, 2), (5, 5)]:
            phi = phi_vector(ctx, k, l)
            p_k, q_k = ctx.cf.convergent(k)
            p_k1, q_k1 = ctx.cf.convergent(k - 1)
            r_l, s_l = ctx.cf2.convergent(l)
            r_l1, s_l1 = ctx.cf2.convergent(l - 1)
            x1, x2, x3, x4 = tuple(phi)
            assert x1 == q_k * s_l1 - q_k1 * s_l
            assert x4 == p_k * r_l1 - p_k1 * r_l
            # 2x2 minor structure: det of the paired convergent matrices
            m = Mat2(q_k, q_k1, p_k, p_k1) @ Mat2(s_l1, r_l1, -s_l, -r_l)
            assert (m.a, m.b, m.c, m.d) == (x1, x2, x3, x4)

    def test_mirror_quadruple_unimodular_arrangement(self):
        ctx = make_pair(depth=20)
        quad = mirror_quadruple(ctx, 3, 2, 4)
        assert quad.arrangement().det() == -1


class TestLinearForms:
    def test_l4_exact(self):
        ctx = make_pair(depth=20)
        phi = phi_vector(ctx, 2, 2)
        l1, l2, l3, l4 = eval_linear_forms(ctx, phi, bits=128)
        assert l4.lo == l4.hi == tuple(phi)[0]

    def test_forms_shrink_with_bits(self):
        ctx = make_pair(depth=20)
        phi = phi_vector(ctx, 2, 2)
        wide = eval_linear_forms(ctx, phi, bits=64)[0]
        tight = eval_linear_forms(ctx, phi, bits=512)[0]
        assert tight.width < wide.width

    def test_bits_floor(self):
        ctx = make_pair(depth=10)
        with pytest.raises(ValueError):
            eval_linear_forms(ctx, (1, 0, 0, 0), bits=8)


class TestSmallness:
    def test_shared_tail_witness_holds(self):
        ctx = make_pair(depth=60)
        wits = find_shared_blocks(ctx.cf.quotients, ctx.cf2.quotients, L=4, min_b=30)
        assert wits
        wt = max(wits, key=lambda t: t.m)
        rep = l1_smallness_report(ctx, wt)
        assert rep.holds is True
        assert rep.premise_ok
        assert rep.enclosure.hi < rep.bound
        assert check_L1_smallness(ctx, wt)

    def test_mirror_witness_rejected(self):
        from cfspectra import SharedBlockWitness

        ctx = make_pair(depth=20)
        with pytest.raises(ValueError):
            l1_smallness_report(ctx, SharedBlockWitness(1, 1, 2, mirror=True))

    def test_witness_outside_the_expansions(self):
        from cfspectra import SharedBlockWitness

        ctx = make_pair(depth=10)
        for (k, l, m), text in (((9, 9, 9), "depth 18; have 10 and 10"),
                                ((-3, 1, 1), "must not be negative"),
                                ((1, 1, 0), "m must be positive")):
            wt = SharedBlockWitness(k, l, m)
            for check in (l1_smallness_report, lambda c, w: check_growth_condition(c, w, 1, 1)):
                with pytest.raises(ValueError, match=text):
                    check(ctx, wt)
        with pytest.raises(ValueError, match="depth 11"):
            mirror_quadruple(ctx, 1, 8, 3)

    def test_report_carries_bits_used(self):
        ctx = make_pair(depth=60)
        wits = find_shared_blocks(ctx.cf.quotients, ctx.cf2.quotients, L=4, min_b=30)
        rep = l1_smallness_report(ctx, max(wits, key=lambda t: t.m), bits=64)
        assert rep.bits_used >= 64
        assert rep.holds is not None


class TestGrowthCondition:
    def test_holds_for_small_delta(self):
        ctx = make_pair(depth=60)
        wits = find_shared_blocks(ctx.cf.quotients, ctx.cf2.quotients, L=4, min_b=30)
        wt = max(wits, key=lambda t: t.m)
        assert check_growth_condition(ctx, wt, Fraction(1, 10), Fraction(2))

    def test_fails_for_huge_delta(self):
        ctx = make_pair(depth=40)
        wits = find_shared_blocks(ctx.cf.quotients, ctx.cf2.quotients, L=4, min_b=5)
        wt = min(wits, key=lambda t: t.m)
        assert not check_growth_condition(ctx, wt, Fraction(50), Fraction(1, 1000))

    def test_rejects_nonpositive(self):
        from cfspectra import SharedBlockWitness

        ctx = make_pair(depth=20)
        with pytest.raises(ValueError):
            check_growth_condition(ctx, SharedBlockWitness(1, 1, 2), 0, 1)

