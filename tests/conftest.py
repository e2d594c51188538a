from fractions import Fraction

import pytest

from cfspectra import IntPolynomial, isolate_real_roots


def mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """The product of two polynomials (tests build reducible inputs with it)."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial.from_coeffs(out)


def root_of(coeffs, index=-1):
    """Real root of the polynomial with the given low-first coefficients."""
    return isolate_real_roots(IntPolynomial.from_coeffs(coeffs))[index]


@pytest.fixture
def sqrt2():
    return root_of([-2, 0, 1])


@pytest.fixture
def sqrt3():
    return root_of([-3, 0, 1])


@pytest.fixture
def golden():
    return root_of([-1, -1, 1])


@pytest.fixture
def cbrt2():
    return root_of([-2, 0, 0, 1])


def frac(a, b=1):
    return Fraction(a, b)
