from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moran.errors import DomainError
from moran.numthy import ExactRational, valuation


@pytest.mark.parametrize(
    "a,N,expected",
    [
        (18, 2, (1, 9)),
        (4, 3, (0, 4)),
        (144, 2, (4, 9)),
        (162, 3, (4, 2)),
        (-12, 2, (2, -3)),
        (1, 5, (0, 1)),
    ],
)
def test_valuation_examples(a, N, expected):
    assert valuation(a, N) == expected


def test_zero_rejected():
    with pytest.raises(DomainError):
        valuation(0, 2)


def test_nonprime_base_rejected():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(DomainError):
            valuation(12, bad)


nonzero = st.integers(min_value=-(10**100), max_value=10**100).filter(lambda n: n != 0)
primes = st.sampled_from([2, 3, 5, 7, 11, 97])


@given(nonzero, nonzero, primes)
def test_valuation_additive(a, b, N):
    assert valuation(a * b, N).exponent == valuation(a, N).exponent + valuation(b, N).exponent


@given(nonzero, primes)
def test_valuation_reconstruction(a, N):
    e, u = valuation(a, N)
    assert N**e * u == a
    assert u % N != 0
    assert (u > 0) == (a > 0)


def test_exact_rational_is_exact():
    p_q = ExactRational(10**40 + 1, 3**25)
    r_s = ExactRational(-7, 11**13)
    assert (p_q + r_s) - r_s == p_q
    assert ExactRational(6, 4) == Fraction(3, 2)
