"""Exact arithmetic primitives: N-adic valuations and N-free parts.

Plain Python integers carry all big-integer work; `fractions.Fraction` is the
exact rational type used across the package (aliased as ExactRational).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import DomainError

ExactRational = Fraction


class Valuation(NamedTuple):
    """A nonzero integer split as N^exponent * unit with N not dividing unit."""

    exponent: int
    unit: int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def check_prime_base(N: int) -> None:
    if not is_prime(N):
        raise DomainError(f"base must be a prime >= 2, got {N}")


def valuation(a: int, N: int) -> Valuation:
    """Largest e with N^e | a, together with the N-free part a / N^e.

    The sign of the unit equals the sign of a. Raises DomainError for a = 0.
    """
    if a == 0:
        raise DomainError("valuation of zero undefined")
    check_prime_base(N)
    return _valuation_unchecked(a, N)


def _valuation_unchecked(a: int, N: int) -> Valuation:
    # Hot path; callers guarantee a != 0 and N prime.
    if N == 2:
        e = (a & -a).bit_length() - 1
        return Valuation(e, a >> e)
    e = 0
    while a % N == 0:
        a //= N
        e += 1
    return Valuation(e, a)

