"""Transform evaluation with certified truncation errors.

Single factors are short exponential sums, finite products give the
level-k transform, and tails of the infinite product are truncated with
an explicit error bound. Zero-set membership is decided in exact
arithmetic; floats here are advisory, every PASS/FAIL style decision
happens on integers and Fractions.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Optional, Union

import numpy as np

from .errors import DomainError, HorizonError, UnsupportedCaseError
from .numthy import ExactRational, _valuation_unchecked
from .system import MoranSystem, hypothesis_holds_from

Rational = Union[int, Fraction]


def m_factor(N: int, t: int, x) -> complex:
    """Mean of the N unit exponentials at frequencies 0, tx, ..., (N-1)tx.

    Exact rationals get their phases reduced modulo 1 before any float
    touches them, so huge arguments lose no precision.
    """
    if isinstance(x, (int, Fraction)):
        tx = Fraction(t) * x
        total = 0j
        for j in range(N):
            total += cmath.exp(2j * pi * float((j * tx) % 1))
        return total / N
    total = 0j
    for j in range(N):
        total += cmath.exp(2j * pi * j * t * x)
    return total / N


def mu_hat_k(sys: MoranSystem, k: int, xi) -> complex:
    """Level-k transform value: product of the first k factors at xi."""
    out = complex(1)
    exact = isinstance(xi, (int, Fraction))
    for j in range(1, k + 1):
        B = sys.b_product(j)
        t = sys.t_entry(j)
        arg = Fraction(xi, B) if exact else xi / B
        out *= m_factor(sys.N, t, arg)
    return out


def mu_hat_shifted_grid(sys: MoranSystem, k: int, xs, shift: int) -> np.ndarray:
    """Level-k transform at xs + shift for an integer shift, at full
    precision.

    Adding a large shift to xs in floats erases the fractional part, so
    the shift instead enters each factor reduced modulo that factor's
    scale product: the phase only ever depends on that residue. Both the
    residue ratio and the xs term stay of modest size, so nothing is
    lost no matter how large the shift grows.
    """
    xs = np.asarray(xs, dtype=float)
    if k < 0:
        raise DomainError(f"level must be >= 0, got {k}")
    shift = int(shift)
    out = np.ones(xs.shape, dtype=complex)
    for j in range(1, k + 1):
        B = sys.b_product(j)
        t = sys.t_entry(j)
        ratio = (shift % B) / B
        try:
            scale = 1.0 / float(B)
        except OverflowError:
            scale = 0.0
        theta = ratio + xs * scale
        acc = np.zeros(xs.shape, dtype=complex)
        for d in range(sys.N):
            acc += np.exp(2j * pi * d * t * theta)
        out *= acc / sys.N
    return out


def _residue_product(N: int, factors, p: int, q: int) -> complex:
    """Product of m_factor(N, t, p/(q*B)) over the integer pairs (t, B)
    in factors, for integers p and q, with q and every B nonzero.

    Each phase j*t*p/(q*B) is reduced modulo 1 as an integer residue
    over |q*B|; the one rounding is the correctly rounded quotient of the
    two integers, so huge arguments lose no precision, and every factor
    has the bits of m_factor's Fraction path.
    """
    turn = 2j * pi
    value = complex(1)
    for t, B in factors:
        den = q * B
        step = t * p
        if den < 0:
            den, step = -den, -step
        total = 0j
        for j in range(N):
            total += cmath.exp(turn * (j * step % den / den))
        value *= total / N
    return value


def _tail_ratio_sum(sys: MoranSystem, k: int, M: int) -> Fraction:
    """Exact value of sum over n > M of |t_{k+n}| / |b_{k+1} ... b_{k+n}|.

    Entries may be negative, so magnitudes are summed; that is what the
    truncation bound needs. Head terms are added one by one until the
    indices k+n sit past the preperiod; from there one period block is
    summed and the rest is geometric with ratio one over the period
    product of |b|.
    """
    if not sys.is_periodic:
        raise HorizonError("tail sums need periodic sequence specs")
    sk = sys.skeleton
    P, p = sk.P, sk.p
    total = Fraction(0)
    B = Fraction(1)
    for i in range(1, M + 1):
        B *= abs(sys.b_entry(k + i))
    n = M + 1
    while k + n <= P:
        B *= abs(sys.b_entry(k + n))
        total += Fraction(abs(sys.t_entry(k + n))) / B
        n += 1
    block = Fraction(0)
    Bp = 1
    for r in range(p):
        B *= abs(sys.b_entry(k + n + r))
        Bp *= abs(sys.b_entry(k + n + r))
        block += Fraction(abs(sys.t_entry(k + n + r))) / B
    return total + block * Fraction(Bp, Bp - 1)


class TailKernel:
    """The truncated tail transform past level k, set up once for reuse.

    Everything that does not depend on the frequency is done here: the
    growth hypothesis check, the tail scale products b_{k+1} ... b_{k+n}
    for n = 1..M with their digit steps, and the exact truncation ratio
    sum. Calls then cost M short exponential sums each.
    """

    def __init__(self, sys: MoranSystem, k: int, M: int):
        bad = hypothesis_holds_from(sys, k + 1)
        if bad is not None:
            raise UnsupportedCaseError(
                f"tail bound needs |b| > (N-1)|t| from index {k + 1} on; index {bad} violates it"
            )
        self.N = sys.N
        factors = []
        B = 1
        for n in range(1, M + 1):
            B *= sys.b_entry(k + n)
            factors.append((sys.t_entry(k + n), B))
        self._factors = tuple(factors)
        self._err_scale = pi * (sys.N - 1)
        self._ratio = float(_tail_ratio_sum(sys, k, M))

    def __call__(self, xi):
        """(value, err) at xi; |true tail value - value| <= err.

        The bound comes from |exp(i theta) - 1| <= |theta| applied to
        every dropped factor, so it is proportional to |xi| and decays
        with the full b product.
        """
        if isinstance(xi, (int, Fraction)):
            return self.exact(xi.numerator, xi.denominator)
        value = complex(1)
        for t, B in self._factors:
            value *= m_factor(self.N, t, xi / B)
        return value, self._err_scale * abs(float(xi)) * self._ratio

    def exact(self, p: int, q: int):
        """(value, err) at the rational p/q, for integers p and q != 0,
        from exact integer residues (_residue_product)."""
        value = _residue_product(self.N, self._factors, p, q)
        return value, self._err_scale * abs(p / q) * self._ratio


def nu_hat_tail(sys: MoranSystem, k: int, xi, M: int):
    """Truncated tail transform past level k with a certified bound.

    Returns (value, err): the product of tail factors k+1 .. k+M and a
    bound with |true tail value - value| <= err. Callers evaluating many
    frequencies for one (sys, k, M) should build one TailKernel instead.
    """
    return TailKernel(sys, k, M)(xi)


def support_radius(sys: MoranSystem, k: int) -> ExactRational:
    """Exact upper bound for how far mass past level k can reach."""
    return (sys.N - 1) * _tail_ratio_sum(sys, k, 0)


@dataclass(frozen=True)
class ZeroSetComponent:
    """One exactly-described component of the transform's zero set.

    The component is scale * w / denominator over integers w coprime
    to the prime. Membership of a rational is a divisibility question.
    """

    index: int
    scale: ExactRational
    denominator: int
    prime: int

    def contains(self, xi: Rational) -> bool:
        quotient = Fraction(xi) * self.denominator / self.scale
        return quotient.denominator == 1 and quotient.numerator % self.prime != 0


def zero_set_component(sys: MoranSystem, k: int) -> ZeroSetComponent:
    sk = sys.skeleton
    return ZeroSetComponent(
        index=k,
        scale=Fraction(sys.N) ** sk.s(k) * sk.bold_b(k),
        denominator=sk.t_free(k),
        prime=sys.N,
    )


def zero_set_member(sys: MoranSystem, xi, horizon: Optional[int] = None) -> Optional[int]:
    """Smallest component index containing xi, or a certified None.

    The component at index k has magnitude at least B_k / (N t_k), so
    once B_k exceeds N * t_max * |xi| no later component can contain
    xi and the scan stops with a proof. An explicit horizon turns an
    unfinished scan into a horizon error instead.
    """
    xi = Fraction(xi)
    sk = sys.skeleton
    N = sys.N
    t_max = max(abs(v) for v in sys.t.all_values())
    as_int = xi.denominator == 1
    if as_int and xi != 0:
        e, u0 = _valuation_unchecked(xi.numerator, N)
    abs_xi = abs(xi)
    k = 1
    while True:
        if horizon is not None and k > horizon:
            raise HorizonError(f"zero-set scan passed the horizon {horizon} uncertified")
        B = sys.b_product(k)
        if Fraction(abs(B), N * t_max) > abs_xi:
            return None
        if xi != 0:
            if as_int:
                if sk.s(k) == e and (u0 * sk.t_free(k)) % sk.bold_b(k) == 0:
                    return k
            else:
                q = xi * sk.t_free(k) / (Fraction(N) ** sk.s(k) * sk.bold_b(k))
                if q.denominator == 1 and q.numerator % N != 0:
                    return k
        k += 1
