"""Transform evaluation with certified truncation errors.

Single factors are short exponential sums, finite products give the
level-k transform, and tails of the infinite product are truncated with
an explicit error bound built on system._tail_ratio_sum, the exact tail
series. Floats here are advisory; every PASS/FAIL style decision happens
on integers and Fractions. Every N-term sum starts at the d = 0 term's
exact value 1, which has the bits exp(0) would give.
"""

import cmath
from fractions import Fraction
from math import isfinite, pi

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedCaseError
from .system import MoranSystem, _tail_ratio_sum, hypothesis_holds_from


def m_factor(N: int, t: int, x) -> complex:
    """Mean of the N unit exponentials at frequencies 0, tx, ..., (N-1)tx.

    Exact rationals get their phases reduced modulo 1 before any float
    touches them, so huge arguments lose no precision.
    """
    return _product(N, ((t, 1),), x, "float transform")


def mu_hat_k(sys: MoranSystem, k: int, xi) -> complex:
    """Level-k transform value: product of the first k factors at xi."""
    factors = [(sys.t_entry(j), sys.b_product(j)) for j in range(1, k + 1)]
    return _product(sys.N, factors, xi, "float transform")


def _check_phases(N: int, t: int, theta_top: float, n: int, what: str, top: float):
    """Refuse factor n when a phase 2*pi*j*t*theta with j < N and
    |theta| <= theta_top is not a finite float. Rounding is monotone,
    so the largest phase is the one at j = N - 1 and theta_top."""
    if not isfinite((2 * pi * (N - 1) * t) * theta_top):
        raise ResourceError(
            f"{what} phase overflows at factor {n} for |x| = {top:.6g}; use a grid nearer 0"
        )


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
    top = float(np.abs(xs).max(initial=0.0))
    out = np.ones(xs.shape, dtype=complex)
    for j in range(1, k + 1):
        B = sys.b_product(j)
        t = sys.t_entry(j)
        ratio = (shift % B) / B
        try:
            scale = 1.0 / float(B)
        except OverflowError:
            scale = 0.0
        # ratio >= 0, so no |theta| is above ratio + top * scale
        _check_phases(sys.N, t, ratio + top * scale, j, "float transform", top)
        theta = ratio + xs * scale
        acc = np.ones(xs.shape, dtype=complex)
        for d in range(1, sys.N):
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
        total = complex(1)
        for j in range(1, N):
            total += cmath.exp(turn * (j * step % den / den))
        value *= total / N
    return value


def _float_product(N: int, factors, xs, what: str) -> np.ndarray:
    """Product of m_factor(N, t, x/B) over the integer pairs (t, B) in
    factors at every float x in xs, one factor at a time across the array.

    Each point gets the bits of the per-point float product of m_factor
    values: the same float operations in the same order, with the complex
    sum and product kept as separate real and imaginary arrays, because
    numpy's complex multiply rounds differently from CPython's. A scale
    product past the float range is a ResourceError naming the factor.
    """
    top = float(np.abs(xs).max(initial=0.0))
    re = np.ones(xs.shape)
    im = np.zeros(xs.shape)
    for n, (t, B) in enumerate(factors, start=1):
        try:
            scale = float(B)
        except OverflowError:
            raise ResourceError(
                f"{what} stops at factor {n} of {len(factors)}: its scale "
                f"product has {abs(B).bit_length()} bits, beyond float range; lower the depth"
            ) from None
        x = xs / scale
        _check_phases(N, t, top / scale, n, what, top)
        sum_re = np.ones(xs.shape)
        sum_im = np.zeros(xs.shape)
        for j in range(1, N):
            theta = (2 * pi * j * t) * x
            sum_re += np.cos(theta)
            sum_im += np.sin(theta)
        f_re = sum_re / N
        f_im = sum_im / N
        re, im = re * f_re - im * f_im, re * f_im + im * f_re
    values = re.astype(complex)
    values.imag = im
    return values


def _product(N: int, factors, xi, what: str) -> complex:
    """Product of m_factor(N, t, xi/B) over the pairs (t, B) in factors:
    from exact residues for an int or Fraction xi, else from the float
    product."""
    if isinstance(xi, (int, Fraction)):
        return _residue_product(N, factors, xi.numerator, xi.denominator)
    return complex(_float_product(N, factors, np.array([xi], dtype=float), what)[0])


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
        value = _product(self.N, self._factors, xi, "float tail")
        return value, self._err_scale * abs(float(xi)) * self._ratio

    def grid(self, xs):
        """(values, errs) at every float in xs, from the float product
        (_float_product)."""
        xs = np.asarray(xs, dtype=float)
        return _float_product(self.N, self._factors, xs, "float tail"), self._err_scale * np.abs(xs) * self._ratio

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
