"""Transform evaluation with certified truncation errors.

Single factors are short exponential sums, finite products give the
level-k transform, and tails of the infinite product are truncated with
an explicit error bound built on system._tail_ratio_sum, the exact tail
series. Floats here are advisory; every PASS/FAIL style decision happens
on integers and Fractions. Every N-term sum starts at the d = 0 term's
exact value 1, which has the bits exp(0) would give.
"""

from fractions import Fraction
from math import inf, isfinite, pi

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedCaseError
from .system import MoranSystem, _tail_ratio_sum, hypothesis_holds_from

_PHASES = 2**16  # the phases one group of factors in _residue_products may hold


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
        out *= _shifted_factor(sys, j, xs, shift % sys.b_product(j), top)
    return out


def _shifted_factor(sys: MoranSystem, j: int, xs: np.ndarray, residue: int, top: float) -> np.ndarray:
    """Factor j of the transform at xs + shift, for every integer shift
    with shift % B_j == residue: the phase depends on the shift only
    through that residue. top is max |xs|, for the phase check."""
    B = sys.b_product(j)
    t = sys.t_entry(j)
    ratio = residue / B
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
    return acc / sys.N


def _means(N: int, thetas):
    """(real, imag) parts of the means (1/N) sum_{j<N} exp(i theta_j),
    elementwise, for the phase arrays thetas of j = 1..N-1 (the j = 0 term
    is exactly 1), summed in the order of the per-point complex loop."""
    sum_re, sum_im = 1.0, 0.0
    for theta in thetas:
        sum_re = sum_re + np.cos(theta)
        sum_im = sum_im + np.sin(theta)
    return sum_re / N, sum_im / N


def _product_of(means, shape) -> np.ndarray:
    """The product of the factors (f_re, f_im) in means, elementwise, with
    the bits of the per-point complex loop: the same float operations in
    the same order, kept as separate real and imaginary arrays, because
    numpy's complex multiply rounds differently from CPython's."""
    re = np.ones(shape)
    im = np.zeros(shape)
    for f_re, f_im in means:
        re, im = re * f_re - im * f_im, re * f_im + im * f_re
    values = re.astype(complex)
    values.imag = im
    return values


def _residue_products(N: int, factors, ps, q: int) -> np.ndarray:
    """Product of m_factor(N, t, p/(q*B)) over the integer pairs (t, B)
    in factors, at every integer p in ps, for an integer q; q and every B
    are nonzero.

    Each phase j*t*p/(q*B) is reduced modulo 1 as an integer residue
    over |q*B|; the one rounding is the correctly rounded quotient of the
    two integers, so huge arguments lose no precision. The means come
    from one array of phases per group of factors: as many factors as fit
    in _PHASES phases, and at least one, so a small batch pays for one
    cos and one sin call per group rather than per factor.

    Every value has the bits of the per-point complex loop over
    cmath.exp as long as numpy's float64 cos and sin return the bits of
    libm's (math.cos, math.sin), which cmath.exp uses; certificate tail
    bounds rest on that, and tests/test_fourier.py checks it.
    """
    group = max(1, _PHASES // max(1, (N - 1) * len(ps)))

    def means():
        for at in range(0, len(factors), group):
            rows = []
            for t, B in factors[at : at + group]:
                den = q * B
                step = -t if den < 0 else t
                den = abs(den)
                rows.extend([j * step * p % den / den for p in ps] for j in range(1, N))
            theta = (2 * pi) * np.array(rows, dtype=float).reshape(len(rows) // (N - 1), N - 1, len(ps))
            yield from zip(*_means(N, np.moveaxis(theta, 1, 0)))

    return _product_of(means(), len(ps))


def _float_product(N: int, factors, xs, what: str) -> np.ndarray:
    """Product of m_factor(N, t, x/B) over the integer pairs (t, B) in
    factors at every float x in xs, one factor at a time across the array,
    with the bits of the per-point float product of m_factor values. A
    scale product past the float range is a ResourceError naming the
    factor.
    """
    top = float(np.abs(xs).max(initial=0.0))

    def means():
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
            yield _means(N, ((2 * pi * j * t) * x for j in range(1, N)))

    return _product_of(means(), xs.shape)


def _product(N: int, factors, xi, what: str) -> complex:
    """Product of m_factor(N, t, xi/B) over the pairs (t, B) in factors:
    from exact residues for an int or Fraction xi, else from the float
    product."""
    if isinstance(xi, (int, Fraction)):
        return complex(_residue_products(N, factors, [xi.numerator], xi.denominator)[0])
    return complex(_float_product(N, factors, np.array([xi], dtype=float), what)[0])


def _abs_ratio(p: int, q: int) -> float:
    try:
        return abs(p / q)
    except OverflowError:
        return inf


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

    def exact_many(self, ps, q: int):
        """(values, errs) at the rationals p/q for every integer p in ps,
        for an integer q != 0, in one call of _residue_products; each err
        is the bound __call__ gives at p/q, and inf where |p/q| is past
        the float range."""
        ratios = np.array([_abs_ratio(p, q) for p in ps], dtype=float)
        return _residue_products(self.N, self._factors, ps, q), self._err_scale * ratios * self._ratio


def nu_hat_tail(sys: MoranSystem, k: int, xi, M: int):
    """Truncated tail transform past level k with a certified bound.

    Returns (value, err): the product of tail factors k+1 .. k+M and a
    bound with |true tail value - value| <= err. Callers evaluating many
    frequencies for one (sys, k, M) should build one TailKernel instead.
    """
    return TailKernel(sys, k, M)(xi)
