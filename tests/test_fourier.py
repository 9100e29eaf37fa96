"""Tests for transform factors, truncated tails, and the zero set.

Closed-form values are checked against direct summation oracles written
here from the definitions, and every exact golden Fraction below was
derived by hand from the geometric series for the specific sequences.
The zero-set scans live in zero_set_oracle, which the orthogonality
tests compare against.
"""

import cmath
import math
import random
from fractions import Fraction
from math import pi, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moran import fourier
from moran.errors import HorizonError, UnsupportedCaseError
from moran.fourier import (
    TailKernel,
    _residue_products,
    m_factor,
    mu_hat_k,
    mu_hat_shifted_grid,
    nu_hat_tail,
)
from moran.system import (
    MoranSystem,
    SequenceSpec,
    _tail_ratio_sum,
    hypothesis_holds_from,
    normalize,
)
from zero_set_oracle import zero_set_component, zero_set_member

# -- oracles ---------------------------------------------------------------


def ref_m(N, t, x):
    # plain float summation of the defining exponential mean
    return sum(cmath.exp(2j * pi * j * t * x) for j in range(N)) / N


def ref_m_exact(N, t, x):
    # the Fraction path summed over all N terms, exp(0) included
    return sum(cmath.exp(2j * pi * float((j * Fraction(t) * x) % 1)) for j in range(N)) / N


def ref_residue_point(N, factors, p, q):
    # one point in CPython complex arithmetic: each phase j*t*p/(q*B)
    # reduced modulo 1 as a Fraction, then one cmath.exp per term
    value = complex(1)
    for t, B in factors:
        total = complex(1)
        for j in range(1, N):
            total += cmath.exp(2j * pi * float(Fraction(j * t * p, q * B) % 1))
        value *= total / N
    return value


def ref_point_tail(sys, k, M, x):
    # the per-point float tail loop: a complex product in CPython
    # arithmetic of full N-term sums, one grid point at a time
    value = complex(1)
    B = 1
    for n in range(1, M + 1):
        B *= sys.b_entry(k + n)
        value *= ref_m(sys.N, sys.t_entry(k + n), x / B)
    return value


def ref_shifted_grid(sys, k, xs, shift):
    # the shifted grid with every N-term sum started at zero, so the
    # d = 0 term is evaluated as exp(0)
    xs = np.asarray(xs, dtype=float)
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


def ref_tail_partial(sys, k, M, depth):
    # first `depth` dropped terms of the magnitude ratio series, exactly
    total = Fraction(0)
    for n in range(M + 1, M + depth + 1):
        B = prod(abs(sys.b_entry(k + i)) for i in range(1, n + 1))
        total += Fraction(abs(sys.t_entry(k + n)), B)
    return total


def ref_tail(sys, k, xi, M):
    # the per-call tail loop: a Fraction argument per factor, reduced
    # modulo 1 inside ref_m_exact, and the ratio sum recomputed every call
    exact = isinstance(xi, (int, Fraction))
    value = complex(1)
    B = 1
    for n in range(1, M + 1):
        B *= sys.b_entry(k + n)
        if exact:
            value *= ref_m_exact(sys.N, sys.t_entry(k + n), Fraction(xi, B))
        else:
            value *= ref_m(sys.N, sys.t_entry(k + n), xi / B)
    err = pi * (sys.N - 1) * abs(float(xi)) * float(_tail_ratio_sum(sys, k, M))
    return value, err


def support_radius(sys, k):
    # how far the mass past level k can reach: N - 1 digit steps per level
    return (sys.N - 1) * _tail_ratio_sum(sys, k, 0)


def bits(pair):
    # exact float identity, telling -0.0 from 0.0
    value, err = pair
    return (value.real.hex(), value.imag.hex(), err.hex())


def complex_bits(value):
    return (float(value.real).hex(), float(value.imag).hex())


# -- fixtures --------------------------------------------------------------


def example_1(normalized=False):
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1, 4]))
    return normalize(sys)[0] if normalized else sys


def example_tile_only():
    return MoranSystem(
        3, SequenceSpec.periodic([3]), SequenceSpec.periodic([4], preperiod=[1])
    )


def quarter_system():
    # N=2 with constant quarter scaling and unit digits
    return MoranSystem(2, SequenceSpec.periodic([4]), SequenceSpec.periodic([1]))


def half_step_system():
    # components of its zero set are genuine half-integers
    return MoranSystem(3, SequenceSpec.periodic([3]), SequenceSpec.periodic([2]))


def random_hypothesis_system(rng):
    N = rng.choice([2, 3])
    bs, ts = [], []
    for _ in range(rng.randint(1, 2)):
        t = rng.choice([1, 1, 2, -1])
        b = rng.randint(max((N - 1) * abs(t) + 1, 2), 8)
        if rng.random() < 0.3:
            b = -b
        bs.append(b)
        ts.append(t)
    return MoranSystem(N, SequenceSpec.periodic(bs), SequenceSpec.periodic(ts))


# -- single factors --------------------------------------------------------


def test_m_factor_unit_and_root_values():
    assert m_factor(2, 1, 0) == 1
    assert abs(m_factor(2, 1, Fraction(1, 2))) < 1e-12
    assert abs(m_factor(3, 4, Fraction(1, 12))) < 1e-12
    assert abs(m_factor(5, 1, Fraction(1, 5))) < 1e-12
    assert m_factor(2, 1, 1) == pytest.approx(1)


def test_m_factor_reduces_huge_rational_phases():
    """An astronomically large argument with half-integer product stays exact."""
    x = Fraction(10**50 + 1, 2)
    assert abs(m_factor(2, 1, x)) < 1e-12


@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=1, max_value=64),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=9),
)
def test_m_factor_rational_matches_float_path(num, den, N, t):
    x = Fraction(num, den)
    exact = m_factor(N, t, x)
    direct = ref_m(N, t, float(x))
    assert abs(exact - direct) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(-40, 40),
    st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**20),
        st.integers(-(10**20), 10**20),
    ),
)
def test_m_factor_matches_the_all_terms_sum_bit_for_bit(N, t, x):
    # the d = 0 term enters as its exact value 1, not as exp(0)
    want = ref_m(N, t, x) if isinstance(x, float) else ref_m_exact(N, t, x)
    assert complex_bits(m_factor(N, t, x)) == complex_bits(want)


def test_factor_shift_periodicity_is_exact():
    """Shifting the frequency by the full scale product leaves a factor unchanged."""
    sys = example_1()
    for j in range(1, 5):
        B = sys.b_product(j)
        t = sys.t_entry(j)
        for a in (1, 5, -7):
            assert m_factor(2, t, Fraction(a, B)) == m_factor(2, t, Fraction(a + B, B))


# -- finite products -------------------------------------------------------


def test_mu_hat_at_zero_is_exactly_one():
    assert mu_hat_k(example_1(), 5, 0) == 1


def test_mu_hat_vanishes_on_known_zeros():
    ex1n = example_1(normalized=True)
    assert abs(mu_hat_k(ex1n, 1, 18)) < 1e-12
    assert abs(mu_hat_k(quarter_system(), 2, 2)) < 1e-12
    # a zero acquired at level two persists in every longer product
    for k in (2, 3, 5):
        assert abs(mu_hat_k(ex1n, k, 81)) < 1e-12


def test_mu_hat_grid_matches_scalar_eval():
    sys = example_1()
    xs = [(-3 + 6 * i / 100) for i in range(101)]
    grid = mu_hat_shifted_grid(sys, 3, xs, 0)
    for x, value in zip(xs, grid):
        assert abs(value - mu_hat_k(sys, 3, float(x))) < 1e-12


# -- exact tail sums -------------------------------------------------------


def test_tail_ratio_closed_forms():
    ex1n = example_1(normalized=True)
    assert _tail_ratio_sum(ex1n, 2, 0) == Fraction(22, 323)
    assert _tail_ratio_sum(ex1n, 2, 1) == Fraction(73, 5814)
    assert _tail_ratio_sum(ex1n, 2, 2) == Fraction(22, 323 * 324)
    assert _tail_ratio_sum(quarter_system(), 0, 0) == Fraction(1, 3)


def test_tail_ratio_telescopes_against_partial_sums():
    rng = random.Random(11)
    for _ in range(20):
        sys = random_hypothesis_system(rng)
        k = rng.randint(0, 3)
        M = rng.randint(0, 2)
        depth = 25
        partial = ref_tail_partial(sys, k, M, depth)
        closed = _tail_ratio_sum(sys, k, M)
        assert closed - partial == _tail_ratio_sum(sys, k, M + depth)
        t_max = max(abs(v) for v in sys.t.all_values())
        assert Fraction(0) < closed - partial <= Fraction(t_max, 2 ** (M + depth))


def test_tail_ratio_needs_periodicity():
    sys = MoranSystem(2, SequenceSpec.prefix([4, 4]), SequenceSpec.prefix([1, 1]))
    with pytest.raises(HorizonError):
        _tail_ratio_sum(sys, 0, 0)


# -- truncated tails with certified error ----------------------------------


def test_tail_at_zero_frequency_is_exact():
    value, err = nu_hat_tail(example_1(), 2, 0, 8)
    assert value == 1
    assert err == 0.0


def test_tail_error_scaling_between_depths():
    ex1n = example_1(normalized=True)
    errs = {M: nu_hat_tail(ex1n, 2, 1, M)[1] for M in range(1, 13)}
    for M in range(1, 11):
        assert errs[M + 1] <= errs[M]
        assert errs[M] / errs[M + 2] == pytest.approx(324, rel=1e-9)
    # the digit alternation makes five steps from an odd depth extra favorable
    for M in (1, 3, 5):
        ratio = _tail_ratio_sum(ex1n, 2, M) / _tail_ratio_sum(ex1n, 2, M + 5)
        assert ratio == Fraction(73 * 18**5, 22)
        assert ratio >= 18**5


def test_tail_matches_cosine_product():
    sys = quarter_system()
    value, err = nu_hat_tail(sys, 0, 1, 20)
    expected = prod(math.cos(pi / 4**n) for n in range(1, 21))
    assert abs(value) == pytest.approx(expected, rel=1e-12)
    assert err == pytest.approx(pi / 3 / 4**20, rel=1e-12)
    deeper, _ = nu_hat_tail(sys, 0, 1, 40)
    assert abs(value - deeper) <= err


def test_tail_refuses_when_digits_outgrow_scales():
    sys = example_tile_only()
    assert hypothesis_holds_from(sys, 2) == 2
    with pytest.raises(UnsupportedCaseError, match="index 2"):
        nu_hat_tail(sys, 1, 1, 5)


def test_tail_truncation_error_contract():
    """Deepening the product moves the value by at most the quoted bound."""
    rng = random.Random(23)
    for _ in range(120):
        sys = random_hypothesis_system(rng)
        k = rng.randint(0, 2)
        M = rng.randint(1, 4)
        xi = Fraction(rng.randint(1, 16), 2) * rng.choice([1, -1])
        value, err = nu_hat_tail(sys, k, xi, M)
        deeper, _ = nu_hat_tail(sys, k, xi, M + 10)
        assert abs(value - deeper) <= err + 1e-12


@st.composite
def hypothesis_systems(draw):
    N = draw(st.sampled_from([2, 3]))
    bs, ts = [], []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.sampled_from([1, 2, -1, 3, 4]))
        b = draw(st.integers((N - 1) * abs(t) + 1, 40))
        bs.append(-b if draw(st.booleans()) else b)
        ts.append(t)
    return MoranSystem(N, SequenceSpec.periodic(bs), SequenceSpec.periodic(ts))


@settings(max_examples=150, deadline=None)
@given(
    hypothesis_systems(),
    st.integers(0, 4),
    st.integers(0, 20),
    st.one_of(
        st.integers(-(10**30), 10**30),
        st.fractions(max_denominator=10**12).filter(lambda f: abs(f) < 10**25),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
)
def test_tail_kernel_matches_reference_loop_bit_for_bit(sys, k, M, xi):
    want = bits(ref_tail(sys, k, xi, M))
    kernel = TailKernel(sys, k, M)
    assert bits(kernel(xi)) == want
    assert bits(nu_hat_tail(sys, k, xi, M)) == want
    if not isinstance(xi, float):
        # unreduced numerators over a negative denominator, as offset
        # searches pass them, land on the same bits
        p, q = Fraction(xi).numerator, Fraction(xi).denominator
        values, errs = kernel.exact_many([-7 * p], -7 * q)
        assert bits((complex(values[0]), float(errs[0]))) == want


nonzero = st.one_of(st.integers(-40, 40), st.integers(-(2**70), 2**70)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(nonzero, nonzero), max_size=6),
    st.lists(st.one_of(st.integers(-1000, 1000), st.integers(-(2**90), 2**90)), max_size=12),
    nonzero,
)
def test_residue_kernel_matches_the_per_point_exp_bit_for_bit(N, factors, ps, q):
    # float.hex, so a signed zero counts; numerators pass 2^64, and q and
    # the scale products take either sign
    want = [complex_bits(ref_residue_point(N, factors, p, q)) for p in ps]
    assert [complex_bits(v) for v in _residue_products(N, factors, ps, q)] == want
    # one factor per group of phases, as for a long list of numerators
    with mock.patch.object(fourier, "_PHASES", 1):
        assert [complex_bits(v) for v in _residue_products(N, factors, ps, q)] == want


def test_numpy_cos_sin_have_the_bits_of_libm():
    # the batched exact kernel runs np.cos/np.sin where the per-point loop
    # ran cmath.exp, whose parts are libm's cos and sin; certificate tail
    # bounds keep their bytes only while the two agree bit for bit
    rng = random.Random(20)
    dens = [rng.randint(1, 2**70) for _ in range(3000)]
    thetas = [(2 * pi) * (rng.randrange(den) / den) for den in dens]
    thetas += [rng.uniform(-1e6, 1e6) for _ in range(1000)]
    thetas += [0.0, -0.0, pi, 2 * pi, pi / 2]
    cos = [x.hex() for x in np.cos(np.array(thetas)).tolist()]
    sin = [x.hex() for x in np.sin(np.array(thetas)).tolist()]
    assert cos == [math.cos(x).hex() for x in thetas]
    assert sin == [math.sin(x).hex() for x in thetas]
    exps = [cmath.exp(complex(0.0, x)) for x in thetas]
    assert [(z.real.hex(), z.imag.hex()) for z in exps] == list(zip(cos, sin))


grid_floats = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e6, -1e6, 0.5, -999_999.75]),
)


@settings(max_examples=150, deadline=None)
@given(hypothesis_systems(), st.integers(0, 4), st.integers(0, 20), st.lists(grid_floats, min_size=1, max_size=12))
def test_tail_grid_matches_the_per_point_loop_bit_for_bit(sys, k, M, xs):
    kernel = TailKernel(sys, k, M)
    values, errs = kernel.grid(np.array(xs))
    for x, value, err in zip(xs, values, errs):
        want = ref_point_tail(sys, k, M, x)
        assert complex_bits(value) == complex_bits(want)
        assert float(err).hex() == kernel(x)[1].hex()
        # the modulus in real arithmetic is CPython's abs
        assert float(np.hypot(value.real, value.imag)).hex() == abs(want).hex()


@settings(max_examples=150, deadline=None)
@given(
    hypothesis_systems(),
    st.integers(0, 12),
    st.one_of(st.integers(-1000, 1000), st.integers(-(10**30), 10**30)),
    st.lists(grid_floats, min_size=1, max_size=12),
)
def test_shifted_grid_matches_the_all_terms_sum_bit_for_bit(sys, k, shift, xs):
    got = mu_hat_shifted_grid(sys, k, xs, shift)
    want = ref_shifted_grid(sys, k, xs, shift)
    assert [complex_bits(v) for v in got] == [complex_bits(v) for v in want]


def test_tail_kernel_checks_the_hypothesis_once_at_build():
    with pytest.raises(UnsupportedCaseError, match="index 2"):
        TailKernel(example_tile_only(), 1, 5)


# -- support radius --------------------------------------------------------


def test_support_radius_golden_values():
    ex1n = example_1(normalized=True)
    assert support_radius(ex1n, 2) == Fraction(22, 323)
    assert support_radius(ex1n, 1) == Fraction(73, 323)
    assert support_radius(example_1(), 0) == Fraction(22, 323)
    assert support_radius(quarter_system(), 0) == Fraction(1, 3)


def test_support_radius_below_one_under_hypothesis():
    rng = random.Random(31)
    for _ in range(50):
        sys = random_hypothesis_system(rng)
        assert hypothesis_holds_from(sys, 1) is None
        for k in range(4):
            assert support_radius(sys, k) <= 1


# -- zero set --------------------------------------------------------------


def test_zero_set_member_golden_results():
    ex1n = example_1(normalized=True)
    assert zero_set_member(ex1n, 18) == 1
    assert zero_set_member(ex1n, -18) == 1
    assert zero_set_member(ex1n, 162) == 1
    assert zero_set_member(ex1n, 81) == 2
    assert zero_set_member(ex1n, 36) is None
    assert zero_set_member(ex1n, 0) is None
    assert zero_set_member(ex1n, Fraction(81)) == 2


def test_zero_set_member_on_fractional_components():
    sys = half_step_system()
    assert zero_set_member(sys, Fraction(5, 2)) == 1
    assert zero_set_member(sys, Fraction(3, 2)) == 2
    assert zero_set_member(sys, 1) == 1
    assert zero_set_member(sys, 3) == 2
    assert zero_set_member(sys, Fraction(15, 2)) == 2


def test_zero_set_scan_respects_horizon():
    with pytest.raises(HorizonError):
        zero_set_member(example_1(), 18**6, horizon=3)


@pytest.mark.parametrize(
    "make,xis",
    [
        (
            lambda: example_1(normalized=True),
            [18, 81, 36, 162, -18, 5, 12, Fraction(81, 2)],
        ),
        (half_step_system, [Fraction(5, 2), Fraction(3, 2), 1, 2, 7]),
    ],
)
def test_zero_set_member_is_smallest_containing_component(make, xis):
    sys = make()
    for xi in xis:
        hits = [k for k in range(1, 11) if zero_set_component(sys, k).contains(xi)]
        member = zero_set_member(sys, xi)
        if member is None:
            assert hits == []
        else:
            assert hits and min(hits) == member


def test_membership_forces_transform_zero():
    ex1n = example_1(normalized=True)
    for xi in (18, 81, 162, -18):
        k0 = zero_set_member(ex1n, xi)
        for k in (k0, k0 + 1, k0 + 3):
            assert abs(mu_hat_k(ex1n, k, xi)) < 1e-12
    # and a certified non-member keeps every finite product away from zero
    assert zero_set_member(ex1n, 36) is None
    for k in range(1, 9):
        assert abs(mu_hat_k(ex1n, k, 36)) > 1e-10


# -- integer-shift grid ----------------------------------------------------


def test_shifted_grid_matches_plain_grid_for_small_shifts():
    ex1n = example_1(normalized=True)
    xs = [0.0, 0.125, 0.7, 0.99]
    for shift in (0, 3, -7, 243):
        got = mu_hat_shifted_grid(ex1n, 3, xs, shift)
        want = [mu_hat_k(ex1n, 3, x + shift) for x in xs]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_shifted_grid_keeps_precision_at_huge_shifts():
    # the exact rational path is the referee: with a shift near 10^12 the
    # plain float sum x + shift cannot even represent x anymore, while
    # the modular path must stay at full precision
    ex1n = example_1(normalized=True)
    x = 0.3
    shift = 2_398_775_486_881
    exact = mu_hat_k(ex1n, 10, Fraction(x) + shift)
    got = mu_hat_shifted_grid(ex1n, 10, [x], shift)[0]
    assert abs(got - exact) < 1e-11
