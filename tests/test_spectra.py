"""Tests for spectrum blocks, offset search, and the level drivers.

Block contents are checked against positional reference builds computed
with plain loops, and the worked systems' golden values were derived by
hand from the level exponents and carried indices.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from moran import spectra

from moran.errors import (
    DomainError,
    MoranError,
    PreconditionError,
    ResourceError,
    UnsupportedCaseError,
)
from moran.fourier import TailKernel, m_factor, mu_hat_k, mu_hat_shifted_grid, nu_hat_tail
from moran.spectra import (
    QGridReport,
    SpectrumBlock,
    SpectrumBuildParams,
    SpectrumLevel,
    _next_breakpoint,
    _qualifying_offset,
    build_block,
    build_level,
    build_spectrum,
    extension_factor_floor,
    omega_split,
    q_grid_check,
    q_sum,
    trivial_level,
    verify_orthogonal,
    verify_spectrum_finite,
    verify_tail_lower_bound,
)
from moran.system import (
    CaseI,
    MoranSystem,
    SequenceSpec,
    alpha_true,
    breakpoint_predicate,
    case_classify,
    frak_n,
    normalize,
)
from zero_set_oracle import zero_set_member

# -- reference implementations (oracles) -----------------------------------


def ref_tau(n, N):
    e = 0
    n = abs(n)
    while n % N == 0:
        n //= N
        e += 1
    return e


def ref_free(n, N):
    return n // N ** ref_tau(n, N)


def ref_s(sys, k):
    bs = [sys.b.entry(j) for j in range(1, k + 1)]
    return ref_tau(prod(bs), sys.N) - ref_tau(sys.t.entry(k), sys.N) - 1


def ref_bold(sys, k):
    return ref_free(prod(sys.b.entry(j) for j in range(1, k + 1)), sys.N)


def ref_frak(sys, k, scan=120):
    return max(j for j in range(k, scan) if ref_s(sys, j) <= ref_s(sys, k))


def ref_block_elements(sys, k1, k2):
    # all-ones coefficients, generators straight from the definitions
    N = sys.N
    gens = [
        N ** ref_s(sys, j) * ref_bold(sys, ref_frak(sys, j))
        for j in range(k1 + 1, k2 + 1)
    ]
    return sorted(
        sum(d * g for d, g in zip(digits, gens))
        for digits in product(range(N), repeat=len(gens))
    )


def ref_verify_orthogonal(sys, lam, k):
    # every pair, in sorted order, through the component scan
    elems = sorted(lam)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            diff = elems[j] - elems[i]
            member = zero_set_member(sys, diff)
            if member is None or member > k:
                return (False, diff)
    return (True, None)


# -- fixtures --------------------------------------------------------------


def example_1(normalized=False):
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1, 4]))
    return normalize(sys)[0] if normalized else sys


def example_2(normalized=False):
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1, 16]))
    return normalize(sys)[0] if normalized else sys


def example_tile_only():
    return MoranSystem(
        3, SequenceSpec.periodic([3]), SequenceSpec.periodic([4], preperiod=[1])
    )


def quarter_system():
    return MoranSystem(2, SequenceSpec.periodic([4]), SequenceSpec.periodic([1]))


def unit_digit_system():
    # N=2, constant scale 18, digit 1: one nontrivial level exponent step
    return MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1]))


# -- parameter and type validation -----------------------------------------


def test_params_validation():
    SpectrumBuildParams()
    with pytest.raises(DomainError):
        SpectrumBuildParams(C=0)
    with pytest.raises(DomainError):
        SpectrumBuildParams(sigma0=0)
    with pytest.raises(DomainError):
        SpectrumBuildParams(K=0)
    with pytest.raises(DomainError):
        SpectrumBuildParams(depth=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"C": math.nan, "epsilon0": math.nan},
        {"C": math.nan},
        {"C": math.inf},
        {"epsilon0": math.nan},
        {"epsilon0": math.inf},
        {"sigma0": math.nan},
        {"sigma0": math.inf},
    ],
    ids=["both-nan", "C-nan", "C-inf", "epsilon0-nan", "epsilon0-inf", "sigma0-nan", "sigma0-inf"],
)
def test_params_refuse_non_finite_thresholds(kwargs):
    with pytest.raises(DomainError, match="finite"):
        SpectrumBuildParams(**kwargs)


def test_block_dataclass_invariants():
    SpectrumBlock(0, 1, (1,), (0, 2), 1, offsets=(0, 3))
    with pytest.raises(DomainError):
        SpectrumBlock(2, 1, (), (0,), 2)
    with pytest.raises(DomainError):
        SpectrumBlock(0, 1, (1,), (1, 2), 1)
    with pytest.raises(DomainError):
        SpectrumBlock(0, 1, (1,), (0, 0), 1)
    with pytest.raises(DomainError):
        SpectrumBlock(0, 1, (1,), (0, 2), 0)
    with pytest.raises(DomainError):
        SpectrumBlock(0, 1, (1,), (0, 2), 1, offsets=(1, 0))


def test_level_dataclass_invariants():
    assert trivial_level().elements == (0,)
    with pytest.raises(DomainError):
        SpectrumLevel(0, (1,), (0,))
    with pytest.raises(DomainError):
        SpectrumLevel(1, (0,), (0,))
    with pytest.raises(DomainError):
        SpectrumLevel(0, (0,), (1,))
    with pytest.raises(DomainError):
        SpectrumLevel(0, (0,), (2, 0))


# -- omega_split -----------------------------------------------------------


def test_omega_split_worked_partition():
    ex2n = example_2(normalized=True)
    assert omega_split(ex2n, 0, 2, 3) == ((2,), (1,))
    assert omega_split(ex2n, 0, 0, 3) == ((), ())


def test_omega_split_monotone_free_products():
    # strictly increasing level exponents with carried index equal to the
    # index itself: every free product sits below the next one
    sys = unit_digit_system()
    first, second = omega_split(sys, 0, 3, 1)
    assert first == (1, 2, 3)
    assert second == ()


def test_omega_split_validates():
    with pytest.raises(DomainError):
        omega_split(example_1(), 2, 1, 1)
    with pytest.raises(DomainError):
        omega_split(example_1(), 0, 1, -1)


# -- build_block -----------------------------------------------------------


def test_build_block_worked_examples():
    ex1n = example_1(normalized=True)
    case = case_classify(ex1n)
    blk = build_block(ex1n, 0, 2, case, 0)
    assert blk.elements == (0, 81, 162, 243)
    assert blk.coefficients == (1, 1)
    assert blk.anchor == 2
    q = quarter_system()
    qblk = build_block(q, 0, 2, case_classify(q), 0)
    assert qblk.elements == (0, 2, 8, 10)
    empty = build_block(ex1n, 2, 2, case, 0)
    assert empty.elements == (0,)
    assert empty.coefficients == ()


def test_build_block_matches_positional_reference():
    rng = random.Random(5)
    pools = {2: [2, 4, 6, 8], 3: [3, 6, 9, 12]}
    built = 0
    while built < 10:
        N = rng.choice([2, 3])
        b = [rng.choice(pools[N]) for _ in range(rng.randint(1, 2))]
        t = [rng.choice([1, 2, 3]) for _ in b]
        sys = normalize(
            MoranSystem(2 if N == 2 else 3, SequenceSpec.periodic(b), SequenceSpec.periodic(t))
        )[0]
        svals = [ref_s(sys, k) for k in range(1, 7)]
        if len(set(svals)) != len(svals):
            continue
        k2 = next(
            (k for k in range(2, 5) if max(ref_frak(sys, j) for j in range(1, k + 1)) == k),
            None,
        )
        if k2 is None:
            continue
        blk = build_block(sys, 0, k2, CaseI((), 0, 0), 0)
        assert list(blk.elements) == ref_block_elements(sys, 0, k2)
        built += 1


def test_build_block_case2_coefficients():
    ex2n = example_2(normalized=True)
    case = case_classify(ex2n)
    alpha = alpha_true(ex2n)
    assert alpha == 3
    base = build_block(ex2n, 0, 1, case, alpha)
    assert base.coefficients == (1,)
    assert base.anchor == 4
    assert base.elements == (0, 52488)
    blk = build_block(ex2n, 1, 4, case, alpha)
    assert blk.coefficients == (1, 9, 1)
    assert blk.anchor == 7
    assert len(blk.elements) == 8


def test_build_block_rejects_negative_levels():
    ex1 = example_1()
    with pytest.raises(PreconditionError, match="normalize"):
        build_block(ex1, 0, 2, case_classify(ex1), 0)


def test_build_block_rejects_inadmissible_end():
    ex1n = example_1(normalized=True)
    with pytest.raises(PreconditionError, match="admissible"):
        build_block(ex1n, 0, 1, case_classify(ex1n), 0)


# -- offset search ---------------------------------------------------------

def offset_search(sys, k, x, params=None):
    # the search build_level runs for one element, at the single frequency x
    params = params or SpectrumBuildParams()
    tail = TailKernel(sys, k, params.depth)
    return _qualifying_offset(lambda z: (tail(x + z),), params)


def test_offset_search_accepts_immediate_qualifier():
    q = quarter_system()
    z = offset_search(q, 0, Fraction(1, 2))
    assert z == 0
    value, err = nu_hat_tail(q, 0, Fraction(1, 2), 16)
    assert abs(value) - err > 1e-3


def test_offset_search_walks_the_window():
    # at x = 1 the first factor vanishes; so does x + 1 one level deeper;
    # x - 1 lands on the exact tail value one
    sys = MoranSystem(2, SequenceSpec.periodic([2]), SequenceSpec.periodic([1]))
    assert offset_search(sys, 0, 1.0) == -1


def test_offset_search_failure_reports_context():
    params = SpectrumBuildParams(C=0.999, K=1)
    with pytest.raises(ResourceError, match="equi-positivity"):
        offset_search(quarter_system(), 0, 0.25, params)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=1, allow_nan=False))
def test_offset_search_certifies_its_result(x):
    q = quarter_system()
    params = SpectrumBuildParams()
    z = offset_search(q, 0, x, params)
    assert -params.K <= z <= params.K
    value, err = nu_hat_tail(q, 0, x + z, params.depth)
    assert abs(value) - err > params.C


# -- build_level -----------------------------------------------------------


def test_build_level_single_step():
    q = quarter_system()
    level = build_level(q, trivial_level(), 0, 1, case_classify(q))
    assert level.elements == (0, 2)
    assert level.breakpoints == (0, 1)
    assert level.blocks[-1].offsets == (0, 0)


def test_build_level_worked_first_level():
    ex1n = example_1(normalized=True)
    level = build_level(ex1n, trivial_level(), 0, 2, case_classify(ex1n))
    assert level.elements == (0, 81, 162, 243)
    assert level.blocks[-1].offsets == (0, 0, 0, 0)


def test_build_level_trivial_and_mismatch():
    ex1n = example_1(normalized=True)
    base = trivial_level()
    assert build_level(ex1n, base, 0, 0, case_classify(ex1n)) is base
    with pytest.raises(PreconditionError):
        build_level(ex1n, base, 1, 2, case_classify(ex1n))


def test_build_level_nests_previous_level():
    ex1n = example_1(normalized=True)
    case = case_classify(ex1n)
    one = build_level(ex1n, trivial_level(), 0, 2, case)
    two = build_level(ex1n, one, 2, 4, case)
    assert set(one.elements) < set(two.elements)
    assert len(two.elements) == 16
    assert 0 in two.elements


# -- verification ----------------------------------------------------------


def test_verify_orthogonal_worked_cases():
    ex1n = example_1(normalized=True)
    assert verify_orthogonal(ex1n, [0, 81, 162, 243], 2) == (True, None)
    assert verify_orthogonal(ex1n, [0, 36], 2) == (False, 36)
    assert verify_orthogonal(ex1n, [0], 5) == (True, None)
    with pytest.raises(DomainError):
        verify_orthogonal(ex1n, [0, 0, 81], 2)


def test_verify_orthogonal_refuses_non_integers():
    with pytest.raises(DomainError, match="integer"):
        verify_orthogonal(example_1(normalized=True), [0, Fraction(81, 2)], 2)


@st.composite
def built_levels(draw):
    """Levels of a random system that admits a spectrum, or None."""
    N = draw(st.sampled_from([2, 3]))
    pool = st.sampled_from([N * N * 2, N * 4 + 1, N**3, 2 * N * N + N, 12, 18, 27, 9, 10, 20])
    bs = draw(st.lists(pool, min_size=1, max_size=2))
    ts = draw(st.lists(st.sampled_from([1, 1, 2, 4, N, 5]), min_size=1, max_size=2))
    try:
        sys = MoranSystem(N, SequenceSpec.periodic(bs), SequenceSpec.periodic(ts))
        levels = build_spectrum(sys, draw(st.integers(1, 3)))
    except MoranError:
        return None
    return normalize(sys)[0], levels


@settings(max_examples=60, deadline=None)
@given(built_levels(), st.data())
def test_verify_orthogonal_matches_pairwise_oracle(built, data):
    assume(built is not None)
    work, levels = built
    for lv in levels:
        k = lv.breakpoints[-1]
        assert verify_orthogonal(work, lv.elements, k) == ref_verify_orthogonal(
            work, lv.elements, k
        ) == (True, None)
    # a subset of a spectrum, translated, keeps every difference it has
    sub = data.draw(st.lists(st.sampled_from(levels[-1].elements), unique=True))
    shift = data.draw(st.integers(-(10**30), 10**30))
    sub = [e + shift for e in sub]
    k = levels[-1].breakpoints[-1]
    assert verify_orthogonal(work, sub, k) == ref_verify_orthogonal(work, sub, k) == (True, None)
    # one element moved, so some difference usually leaves the zero set
    lam = list(levels[-1].elements)
    k = levels[-1].breakpoints[-1]
    i = data.draw(st.integers(0, len(lam) - 1))
    span = 3 * max(abs(e) for e in lam)
    lam[i] += data.draw(st.integers(-span, span).filter(bool))
    assume(len(set(lam)) == len(lam))
    for level in (k, k - 1):
        assert verify_orthogonal(work, lam, level) == ref_verify_orthogonal(work, lam, level)


SMALL_SYSTEMS = [
    example_1(normalized=True),
    example_2(normalized=True),
    MoranSystem(3, SequenceSpec.periodic([9]), SequenceSpec.periodic([1, 4])),
    # s_1 = s_2 = 0: two components share an exponent, so the pair walk decides
    MoranSystem(2, SequenceSpec.periodic([2, 6]), SequenceSpec.periodic([1, 2])),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.integers(1, 4), st.data())
def test_verify_orthogonal_matches_pairwise_oracle_on_small_sets(sys, k, data):
    sk = sys.skeleton
    # multiples of a generator N^(s_j) * bold_b(j) often pass; other steps
    # mostly fail
    gens = [sys.N ** sk.s(j) * sk.bold_b(j) for j in range(1, k + 1)]
    step = data.draw(st.one_of(st.sampled_from(gens), st.integers(1, 500)))
    coeffs = data.draw(st.lists(st.integers(-40, 40), min_size=2, max_size=8, unique=True))
    lam = [c * step for c in coeffs]
    got = verify_orthogonal(sys, lam, k)
    event(f"passes: {got[0]}")
    assert got == ref_verify_orthogonal(sys, lam, k)


def test_orthogonality_agrees_with_numeric_transform():
    ex1n = example_1(normalized=True)
    lam = [0, 81, 162, 243]
    for i, a in enumerate(lam):
        for b in lam[i + 1 :]:
            assert abs(mu_hat_k(ex1n, 2, b - a)) < 1e-12
    assert abs(mu_hat_k(ex1n, 2, 36)) > 1e-10


def test_verify_spectrum_finite_cases():
    ex1n = example_1(normalized=True)
    assert verify_spectrum_finite(ex1n, [0, 81, 162, 243], 2)
    assert not verify_spectrum_finite(ex1n, [0, 81], 2)
    unit = unit_digit_system()
    assert verify_spectrum_finite(unit, [0, 9], 1)
    assert not verify_spectrum_finite(unit, [0, 7], 1)
    folded = MoranSystem(2, SequenceSpec.periodic([2, 2]), SequenceSpec.periodic([1, 2]))
    with pytest.raises(PreconditionError):
        verify_spectrum_finite(folded, [0, 1, 2, 3], 2)


def test_tail_lower_bound_reports():
    q = quarter_system()
    ok, bound, witness = verify_tail_lower_bound(q, [0], 3)
    assert (ok, bound, witness) == (True, 1.0, None)
    ex1n = example_1(normalized=True)
    ok, bound, _ = verify_tail_lower_bound(ex1n, [0, 81, 162, 243], 2)
    assert ok and bound > 0.9
    # 2 scaled by the full product at level 0 hits the first tail zero
    ok, bound, witness = verify_tail_lower_bound(q, [0, 2], 0)
    assert not ok
    assert witness == 2
    assert bound < 1e-4


def test_extension_factor_floor_values():
    ex2n = example_2(normalized=True)
    case = case_classify(ex2n)
    blk = build_block(ex2n, 1, 4, case, alpha_true(ex2n))
    floor = extension_factor_floor(ex2n, blk)
    ref = min(
        abs(m_factor(2, ex2n.t_entry(blk.k2 + i), Fraction(lam, ex2n.b_product(blk.k2 + i))))
        for i in range(1, blk.anchor - blk.k2 + 1)
        for lam in blk.elements
    )
    assert floor == ref
    assert floor > 1e-6
    case1_blk = build_block(example_1(normalized=True), 0, 2, CaseI((), 0, 0), 0)
    assert extension_factor_floor(example_1(normalized=True), case1_blk) == math.inf


def test_q_grid_exact_identity_pair():
    unit = unit_digit_system()
    grid = [i / 1000 for i in range(1000)]
    report = q_grid_check(unit, [0, 9], 1, grid, 1e-9)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_q_grid_passes_built_level_and_fails_broken_set():
    ex1n = example_1(normalized=True)
    grid = [i / 400 for i in range(400)]
    good = q_grid_check(ex1n, [0, 81, 162, 243], 2, grid, 1e-9)
    assert good.passed
    bad = q_grid_check(ex1n, [0, 1], 1, grid, 1e-9)
    assert not bad.passed
    assert bad.max_deviation > 0.1
    assert verify_orthogonal(ex1n, [0, 1], 1) == (False, 1)


def ref_q_sum(sys, lam, k, xs):
    """The completeness functional as the per-element loop: one
    mu_hat_shifted_grid call per element, summed in the order of lam."""
    total = np.zeros(xs.shape)
    for v in lam:
        total += np.abs(mu_hat_shifted_grid(sys, k, xs, v)) ** 2
    return total


@lru_cache(maxsize=None)
def q_levels():
    """(normalized system, top level elements, its k) for built spectra of
    N = 2, 3 and 5."""
    out = []
    for N, bs, ts, n in ((2, [18], [1, 4], 3), (2, [18], [1, 16], 2), (3, [9], [1, 4], 2), (5, [50], [1, 2], 1)):
        sys = MoranSystem(N, SequenceSpec.periodic(bs), SequenceSpec.periodic(ts))
        final = build_spectrum(sys, n)[-1]
        out.append((normalize(sys)[0], final.elements, final.breakpoints[-1]))
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_q_sum_has_the_bits_of_the_per_element_sum(data):
    work, elements, top_k = data.draw(st.sampled_from(q_levels()))
    # the whole level, or a sample with repeats, negated or translated
    lam = data.draw(st.one_of(st.just(list(elements)), st.lists(st.sampled_from(elements), max_size=40)))
    sign = data.draw(st.sampled_from([1, -1]))
    shift = data.draw(st.one_of(st.just(0), st.integers(-(10**30), 10**30)))
    lam = [sign * e + shift for e in lam]
    k = data.draw(st.integers(0, top_k))
    start = data.draw(st.sampled_from([0.0, -0.5, 0.37, 1e4, -1e4, 1e6]))
    width = data.draw(st.sampled_from([1.0, 50.0, 2e4]))
    xs = np.linspace(start, start + width, data.draw(st.integers(1, 64)))
    assert q_sum(work, lam, k, xs).tobytes() == ref_q_sum(work, lam, k, xs).tobytes()


def test_q_sum_evaluates_each_residue_prefix_once(monkeypatch):
    # level 3 of N=2, b=[18], t=[1,4] (k = 6, 64 elements) has 4, 8, 16,
    # 32, 64 and 64 residues mod B_1..B_6: 188 factor rows, where one row
    # per element and factor would be 384
    work, elements, k = q_levels()[0]
    assert (len(elements), k) == (64, 6)
    factors = []
    real = spectra._shifted_factor
    monkeypatch.setattr(spectra, "_shifted_factor", lambda *a: factors.append(a[1]) or real(*a))
    q_sum(work, elements, k, np.linspace(0.37, 1.37, 16))
    assert Counter(factors) == {1: 4, 2: 8, 3: 16, 4: 32, 5: 64, 6: 64}
    assert len(factors) == 188


# -- drivers ---------------------------------------------------------------


def test_build_spectrum_level_progression():
    levels = build_spectrum(example_1(), 3)
    assert [lv.breakpoints for lv in levels] == [(0, 2), (0, 2, 4), (0, 2, 4, 6)]
    assert levels[0].elements == (0, 81, 162, 243)
    for lv in levels:
        assert lv.scale_exponent == 1
        assert lv.orthogonal and lv.complete
        assert lv.tail_bound > 0.9
        assert len(lv.elements) == 2 ** lv.breakpoints[-1]
    assert set(levels[0].elements) < set(levels[1].elements) < set(levels[2].elements)


def test_build_spectrum_extended_case_chain():
    levels = build_spectrum(example_2(), 2)
    assert [lv.breakpoints for lv in levels] == [(0, 1), (0, 1, 4), (0, 1, 4, 7)]
    assert levels[0].elements == (0, 52488)
    assert levels[1].blocks[-1].coefficients == (1, 9, 1)
    for lv in levels:
        assert lv.orthogonal and lv.complete
        assert lv.tail_bound > 1e-4
    for blk in levels[-1].blocks:
        assert blk.factor_floor is None or blk.factor_floor > 1e-6


def test_every_built_level_verifies_exactly():
    ex1n = example_1(normalized=True)
    for lv in build_spectrum(ex1n, 2):
        assert verify_spectrum_finite(ex1n, lv.elements, lv.breakpoints[-1])
    ex2n = example_2(normalized=True)
    for lv in build_spectrum(ex2n, 1):
        assert verify_spectrum_finite(ex2n, lv.elements, lv.breakpoints[-1])


def test_tight_radius_defers_breakpoints():
    params = SpectrumBuildParams(sigma0=Fraction(1, 10**6))
    levels = build_spectrum(example_1(), 2, params)
    assert levels[-1].breakpoints == (0, 2, 8)


def test_wide_radius_still_certifies():
    # sigma0 has no upper limit: a radius of 100 admits every block end
    ex2n = example_2(normalized=True)
    levels = build_spectrum(example_2(), 2, SpectrumBuildParams(sigma0=100))
    assert levels[-1].breakpoints == (0, 1, 2, 3)
    for lv in levels:
        assert lv.orthogonal and lv.complete
        assert verify_spectrum_finite(ex2n, lv.elements, lv.breakpoints[-1])


def ref_pool_breakpoint(sys, case, last, m0, peak, sigma0):
    """The first classified breakpoint past last and not below m0 whose
    scale admits peak, or None once the classification window runs out."""
    for k in case.breakpoints:
        if k > last and k >= m0 and Fraction(peak, abs(sys.b_product(k))) <= sigma0:
            return k
    return None


def test_block_end_is_found_past_the_classification_window():
    # classified over a window of 4, this level's peak needs |B_k| >= 4 * 10^30
    ex1n = example_1(normalized=True)
    case = CaseI((2, 4), 4, 2)
    blk = build_block(ex1n, 0, 2, case, 0)
    prev = SpectrumLevel(1, (0, 2), (0, 10**30), blocks=(blk,))
    k = _next_breakpoint(ex1n, case, prev, 1, SpectrumBuildParams())
    assert k > 4
    fits = [j for j in range(3, k + 1) if 4 * 10**30 <= ex1n.b_product(j) and breakpoint_predicate(ex1n, j)]
    assert fits[0] == k


@st.composite
def case_one_systems(draw):
    """A random normalized system whose later exponents dominate infinitely
    often, and a classification window."""
    N = draw(st.sampled_from([2, 3]))

    def spec(entries):
        return SequenceSpec.periodic(
            draw(st.lists(entries, min_size=1, max_size=3)), preperiod=draw(st.lists(entries, max_size=2))
        )

    # a scale divisible by N in the period makes the exponents drift upward
    scales = st.integers(2, 60) | st.integers(1, 20).map(lambda u: N * u)
    work = normalize(MoranSystem(N, spec(scales), spec(st.integers(1, 30))))[0]
    try:
        case = case_classify(work, draw(st.integers(1, 30)))
    except PreconditionError:  # colliding exponents
        case = None
    assume(isinstance(case, CaseI))
    return work, case


@settings(max_examples=150, deadline=None)
@given(case_one_systems(), st.data())
def test_block_end_rule_matches_the_classified_pool(system, data):
    work, case = system
    last = data.draw(st.integers(0, case.window))
    m0 = data.draw(st.integers(1, case.window))
    peak = data.draw(st.integers(0, 12).flatmap(lambda e: st.integers(1, 10**e)))
    sigma0 = data.draw(st.fractions(Fraction(1, 10**6), 4))
    prev = SimpleNamespace(breakpoints=(0, last) if last else (0,), elements=(0, peak))
    k = _next_breakpoint(work, case, prev, m0, SpectrumBuildParams(sigma0=sigma0))
    want = ref_pool_breakpoint(work, case, last, m0, peak, sigma0)
    event("pool answered" if want is not None else "pool ran out")
    if want is not None:
        assert k == want
    else:
        # the pool ran out: the end lies past the window and is admissible
        assert k > case.window
        assert breakpoint_predicate(work, k)
        assert Fraction(peak, work.b_product(k)) <= sigma0


def test_build_spectrum_refuses_dominant_digits():
    with pytest.raises(UnsupportedCaseError, match="violates"):
        build_spectrum(example_tile_only(), 1)


def test_build_spectrum_rejects_exponent_collision():
    collider = MoranSystem(2, SequenceSpec.periodic([2, 6]), SequenceSpec.periodic([1, 2]))
    with pytest.raises(PreconditionError, match="collide"):
        build_spectrum(collider, 1)


def test_block_sums_keep_minimal_level_structure():
    """Nonzero digit sums divide by exactly the smallest active level scale."""
    ex2n = example_2(normalized=True)
    case = case_classify(ex2n)
    for k1, k2 in ((0, 1), (1, 4)):
        blk = build_block(ex2n, k1, k2, case, alpha_true(ex2n))
        sk = ex2n.skeleton
        indices = list(range(k1 + 1, k2 + 1))
        gens = [
            2 ** sk.s(j) * sk.bold_b(frak_n(ex2n, j)) * c
            for j, c in zip(indices, blk.coefficients)
        ]
        for digits in product(range(2), repeat=len(indices)):
            active = [j for j, d in zip(indices, digits) if d]
            if not active:
                continue
            lam = sum(d * g for d, g in zip(digits, gens))
            i = min(active, key=sk.s)
            base = 2 ** sk.s(i) * sk.bold_b(frak_n(ex2n, i))
            q, r = divmod(lam, base)
            assert r == 0
            assert q % 2 != 0

