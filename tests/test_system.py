"""Tests for the system model and its skeleton diagnostics.

Derived expectations are checked against the reference implementations at
the top of this file, which recompute everything from the definitions with
no shared code beyond the integer type.
"""

import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moran.errors import (
    DomainError,
    HorizonError,
    PreconditionError,
    UnsupportedCaseError,
)
from moran.system import (
    CaseI,
    CaseII,
    Collision,
    Converges,
    Distinct,
    MoranSystem,
    Satisfied,
    SequenceSpec,
    Undetermined,
    Unknown,
    Violated,
    alpha_true,
    case_classify,
    default_window,
    distinctness_check,
    existence_check,
    frak_n,
    hypothesis_holds_from,
    normalize,
    s_value,
    spectral_hypothesis_check,
)

# -- reference implementations (oracles) -----------------------------------


def ref_tau(n, N):
    assert n != 0
    e = 0
    n = abs(n)
    while n % N == 0:
        n //= N
        e += 1
    return e


def ref_s(sys, k):
    bs = [sys.b.entry(j) for j in range(1, k + 1)]
    return ref_tau(prod(bs), sys.N) - ref_tau(sys.t.entry(k), sys.N) - 1


def ref_frak_n(sys, k, scan=400):
    js = [j for j in range(k, scan) if ref_s(sys, j) <= ref_s(sys, k)]
    return max(js)


def ref_first_repeat(sys, k):
    # plain scan of s_1..s_k, with s built from running valuations
    tau_b = 0
    first_seen = {}
    for j in range(1, k + 1):
        tau_b += ref_tau(sys.b.entry(j), sys.N)
        v = tau_b - ref_tau(sys.t.entry(j), sys.N) - 1
        if v in first_seen:
            return first_seen[v], j
        first_seen[v] = j
    return None


def ref_existence_check(N_spec, t_spec, b_spec, depth):
    # the series sum |N_k t_k / (b_1...b_k)| for three general sequences:
    # the partial sum term by term, then for periodic specs one period
    # block past the preperiod and a geometric closed form for the rest
    partial = Fraction(0)
    prods = [1]

    def term(k):
        while len(prods) <= k:
            prods.append(prods[-1] * b_spec.entry(len(prods)))
        return Fraction(abs(N_spec.entry(k) * t_spec.entry(k)), abs(prods[k]))

    for k in range(1, depth + 1):
        partial += term(k)
    if not (N_spec.is_periodic and t_spec.is_periodic and b_spec.is_periodic):
        return Unknown(partial, depth)
    P = max(len(N_spec.preperiod), len(t_spec.preperiod), len(b_spec.preperiod))
    p = lcm(len(N_spec.period), len(t_spec.period), len(b_spec.period))
    Bp = prod(b_spec.entry(P + 1 + i) for i in range(p))
    if abs(Bp) == 1:
        return None  # the terms recur forever without decay
    J = max(depth + 1, P + 1)
    head = sum((term(k) for k in range(depth + 1, J)), Fraction(0))
    G = sum((term(k) for k in range(J, J + p)), Fraction(0))
    return Converges(partial, head + G * Fraction(abs(Bp), abs(Bp) - 1), depth)


# -- fixtures --------------------------------------------------------------


def example_1(normalized=False):
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1, 4]))
    return normalize(sys)[0] if normalized else sys


def example_2(normalized=False):
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.periodic([1, 16]))
    return normalize(sys)[0] if normalized else sys


def example_tile_only():
    # N=3, b constant 3, t = 1 then constant 4
    return MoranSystem(
        3, SequenceSpec.periodic([3]), SequenceSpec.periodic([4], preperiod=[1])
    )


# -- SequenceSpec ----------------------------------------------------------


def test_sequence_spec_entry_and_horizon():
    s = SequenceSpec.periodic([7, 8], preperiod=[5])
    assert [s.entry(k) for k in range(1, 6)] == [5, 7, 8, 7, 8]
    assert s.horizon is None
    f = SequenceSpec.prefix([2, 3, 4])
    assert f.horizon == 3
    assert f.entry(3) == 4
    with pytest.raises(HorizonError):
        f.entry(4)


def test_sequence_spec_rejects_zero_entries():
    with pytest.raises(DomainError):
        SequenceSpec.periodic([1, 0])
    with pytest.raises(DomainError):
        SequenceSpec.prefix([0])


def test_moran_system_validates_entries():
    with pytest.raises(DomainError):
        MoranSystem(2, SequenceSpec.periodic([1]), SequenceSpec.periodic([1]))
    with pytest.raises(DomainError):
        MoranSystem(4, SequenceSpec.periodic([8]), SequenceSpec.periodic([1]))


# -- s_value ---------------------------------------------------------------


def test_s_value_golden_closing_examples():
    ex1, ex2 = example_1(), example_2()
    # even/odd closed forms, raw systems
    for k in range(1, 51):
        assert s_value(ex1, 2 * k - 1) == 2 * (k - 1)
        assert s_value(ex1, 2 * k) == 2 * (k - 1) - 1
        assert s_value(ex2, 2 * k) == 2 * (k - 1) - 3
    assert s_value(ex2, 4) == -1
    assert s_value(ex1, 3) == 2


def test_s_value_tile_only_example():
    sys = example_tile_only()
    assert [s_value(sys, k) for k in range(1, 8)] == list(range(7))
    assert s_value(sys, 5) == 4


def test_s_value_matches_reference_on_random_systems():
    rng = random.Random(7)
    for _ in range(25):
        N = rng.choice([2, 3, 5])
        b = SequenceSpec.periodic(
            [rng.choice([2, 3, 4, 6, 9, 12, 18, 20]) for _ in range(rng.randint(1, 3))],
            preperiod=[rng.choice([2, 5, 8]) for _ in range(rng.randint(0, 2))],
        )
        t = SequenceSpec.periodic(
            [rng.randint(1, 20) for _ in range(rng.randint(1, 3))]
        )
        sys = MoranSystem(N, b, t)
        for k in range(1, 40):
            assert s_value(sys, k) == ref_s(sys, k)


def test_bold_b_examples():
    assert example_1().skeleton.bold_b(3) == 729
    assert example_1(normalized=True).skeleton.bold_b(2) == 81
    assert example_tile_only().skeleton.bold_b(4) == 1
    assert example_2(normalized=True).skeleton.bold_b(1) == 9


# -- frak_n / alpha --------------------------------------------------------


def test_frak_n_golden():
    ex1n = example_1(normalized=True)
    ex2n = example_2(normalized=True)
    assert frak_n(ex1n, 1) == 2
    assert frak_n(ex2n, 3) == 6
    # strictly increasing s: the max is attained at j = k
    sys = example_tile_only()
    for k in range(1, 10):
        assert frak_n(sys, k) == k


def test_frak_n_matches_reference():
    for sys in (example_1(normalized=True), example_2(normalized=True)):
        for k in range(1, 30):
            assert frak_n(sys, k) == ref_frak_n(sys, k)


def test_frak_n_prefix_insufficient_horizon():
    sys = MoranSystem(2, SequenceSpec.prefix([4, 4, 4]), SequenceSpec.prefix([1, 1, 1]))
    with pytest.raises(HorizonError):
        frak_n(sys, 1)


def test_alpha_bound_golden():
    assert alpha_true(example_1(normalized=True)) == 1
    assert alpha_true(example_2(normalized=True)) == 3
    assert alpha_true(example_tile_only()) == 0


# -- distinctness ----------------------------------------------------------


def test_distinctness_golden():
    assert isinstance(distinctness_check(example_1(normalized=True)), Distinct)
    assert isinstance(distinctness_check(example_tile_only()), Distinct)
    res = distinctness_check(
        MoranSystem(2, SequenceSpec.periodic([2]), SequenceSpec.periodic([1, 2]))
    )
    assert res == Collision(1, 2)


def test_distinctness_zero_drift_always_collides():
    # b has no factor of N at all, so s is eventually periodic
    sys = MoranSystem(2, SequenceSpec.periodic([3]), SequenceSpec.periodic([1]))
    assert isinstance(distinctness_check(sys), Collision)


def test_distinctness_agrees_with_pairwise_scan():
    rng = random.Random(2024)
    for _ in range(40):
        N = rng.choice([2, 3])
        b = SequenceSpec.periodic(
            [rng.choice([2, 3, 4, 6, 9, 12, 18]) for _ in range(rng.randint(1, 3))],
            preperiod=[rng.choice([2, 4, 6])] * rng.randint(0, 1),
        )
        t = SequenceSpec.periodic([rng.randint(1, 18) for _ in range(rng.randint(1, 2))])
        sys = MoranSystem(N, b, t)
        res = distinctness_check(sys)
        vals = {}
        brute = None
        for k in range(1, 501):
            v = ref_s(sys, k)
            if v in vals:
                brute = (vals[v], k)
                break
            vals[v] = k
        if isinstance(res, Collision):
            assert brute == (res.i, res.j)
        else:
            assert brute is None


@given(data=st.data())
def test_first_repeat_past_the_window_matches_the_full_scan(data):
    # a periodic system the normal form clears is never scanned, and any
    # other is scanned with no window; up to three report windows out
    # (three times preperiod plus two periods at zero drift) it must give
    # the full scan's verdict and pair
    N = data.draw(st.sampled_from([2, 3]))
    b = SequenceSpec.periodic(
        data.draw(st.lists(st.sampled_from([2, 3, 4, 6, 9, 12, 18, 27]), min_size=1, max_size=3)),
        preperiod=data.draw(st.lists(st.sampled_from([2, 4, 6, 9]), max_size=2)),
    )
    t = SequenceSpec.periodic(
        data.draw(st.lists(st.integers(1, 18), min_size=1, max_size=3)),
        preperiod=data.draw(st.lists(st.integers(1, 18), max_size=2)),
    )
    sys = MoranSystem(N, b, t)
    sk = sys.skeleton
    k = data.draw(st.integers(1, 3 * (sk.report_window() if sk.drift else sk.P + 2 * sk.p)))
    assert sys.skeleton.first_repeat(k) == ref_first_repeat(sys, k)


# -- case classification ---------------------------------------------------


def test_case_classify_golden():
    res1 = case_classify(example_1(normalized=True), window=20)
    assert isinstance(res1, CaseI)
    assert res1.breakpoints[:6] == (2, 4, 6, 8, 10, 12)
    res2 = case_classify(example_2(normalized=True))
    assert res2 == CaseII(k0=1, window=res2.window)
    res3 = case_classify(
        MoranSystem(2, SequenceSpec.periodic([4]), SequenceSpec.periodic([1])), window=10
    )
    assert isinstance(res3, CaseI)
    assert res3.breakpoints == tuple(range(1, res3.window + 1))


def test_case_classify_requires_distinctness():
    sys = MoranSystem(2, SequenceSpec.periodic([2]), SequenceSpec.periodic([1, 2]))
    with pytest.raises(PreconditionError):
        case_classify(sys)


def test_case_classify_prefix_undetermined():
    sys = MoranSystem(2, SequenceSpec.prefix([4, 4]), SequenceSpec.prefix([1, 1]))
    assert isinstance(case_classify(sys), Undetermined)


# -- periodic normal form --------------------------------------------------


@st.composite
def periodic_systems(draw):
    # signed entries sign * u * N^a with u prime to N, and preperiods; half
    # the draws put one factor N in each scale entry and digit-step
    # exponents that are multiples of the digit period, so the classes
    # stay distinct mod the drift and steps far apart give case II
    N = draw(st.sampled_from([2, 3, 5]))

    def entries(exponents):
        return st.builds(
            lambda sign, unit, a: sign * unit * N**a,
            st.sampled_from([1, -1]),
            st.sampled_from([1, 7, 11]),
            exponents,
        )

    b = entries(st.integers(0, 2)).map(lambda v: v * N if abs(v) < 2 else v)
    t = entries(st.integers(0, 4))
    if draw(st.booleans()):
        period = draw(st.integers(2, 3))
        steps = entries(st.integers(0, 3).map(lambda m: period * m))
        b_period = draw(st.lists(entries(st.just(1)), min_size=1, max_size=2))
        t_period = draw(st.lists(steps, min_size=period, max_size=period))
    else:
        b_period = draw(st.lists(b, min_size=1, max_size=3))
        t_period = draw(st.lists(t, min_size=1, max_size=3))
    return MoranSystem(
        N,
        SequenceSpec.periodic(b_period, preperiod=draw(st.lists(b, max_size=2))),
        SequenceSpec.periodic(t_period, preperiod=draw(st.lists(t, max_size=2))),
    )


@settings(max_examples=150, deadline=None)
@given(sys=periodic_systems())
def test_normal_form_matches_a_brute_scan(sys):
    # every all-k answer read off the normal form against a plain scan of
    # ref_s over eleven report windows, at every k in the first ten
    sk = sys.skeleton
    W = sk.report_window() if sk.drift else sk.P + 2 * sk.p
    s = [None] + [ref_s(sys, k) for k in range(1, 11 * W + 1)]
    ks = range(1, 10 * W + 1)
    seen, pair = {}, None
    for j in range(1, len(s)):
        if s[j] in seen:
            pair = (seen[s[j]], j)
            break
        seen[s[j]] = j
    assert distinctness_check(sys) == (Distinct(None) if pair is None else Collision(*pair))
    assert [sk.tail_min(k) for k in ks] == [min(s[k + 1 :]) for k in ks]
    if sk.drift == 0:
        return
    last = {k: max(j for j in range(k, len(s)) if s[j] <= s[k]) for k in ks}
    assert [frak_n(sys, k) for k in ks] == [last[k] for k in ks]
    assert alpha_true(sys) == max(last[k] - k for k in ks)
    if pair is not None:
        return
    bps = tuple(k for k in ks if min(s[k + 1 :]) > max(s[1 : k + 1]))
    case = case_classify(sys)
    # case I has a breakpoint in every period, case II none past k0 - 1
    if any(k > 9 * W for k in bps):
        assert isinstance(case, CaseI)
        assert case.breakpoints == tuple(k for k in bps if k <= case.window)
    else:
        assert isinstance(case, CaseII)
        assert case.k0 == max(bps, default=0) + 1


# -- existence -------------------------------------------------------------


def test_existence_converges_golden():
    ex1 = example_1()
    res = existence_check(ex1, depth=8)
    assert isinstance(res, Converges)
    assert res == ref_existence_check(
        SequenceSpec.periodic([2]), ex1.t, ex1.b, depth=8
    )
    res2 = existence_check(
        MoranSystem(3, SequenceSpec.periodic([3]), SequenceSpec.periodic([1])), depth=5
    )
    assert isinstance(res2, Converges)
    # sum of 3 * 3^-k
    assert res2.partial_sum + res2.tail_bound == Fraction(3, 2)


def test_existence_tail_bound_is_exact_remaining_sum():
    sys = MoranSystem(
        2,
        SequenceSpec.periodic([6, 4], preperiod=[2]),
        SequenceSpec.periodic([3, 5], preperiod=[7]),
    )
    shallow = existence_check(sys, depth=3)
    deep = existence_check(sys, depth=40)
    assert shallow.partial_sum <= deep.partial_sum
    assert shallow.partial_sum + shallow.tail_bound == deep.partial_sum + deep.tail_bound
    assert deep.tail_bound >= 0


def test_existence_unknown_for_prefix():
    # t_k = 9 * 18^(k-1): every term equals 1, partial sums = depth
    t_entries = [9 * 18**i for i in range(20)]
    sys = MoranSystem(2, SequenceSpec.periodic([18]), SequenceSpec.prefix(t_entries))
    assert existence_check(sys, depth=20) == Unknown(Fraction(20), 20)
    with pytest.raises(HorizonError):
        existence_check(sys, depth=21)


@st.composite
def signed_periodic_systems(draw):
    def spec(low, high):
        entries = st.integers(low, high).flatmap(lambda v: st.sampled_from([v, -v]))
        return SequenceSpec.periodic(
            draw(st.lists(entries, min_size=1, max_size=3)),
            preperiod=draw(st.lists(entries, max_size=3)),
        )

    return MoranSystem(draw(st.sampled_from([2, 3, 5])), spec(2, 40), spec(1, 30))


@given(signed_periodic_systems(), st.integers(0, 20))
def test_existence_check_matches_the_general_series(sys, depth):
    # the tail-series fold gives the three-sequence series' exact Fractions
    want = ref_existence_check(SequenceSpec.periodic([sys.N]), sys.t, sys.b, depth)
    assert existence_check(sys, depth) == want


# -- normalize -------------------------------------------------------------


def test_normalize_golden():
    ex2n, m2 = normalize(example_2())
    assert m2 == 3
    assert ex2n.b.entry(1) == 144
    assert ex2n.b.entry(2) == 18
    ex1n, m1 = normalize(example_1())
    assert m1 == 1
    assert ex1n.b.entry(1) == 36
    sys = example_tile_only()
    same, m0 = normalize(sys)
    assert m0 == 0
    assert same.b == sys.b


def test_normalize_shifts_s_uniformly():
    for raw in (example_1(), example_2()):
        norm, m = normalize(raw)
        for k in range(1, 40):
            assert s_value(norm, k) == s_value(raw, k) + m
        assert min(s_value(norm, k) for k in range(1, 40)) >= 0


def test_normalize_rejects_signed():
    sys = MoranSystem(2, SequenceSpec.periodic([-18]), SequenceSpec.periodic([1]))
    with pytest.raises(UnsupportedCaseError):
        normalize(sys)


# -- growth hypothesis -----------------------------------------------------


def test_hypothesis_golden():
    assert spectral_hypothesis_check(example_2()) == Satisfied(1)
    assert spectral_hypothesis_check(example_tile_only()) == Violated(2)
    sys = MoranSystem(2, SequenceSpec.periodic([4]), SequenceSpec.periodic([1]))
    assert spectral_hypothesis_check(sys) == Satisfied(1)


def test_hypothesis_preperiod_violation_gives_m0():
    sys = MoranSystem(
        2, SequenceSpec.periodic([18], preperiod=[2]), SequenceSpec.periodic([4, 1])
    )
    assert spectral_hypothesis_check(sys) == Satisfied(2)
    assert hypothesis_holds_from(sys, 1) == 1
    assert hypothesis_holds_from(sys, 2) is None


def test_default_window_reasonable():
    assert default_window(example_1()) >= 12
    sys = MoranSystem(2, SequenceSpec.prefix([4, 4]), SequenceSpec.prefix([1, 1]))
    assert default_window(sys) == 2
