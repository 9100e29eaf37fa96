"""Tests for digit-set expansion, tiling decisions, and complements.

The brute-force searcher is itself the oracle for the decision
procedure, so it gets direct unit coverage first, then the equivalence
round trip runs on randomized systems.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from itertools import product as iter_product
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moran.errors import DomainError, PreconditionError, ResourceError
from moran.system import MoranSystem, SequenceSpec, normalize
from moran.tiling import (
    ELEMENT_CAP,
    _valuation_set,
    aggregate,
    brute_force_complement_search,
    build_complement,
    tijdeman_scale_check,
    tile_checks,
    tile_predicate,
    verify_tiling,
)


def prefix_system(N, bs, ts):
    return MoranSystem(N, SequenceSpec.prefix(bs), SequenceSpec.prefix(ts))


def tile_only_system():
    return MoranSystem(
        3, SequenceSpec.periodic([3]), SequenceSpec.periodic([4], preperiod=[1])
    )


def ref_aggregate_multiset(sys, k):
    """Positional expansion with no shortcuts shared with the module."""
    out = []
    for digits in iter_product(range(sys.N), repeat=k):
        total = 0
        for i in range(1, k + 1):
            tail = prod(sys.b_entry(j) for j in range(i + 1, k + 1))
            total += tail * digits[i - 1] * sys.t_entry(i)
        out.append(total)
    return sorted(out)


def ref_aggregate(sys, k):
    """The level-by-level expansion, one multiply-add per element per
    level: the oracle for aggregate's split at k // 2. Returns the
    elements, whether the sum is direct, and the collisions."""
    digits = range(sys.N)
    sums = [0]
    for i in range(1, k + 1):
        b_i = sys.b_entry(i)
        t_i = sys.t_entry(i)
        sums = [base * b_i + d * t_i for base in sums for d in digits]
    sums.sort()
    collisions = tuple(dict.fromkeys(a for a, b in zip(sums, sums[1:]) if a == b))
    return tuple(dict.fromkeys(sums)), not collisions, collisions


def ref_verify_tiling(D, L, modulus):
    """The per-cell exact-cover loop, one byte per residue: the oracle
    for the chunked scatter in verify_tiling."""
    counts = bytearray(modulus)
    for d in D:
        for ell in L:
            r = (d + ell) % modulus
            if counts[r]:
                return False
            counts[r] = 1
    return True


def random_system(rng):
    N = rng.choice([2, 3, 5])
    pool = [N, 2 * N, N * N, 3 * N, 2, 3, 5, 6]
    k = rng.randint(1, 5)
    bs = [rng.choice(pool) for _ in range(k)]
    ts = [rng.randint(1, 12) for _ in range(k)]
    return prefix_system(N, bs, ts), k


# -- aggregate -------------------------------------------------------------


def test_aggregate_direct_example():
    agg = aggregate(prefix_system(2, [4, 4], [1, 2]), 2)
    assert agg.elements == (0, 2, 4, 6)
    assert agg.direct
    assert agg.collisions == ()
    assert agg.exponents == (2, 1)
    assert agg.modulus == 8


def test_aggregate_collision_example():
    agg = aggregate(prefix_system(2, [2, 2], [1, 2]), 2)
    assert agg.elements == (0, 2, 4)
    assert not agg.direct
    assert agg.collisions == (2,)


def test_aggregate_level_one_is_plain_digits():
    agg = aggregate(prefix_system(5, [10], [1]), 1)
    assert agg.elements == (0, 1, 2, 3, 4)
    assert agg.direct


def test_aggregate_matches_positional_reference():
    rng = random.Random(31)
    cases = [random_system(rng) for _ in range(30)] + [
        # colliding expansions; 6 is reached three ways in the N=3 one
        (prefix_system(2, [2, 2], [1, 2]), 2),
        (prefix_system(2, [2, 3, 2], [1, 3, 6]), 3),
        (prefix_system(3, [3, 3], [1, 3]), 2),
        (prefix_system(2, [2, 2, 2], [1, 2, 3]), 3),
        # signed, and deep enough that both halves of the split collide
        (prefix_system(2, [2] * 8, [1, 2, 3, 1, 2, 3, 1, 2]), 8),
        (prefix_system(3, [-3, 3, -3, 3, 3], [1, 3, -1, 2, 1]), 5),
    ]
    for sys, k in cases:
        ref = Counter(ref_aggregate_multiset(sys, k))
        agg = aggregate(sys, k)
        assert agg.elements == tuple(sorted(ref))
        assert agg.collisions == tuple(sorted(v for v, c in ref.items() if c > 1))
        assert agg.direct == (len(agg.elements) == sys.N**k)
    assert aggregate(prefix_system(3, [3, 3], [1, 3]), 2).collisions == (3, 6, 9)


# the deepest level drawn for each N keeps a case under 1,000 sums
DEEPEST = {2: 8, 3: 6, 5: 4}
SIGNED_B = st.integers(2, 20).flatmap(lambda v: st.sampled_from([v, -v]))
SIGNED_T = st.integers(1, 12).flatmap(lambda v: st.sampled_from([v, -v]))
BIG = st.integers(2**64, 2**70).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), N=st.sampled_from([2, 3, 5]), small=st.booleans())
def test_aggregate_split_matches_the_level_loop(data, N, small):
    # b in {±2, ±3} and t up to 4 make colliding expansions common
    k = data.draw(st.integers(1, DEEPEST[N]))
    bs = data.draw(st.lists(st.sampled_from([2, -2, 3, -3]) if small else SIGNED_B, min_size=k, max_size=k))
    ts = data.draw(st.lists(st.integers(-4, 4).filter(bool) if small else SIGNED_T, min_size=k, max_size=k))
    sys = prefix_system(N, bs, ts)
    agg = aggregate(sys, k)
    assert (agg.elements, agg.direct, agg.collisions) == ref_aggregate(sys, k)


def signed_sequence(data, entries):
    # a period of 1-3 entries after a preperiod of 0-2
    pre = data.draw(st.lists(entries, max_size=2))
    return SequenceSpec.periodic(data.draw(st.lists(entries, min_size=1, max_size=3)), preperiod=pre)


def cover_row(agg, D, L, modulus):
    """The complement-tiles row of tile_checks, as (ok, detail)."""
    name, ok, detail = tile_checks(agg, D, L, modulus, agg.exponents)[-1]
    assert name == "complement-tiles"
    return ok, detail


@settings(max_examples=150, deadline=None)
@given(data=st.data(), N=st.sampled_from([2, 3, 5]), small=st.booleans())
def test_tile_checks_cover_matches_the_cell_loop(data, N, small):
    # the built lists, with an element of either side moved or not, then
    # perhaps every element lifted by multiples of the modulus past 2^64,
    # then perhaps the complement negated
    k = data.draw(st.integers(1, DEEPEST[N]))
    bs = signed_sequence(data, st.sampled_from([2, -2, 3, -3]) if small else SIGNED_B)
    ts = signed_sequence(data, st.integers(-4, 4).filter(bool) if small else SIGNED_T)
    sys = MoranSystem(N, bs, ts)
    # the deepest tile level up to k: levels before the first repeat of s
    pair = sys.skeleton.first_repeat(k)
    k = k if pair is None else pair[1] - 1
    agg, comp = aggregate(sys, k), build_complement(sys, k)
    modulus = agg.modulus
    assume(modulus <= 2**14)
    D, L = list(agg.elements), list(comp.elements)
    moved = data.draw(st.sampled_from(["none", "digit", "complement"]))
    if moved != "none":
        side = D if moved == "digit" else L
        side[data.draw(st.integers(0, len(side) - 1))] = data.draw(st.integers(-modulus, 2 * modulus))
    if data.draw(st.booleans()):
        lifts = data.draw(st.lists(BIG | st.integers(-3, 3), min_size=1, max_size=8))
        D = [x + lifts[i % len(lifts)] * modulus for i, x in enumerate(D)]
        L = [x + lifts[-i % len(lifts)] * modulus for i, x in enumerate(L)]
    if data.draw(st.booleans()):
        L = [-x for x in L]
    want = ref_verify_tiling(D, L, modulus)
    assert cover_row(agg, D, L, modulus) == (want, None)
    if moved == "none":
        assert want


def pairwise_valuations(X, N, M):
    """Every valuation of a difference of X modulo N^M, pair by pair, or
    None when two members agree modulo N^M: the oracle for _valuation_set."""
    modulus = N**M
    found = set()
    for i, x in enumerate(X):
        for y in X[:i]:
            d = (x - y) % modulus
            if d == 0:
                return None
            e = 0
            while d % N**(e + 1) == 0:
                e += 1
            found.add(e)
    return found


@settings(max_examples=100, deadline=None)
@given(data=st.data(), N=st.sampled_from([2, 3, 5]), M=st.integers(0, 6))
def test_valuation_set_matches_the_pairwise_scan(data, N, M):
    # a small pool makes repeats common; signed values past 2^64 are lifts
    pool = data.draw(st.lists(st.integers(-(N**M), N**M), min_size=1, max_size=4))
    element = st.sampled_from(pool) | st.integers(-(2**70), 2**70) | st.integers(-30, 30)
    X = data.draw(st.lists(element, max_size=12))
    assert _valuation_set(X, N, M) == pairwise_valuations(X, N, M)


@pytest.mark.parametrize("N,M", [(2, 2), (2, 3), (3, 2)])
def test_cover_criterion_on_every_pair_containing_zero(N, M):
    # every pair of sets of residues containing 0 with |D|·|L| = N^M
    modulus = N**M
    agg = aggregate(prefix_system(N, [N], [1]), 1)
    rest = range(1, modulus)
    tilings = 0
    for a in range(M + 1):
        for D in combinations(rest, N**a - 1):
            for L in combinations(rest, N ** (M - a) - 1):
                D0, L0 = (0, *D), (0, *L)
                want = ref_verify_tiling(D0, L0, modulus)
                assert cover_row(agg, D0, L0, modulus) == (want, None)
                tilings += want
    assert tilings


def test_cover_needs_a_power_of_n_modulus():
    agg = aggregate(prefix_system(2, [4, 4], [1, 2]), 2)
    # {0, 1, 2} + {0, 3} covers the residues mod 6 exactly once
    assert ref_verify_tiling([0, 1, 2], [0, 3], 6)
    assert cover_row(agg, [0, 1, 2], [0, 3], 6) == (False, "modulus 6 is not a power of N")
    assert cover_row(agg, [0, 1, 2], [0], 6) == (False, "|D| * |L| = 3, not the modulus")


def test_aggregate_resource_cap():
    # 2^25 formal sums are over ELEMENT_CAP: refused before any is formed
    sys = prefix_system(2, [4] * 25, [1] * 25)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="over the cap"):
            aggregate(sys, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(PreconditionError):
        aggregate(prefix_system(2, [4], [1]), 0)


def test_aggregate_refuses_a_huge_level_at_once():
    # 3^(10^7) is never formed: k past the cap's bit length is refused first
    sys = MoranSystem(3, SequenceSpec.periodic([9]), SequenceSpec.periodic([1, 4]))
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="over the cap"):
        aggregate(sys, 10**7)
    assert time.perf_counter() - start < 0.5


# -- tile_predicate --------------------------------------------------------


def test_tile_predicate_examples():
    assert tile_predicate(tile_only_system(), 6)
    two = MoranSystem(2, SequenceSpec.periodic([2]), SequenceSpec.periodic([1, 2]))
    assert not tile_predicate(two, 2)
    assert tile_predicate(prefix_system(2, [4, 4], [1, 2]), 2)


def test_tile_predicate_implies_direct_sum():
    # the converse is false: generators with equal valuation but
    # different odd parts can still produce distinct sums
    rng = random.Random(77)
    for _ in range(30):
        sys, k = random_system(rng)
        agg = aggregate(sys, k)
        if tile_predicate(sys, k):
            assert agg.direct
        assert agg.direct == (len(agg.elements) == sys.N**k)


def test_direct_sum_without_distinctness():
    sys = prefix_system(2, [2, 6], [1, 2])
    assert not tile_predicate(sys, 2)
    agg = aggregate(sys, 2)
    assert agg.elements == (0, 2, 6, 8)
    assert agg.direct


# -- build_complement ------------------------------------------------------


def test_build_complement_examples():
    comp = build_complement(prefix_system(2, [4, 4], [1, 2]), 2)
    assert comp.elements == (0, 1)
    assert comp.modulus == 8
    comp1 = build_complement(prefix_system(2, [2], [1]), 1)
    assert comp1.elements == (0,)
    assert comp1.modulus == 2
    comp2 = build_complement(tile_only_system(), 2)
    assert comp2.elements == (0,)
    assert comp2.modulus == 9


def test_build_complement_reports_colliding_pair():
    with pytest.raises(PreconditionError, match="1 and 2"):
        build_complement(prefix_system(2, [2, 2], [1, 2]), 2)


def test_complement_cardinality_identity():
    rng = random.Random(5)
    found = 0
    while found < 15:
        sys, k = random_system(rng)
        if not tile_predicate(sys, k):
            continue
        comp = build_complement(sys, k)
        assert len(comp.elements) * sys.N**k == comp.modulus
        found += 1


# -- verify_tiling ---------------------------------------------------------


def test_verify_tiling_examples():
    assert verify_tiling({0, 2, 4, 6}, {0, 1}, 8)
    assert not verify_tiling({0, 1}, {0, 1}, 4)
    assert verify_tiling(range(5), {0}, 5)
    assert verify_tiling([-4, 2**64 + 1], [0, -(2**70) + 2], 4)
    assert not verify_tiling([3, 3], [0, 1], 4)


@pytest.mark.parametrize("bad", [1.0, 0.5, "1"])
def test_verify_tiling_refuses_non_integer_elements(bad):
    with pytest.raises(DomainError, match="integer elements"):
        verify_tiling([0, bad], [0], 2)
    with pytest.raises(DomainError, match="integer elements"):
        verify_tiling([0], [0, bad], 2)


# Residues are lifted by these multiples of the modulus, so elements run
# past 2**63 on both sides while the cover stays under control.
LIFTS = st.sampled_from([0, 1, -1, 2**63, -(2**63), 2**64 + 5]) | st.integers(-(2**80), 2**80)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=st.integers(1, 12), b=st.integers(1, 12))
def test_verify_tiling_agrees_with_the_cell_loop(data, a, b):
    # |D| and |L| each range over 1..12, so both may be the longer side,
    # and small moduli make repeated elements and accidental covers common;
    # residues drawn from a pool of at most three make repeats within a
    # side and across the two sides commoner still
    modulus = a * b
    pool = data.draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=3))
    residue = st.integers(0, modulus - 1) | st.sampled_from(pool)
    element = st.builds(lambda r, q: r + q * modulus, residue, LIFTS)
    D = data.draw(st.lists(element, min_size=a, max_size=a))
    L = data.draw(st.lists(element, min_size=b, max_size=b))
    want = ref_verify_tiling(D, L, modulus)
    assert verify_tiling(D, L, modulus) == want
    assert verify_tiling(L, D, modulus) == want
    # an int64 array gives the same verdict
    if all(-(2**63) <= x < 2**63 for x in D):
        assert verify_tiling(np.array(D, dtype=np.int64), L, modulus) == want
        assert verify_tiling(L, np.array(D, dtype=np.int64), modulus) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=st.integers(1, 40), b=st.integers(1, 40), moved=st.booleans())
def test_verify_tiling_on_lifted_tilings_with_one_element_moved(data, a, b, moved):
    # range(a) + a*range(b) covers the residues mod a*b exactly once, and
    # so does it with D shifted by some s and L by -s, whose reduced sums
    # then reach past the modulus
    modulus = a * b
    shift = data.draw(st.integers(0, modulus - 1))
    lifts = data.draw(st.lists(LIFTS, min_size=a + b, max_size=a + b))
    D = [i + shift + q * modulus for i, q in zip(range(a), lifts)]
    L = [a * j - shift + q * modulus for j, q in zip(range(b), lifts[a:])]
    if moved:
        side = data.draw(st.sampled_from([D, L]))
        at = data.draw(st.integers(0, len(side) - 1))
        side[at] += data.draw(st.integers(-(2**66), 2**66))
    got = verify_tiling(D, L, modulus)
    assert got == ref_verify_tiling(D, L, modulus)
    assert verify_tiling(L, D, modulus) == got
    if not moved:
        assert got


def test_verify_tiling_memory_is_chunked():
    # |D| = 2,048, |L| = 1,024, modulus 2^21: one unchunked int64 outer
    # sum would take 16 MB; the residue table is 2 MB
    sys = prefix_system(2, [4] * 11, [1] * 11)
    agg = aggregate(sys, 11)
    comp = build_complement(sys, 11)
    assert (len(agg.elements), len(comp.elements), agg.modulus) == (2048, 1024, 2**21)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert verify_tiling(agg.elements, comp.elements, agg.modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * 2**20


def test_verify_tiling_refuses_a_modulus_over_the_cap():
    # a valid cover of 2^25 residues: refused before its table is built
    D = range(2**12)
    L = range(0, 2**25, 2**12)
    with pytest.raises(ResourceError, match="above the cap"):
        verify_tiling(D, L, 2**25)
    assert ELEMENT_CAP < 2**25


def test_verify_tiling_cardinality_precondition():
    with pytest.raises(PreconditionError):
        verify_tiling({0, 1}, {0, 1}, 8)
    # an empty side makes |D|·|L| = 0, and residues mod 0 do not exist
    with pytest.raises(PreconditionError, match="at least 1"):
        verify_tiling({0, 1}, (), 0)


def test_pairwise_sums_all_distinct_modulo():
    sys = prefix_system(2, [4, 4], [1, 2])
    agg = aggregate(sys, 2)
    comp = build_complement(sys, 2)
    sums = {
        (d + ell) % comp.modulus
        for d in agg.elements
        for ell in comp.elements
    }
    assert len(sums) == comp.modulus


# -- brute force search ----------------------------------------------------


def test_brute_force_examples():
    assert brute_force_complement_search({0, 2, 4, 6}, 2, 2**10) == ((0, 1), 8)
    assert brute_force_complement_search({0, 1, 2, 4}, 2, 2**10) is None
    assert brute_force_complement_search({0}, 3, 3) == ((0, 1, 2), 3)


def test_brute_force_translation_invariant():
    shifted = brute_force_complement_search({5, 7, 9, 11}, 2, 2**10)
    assert shifted == ((0, 1), 8)


def test_brute_force_size_cap():
    with pytest.raises(PreconditionError):
        brute_force_complement_search(range(5000), 2, 8)


def plain_exhaustive_complement(D, modulus):
    """Chronological backtracking over all complements, as a small
    independent oracle for the layered search."""
    residues = sorted(d % modulus for d in D)
    if len(set(residues)) != len(residues) or modulus % len(residues):
        return None
    size = modulus // len(residues)
    covered = bytearray(modulus)

    def fits(ell):
        return all(not covered[(d + ell) % modulus] for d in residues)

    def mark(ell, v):
        for d in residues:
            covered[(d + ell) % modulus] = v

    chosen = []

    def rec():
        if len(chosen) == size:
            return True
        r = covered.index(0)
        for d in residues:
            ell = (r - d) % modulus
            if fits(ell):
                mark(ell, 1)
                chosen.append(ell)
                if rec():
                    return True
                chosen.pop()
                mark(ell, 0)
        return False

    return sorted(chosen) if rec() else None


def test_layered_search_agrees_with_plain_backtracking():
    from moran.tiling import _complement_at_modulus

    rng = random.Random(99)
    for trial in range(150):
        N = rng.choice([2, 3])
        m = rng.randint(1, 6 if N == 2 else 4)
        modulus = N**m
        if trial % 2:
            # structured tile: digit sets at random positions, scaled by units
            positions = rng.sample(range(m), rng.randint(0, m))
            D = [0]
            for j in positions:
                u = rng.choice([u for u in range(1, 2 * N) if u % N])
                D = [x + u * N**j * d for x in D for d in range(N)]
            D = sorted({(d + rng.randrange(modulus)) % modulus for d in D})
        else:
            m = min(m, 5 if N == 2 else 3)
            modulus = N**m
            dsize = N ** rng.randint(0, min(m, 3))
            D = sorted(rng.sample(range(modulus), dsize))
        mine = _complement_at_modulus(D, N, modulus)
        ref = plain_exhaustive_complement(D, modulus)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert verify_tiling(D, mine, modulus)


def test_equivalence_roundtrip():
    """Predicate, constructive complement, and exhaustive search agree
    at the certificate modulus."""
    rng = random.Random(1234)
    seen_true = seen_false = 0
    while seen_true < 10 or seen_false < 10:
        sys, k = random_system(rng)
        sys = normalize(sys)[0]
        if tile_predicate(sys, k):
            comp = build_complement(sys, k)
            if comp.modulus > 3**10:
                continue
            agg = aggregate(sys, k)
            assert verify_tiling(agg.elements, comp.elements, comp.modulus)
            found = brute_force_complement_search(agg.elements, sys.N, comp.modulus)
            assert found is not None
            L, modulus = found
            assert verify_tiling(agg.elements, L, modulus)
            seen_true += 1
        else:
            agg = aggregate(sys, k)
            if agg.modulus > 3**10:
                continue
            assert brute_force_complement_search(agg.elements, sys.N, agg.modulus) is None
            seen_false += 1


def test_collapsed_expansion_can_tile_larger_modulus():
    """A non-direct expansion may still tile some bigger N-power, which
    is why the equivalence above pins the modulus to the certificate
    one. Here the three digit sets collapse onto one arithmetic
    progression of length 4."""
    sys = prefix_system(2, [2, 3, 2], [1, 3, 6])
    assert not tile_predicate(sys, 3)
    agg = aggregate(sys, 3)
    assert agg.elements == (0, 6, 12, 18)
    assert agg.modulus == 4
    assert brute_force_complement_search(agg.elements, 2, agg.modulus) is None
    assert brute_force_complement_search(agg.elements, 2, 16) == ((0, 1), 8)


# -- scaling property ------------------------------------------------------


def test_tijdeman_examples():
    assert tijdeman_scale_check({0, 2, 4, 6}, {0, 1}, 8, 3)
    assert tijdeman_scale_check({0, 1}, {0, 2}, 4, 5)
    assert tijdeman_scale_check({0, 2, 4, 6}, {0, 1}, 8, 1)


def test_tijdeman_preconditions():
    with pytest.raises(PreconditionError):
        tijdeman_scale_check({0, 2, 4, 6}, {0, 1}, 8, 2)
    with pytest.raises(PreconditionError):
        tijdeman_scale_check({0, 1}, {0, 1}, 4, 3)


@given(l=st.integers(min_value=-99, max_value=99).filter(lambda v: v % 2))
def test_tijdeman_holds_for_all_coprime_scales(l):
    assert tijdeman_scale_check({0, 2, 4, 6}, {0, 1}, 8, l)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), l=st.integers(1, 60))
def test_tijdeman_on_random_constructed_tilings(seed, l):
    rng = random.Random(seed)
    while True:
        sys, k = random_system(rng)
        if tile_predicate(sys, k):
            comp = build_complement(sys, k)
            if comp.modulus <= 3**8:
                break
    agg = aggregate(sys, k)
    if l % sys.N == 0:
        l += 1
    assert tijdeman_scale_check(agg.elements, comp.elements, comp.modulus, l)
