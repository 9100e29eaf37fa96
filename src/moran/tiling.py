"""Aggregate digit sets and explicit integer tilings at each level.

The level-k digit expansion folds the first k digit sets into one set of
integers. When the expansion is direct it tiles the integers, and a
complement can be written down explicitly from the valuation exponents
of the generators. This module builds both sides and also carries a
brute-force searcher that serves as an independent oracle for the
decision procedure.
"""

import operator
from dataclasses import dataclass
from itertools import islice, zip_longest
from math import gcd, prod

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError
from .numthy import _valuation_unchecked
from .system import MoranSystem

ELEMENT_CAP = 2**24
SEARCH_SIZE_CAP = 2**12
# Cells per temporary of the exact-cover scatter: its working memory is
# the table of two bytes per residue plus an array of this many cells.
_CHUNK_CELLS = 2**18


def _over_cap(N: int, k: int, cap: int) -> bool:
    """Is N^k over cap? N >= 2, so N^k is over it once k reaches the
    cap's bit length, and a huge k is decided before N^k is computed."""
    return k >= cap.bit_length() or N**k > cap


@dataclass(frozen=True)
class AggregateDigitSet:
    """All digit sets up to level k folded into a single integer set.

    ``elements`` is sorted and deduplicated. The expansion is direct
    exactly when no two digit combinations produce the same integer;
    any values reached more than one way are listed in ``collisions``
    as diagnostic evidence.
    """

    k: int
    elements: tuple
    exponents: tuple
    modulus: int
    N: int
    direct: bool
    collisions: tuple = ()


@dataclass(frozen=True)
class TilingComplement:
    """Set tiling the residues modulo an N-power against the expansion."""

    k: int
    elements: tuple
    modulus: int


def _alpha_exponents(sys: MoranSystem, k: int) -> tuple:
    """Digit position occupied by each level inside the expansion.

    Position i carries its digits at the power top - s_i where top is
    one less than the valuation of the full product b_1 ... b_k. These
    are nonnegative regardless of normalization.
    """
    sk = sys.skeleton
    top = sk.tau_b_prefix(k) - 1
    return tuple(top - sk.s(i) for i in range(1, k + 1))


def _expand(sys: MoranSystem, first: int, last: int, scale: int = 1) -> list:
    """Every sum of digit_i * t_i * b_{i+1} ... b_last * scale over levels first..last."""
    sums = [0]
    for i in range(first, last + 1):
        b_i = sys.b_entry(i)
        steps = [d * sys.t_entry(i) * scale for d in range(sys.N)]
        sums = [base * b_i + step for base in sums for step in steps]
    return sums


def _increasing(values) -> bool:
    return all(map(operator.lt, values, islice(values, 1, None)))


def aggregate(sys: MoranSystem, k: int) -> AggregateDigitSet:
    """Expand the first k digit sets into one set of integers.

    The expansion has N^k formal sums, so ELEMENT_CAP guards against
    runaway growth before anything is allocated. Split at h = k // 2, each sum is one of levels 1..h times
    b_{h+1} ... b_k plus one of levels h+1..k: one addition, not k multiply-adds.
    """
    if k < 1:
        raise PreconditionError("aggregate requires k >= 1")
    if _over_cap(sys.N, k, ELEMENT_CAP):
        raise ResourceError(
            f"level {k} expansion has {sys.N}^{k} formal sums, over the cap {ELEMENT_CAP}"
        )
    h = k // 2
    scale = prod(sys.b_entry(i) for i in range(h + 1, k + 1))
    high = sorted(_expand(sys, 1, h, scale))
    low = sorted(_expand(sys, h + 1, k))
    sums = [a + c for a in high for c in low]
    # high holds multiples of scale: when neither half repeats and the low
    # sums span less than |scale|, the sums are distinct and already sorted
    ordered = low[-1] - low[0] < abs(scale) and _increasing(high) and _increasing(low)
    if not ordered:
        sums.sort()
    repeat = not (ordered or _increasing(sums))
    # equal neighbours of the sorted list, each value once, in order
    collisions = tuple(dict.fromkeys(a for a, b in zip(sums, sums[1:]) if a == b)) if repeat else ()
    alphas = _alpha_exponents(sys, k)
    return AggregateDigitSet(
        k=k,
        elements=tuple(dict.fromkeys(sums) if collisions else sums),
        exponents=alphas,
        modulus=sys.N ** (max(alphas) + 1),
        N=sys.N,
        direct=not collisions,
        collisions=collisions,
    )


def tile_predicate(sys: MoranSystem, k: int) -> bool:
    """Decide whether the level-k expansion is an integer tile.

    Holds exactly when the first k valuation offsets are pairwise
    distinct; no elements are materialized.
    """
    return sys.skeleton.first_repeat(k) is None


def build_complement(sys: MoranSystem, k: int) -> TilingComplement:
    """Explicit tiling complement for the level-k expansion.

    The expansion occupies one digit position per level, so the
    complement carries a full digit set at every unoccupied position up
    to the top exponent. Distinctness of the positions is re-checked
    here and the offending pair reported if it fails.
    """
    alphas = _alpha_exponents(sys, k)
    # position top - s_i: two levels share a position iff they share s
    pair = sys.skeleton.first_repeat(k)
    if pair is not None:
        i, j = pair
        raise PreconditionError(
            f"level-{k} expansion is not an integer tile: levels {i} and {j} "
            f"share digit position {alphas[j - 1]}"
        )
    occupied = set(alphas)
    top = max(alphas)
    elements = [0]
    for j in range(top + 1):
        if j in occupied:
            continue
        step = sys.N**j
        elements = [x + d * step for x in elements for d in range(sys.N)]
    return TilingComplement(k=k, elements=tuple(sorted(elements)), modulus=sys.N ** (top + 1))


def _residues(elements, modulus: int):
    """Each element reduced once, exactly, into an int64 array."""
    try:
        return np.array([operator.index(x) % modulus for x in elements], dtype=np.int64)
    except TypeError as exc:
        raise DomainError(f"exact-cover check needs integer elements: {exc}") from exc


def verify_tiling(D, L, modulus: int) -> bool:
    """Exact-cover check: every residue is hit exactly once by D + L.

    Each side is reduced once into [0, modulus), so every sum d + l lies
    in [0, 2·modulus − 1) and is marked unreduced in a table of two
    bytes per residue: a modulus above ELEMENT_CAP is refused before that
    table is allocated. Sums are marked one element of the shorter side
    at a time, over at most _CHUNK_CELLS elements of the longer side, so
    the working memory beyond the table does not grow with |D|·|L|. The
    table is then folded once. A non-integer element raises DomainError.
    """
    D, L = tuple(D), tuple(L)
    if len(D) * len(L) != modulus:
        raise PreconditionError(
            f"|D| * |L| = {len(D) * len(L)} does not match the modulus {modulus}"
        )
    if modulus < 1:
        raise PreconditionError("an exact cover needs a modulus of at least 1")
    if modulus > ELEMENT_CAP:
        raise ResourceError(f"exact-cover check over modulus {modulus} is above the cap {ELEMENT_CAP}")
    rows, cols = (D, L) if len(D) >= len(L) else (L, D)
    rows = _residues(rows, modulus)
    table = np.zeros(2 * modulus, dtype=np.uint8)
    for c in _residues(cols, modulus).tolist():
        for start in range(0, len(rows), _CHUNK_CELLS):
            table[rows[start : start + _CHUNK_CELLS] + c] = 1
    # cell r now counts the marked sums r and r + modulus. There are
    # |D|·|L| = modulus sums, so no cell is 0 exactly when each is 1,
    # that is when no two sums agree modulo the modulus
    folded = table[:modulus]
    folded += table[modulus:]
    return bool(folded.all())


def _valuation_set(X, N: int, M: int):
    """The N-adic valuations of the differences of X modulo N^M, or None
    when two members agree modulo N^M. Members differ at valuation e
    exactly when they share a class modulo N^e but not modulo N^(e+1)."""
    counts, classes = {}, X
    for e in range(M, -1, -1):
        q = N**e
        classes = {x % q for x in classes}
        counts[e] = len(classes)
    return None if counts[M] != len(X) else {e for e in range(M) if counts[e + 1] > counts[e]}


def tile_checks(agg: AggregateDigitSet, digits, complement, modulus: int, exponents) -> list:
    """The checks every certified tile passes, for the builder and the
    certificate replay alike: the (name, ok, detail) rows digit-set,
    direct-sum, modulus and exponents against the recomputed expansion
    agg, then complement-tiles, the exact cover by the stated lists. For
    prime N that holds iff |D|·|L| = N^M, neither side repeats a residue
    and the sides' valuation sets are disjoint: the README has the proof."""
    digits, complement = tuple(digits), tuple(complement)
    match = digits == agg.elements
    # a permutation or a repeat may differ only in position
    pairs = enumerate(zip_longest(digits, agg.elements))
    detail = None if match else f"first difference at index {next(i for i, (a, b) in pairs if a != b)}"
    rows = [
        ("digit-set", match, detail),
        ("direct-sum", agg.direct, f"value {agg.collisions[0]} reached twice" if agg.collisions else None),
        ("modulus", modulus == agg.modulus, f"recomputed {agg.modulus}"),
        ("exponents", tuple(exponents) == agg.exponents, f"recomputed {list(agg.exponents)}"),
    ]
    cells = len(digits) * len(complement)
    tiles, detail = False, None
    if cells != modulus:
        detail = f"|D| * |L| = {cells}, not the modulus"
    elif modulus < 1:
        raise PreconditionError("an exact cover needs a modulus of at least 1")
    elif (power := _valuation_unchecked(modulus, agg.N)).unit != 1:
        detail = f"modulus {modulus} is not a power of N"
    else:
        # a difference of the expansion is a sum of c_j·u_j·N^(α_j) with |c_j| < N and
        # N ∤ u_j, so with distinct α_j its valuation is the least α_j with c_j ≠ 0
        alphas = set(agg.exponents)
        expansion = match and modulus == agg.modulus and len(alphas) == len(agg.exponents)
        ours = alphas if expansion else _valuation_set(digits, agg.N, power.exponent)
        theirs = _valuation_set(complement, agg.N, power.exponent)
        tiles = ours is not None and theirs is not None and ours.isdisjoint(theirs)
    rows.append(("complement-tiles", tiles, detail))
    return rows


def _complement_at_modulus(D, N, modulus):
    """Find L with D + L an exact cover of the residues, or None.

    Uses the layer structure of the cyclic group of N-power order. Let
    K be its unique subgroup of order N. A classical factorization
    theorem for cyclic prime-power groups says any exact cover has D or
    L invariant under translation by K. Bucketing D by residue modulo
    modulus/N therefore decides everything:

    - every bucket full (N elements): D is K-invariant, so the problem
      descends to the quotient with D collapsed;
    - every bucket a singleton: L must be K-invariant, so L is the
      lift of a quotient complement by all of K;
    - mixed bucket sizes: neither side can be invariant, so no
      complement exists at this modulus.

    Each step shrinks the modulus by a factor of N, which makes the
    decision linear in practice while still being exhaustive: a None
    answer is a proof of nonexistence.
    """
    residues = sorted(d % modulus for d in D)
    if len(set(residues)) != len(residues) or modulus % len(residues):
        return None
    return _layered_search(residues, N, modulus)


def _layered_search(residues, N, modulus):
    if modulus == 1:
        return [0]
    quotient = modulus // N
    buckets = {}
    for d in residues:
        buckets.setdefault(d % quotient, []).append(d)
    sizes = {len(v) for v in buckets.values()}
    if sizes == {N}:
        return _layered_search(sorted(buckets), N, quotient)
    if sizes == {1}:
        sub = _layered_search(sorted(buckets), N, quotient)
        if sub is None:
            return None
        return sorted(ell + j * quotient for ell in sub for j in range(N))
    return None


def brute_force_complement_search(D, N: int, modulus_cap: int):
    """Search every N-power modulus up to the cap for a complement.

    Returns the first success as (elements, modulus) with the smallest
    working modulus, or None when the search fails at every admissible
    modulus. Translation invariant in D.
    """
    base = sorted({int(d) for d in D})
    if len(base) > SEARCH_SIZE_CAP:
        raise PreconditionError(
            f"search limited to sets of at most {SEARCH_SIZE_CAP} elements"
        )
    shift = base[0]
    shifted = [d - shift for d in base]
    modulus = N
    while modulus <= modulus_cap:
        if modulus % len(shifted) == 0:
            found = _complement_at_modulus(shifted, N, modulus)
            if found is not None:
                return tuple(found), modulus
        modulus *= N
    return None


def tijdeman_scale_check(D, L, modulus: int, l: int) -> bool:
    """Scaling a tile by a factor coprime to its size keeps it a tile.

    Exposed as a test utility: a False return signals a bug rather than
    a legitimate outcome.
    """
    D = tuple(D)
    L = tuple(L)
    if gcd(l, len(D)) != 1:
        raise PreconditionError(
            f"scale factor {l} shares a factor with the tile size {len(D)}"
        )
    if not verify_tiling(D, L, modulus):
        raise PreconditionError("input pair does not tile the residues")
    scaled = tuple((l * d) % modulus for d in D)
    return verify_tiling(scaled, L, modulus)
