"""Aggregate digit sets and explicit integer tilings at each level.

The level-k digit expansion folds the first k digit sets into one set of
integers. When the expansion is direct it tiles the integers, and a
complement can be written down explicitly from the valuation exponents
of the generators. This module builds both sides and also carries a
brute-force searcher that serves as an independent oracle for the
decision procedure.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .errors import PreconditionError, ResourceError
from .system import MoranSystem

ELEMENT_CAP = 2**24
SEARCH_SIZE_CAP = 2**12


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


def aggregate(sys: MoranSystem, k: int, element_cap: int = ELEMENT_CAP) -> AggregateDigitSet:
    """Expand the first k digit sets into one set of integers.

    The expansion has N^k formal sums, so a cap guards against runaway
    growth before anything is allocated.
    """
    if k < 1:
        raise PreconditionError("aggregate requires k >= 1")
    if sys.N**k > element_cap:
        raise ResourceError(
            f"level {k} expansion has {sys.N}^{k} formal sums, over the cap {element_cap}"
        )
    digits = range(sys.N)
    sums = [0]
    for i in range(1, k + 1):
        b_i = sys.b_entry(i)
        t_i = sys.t_entry(i)
        sums = [base * b_i + d * t_i for base in sums for d in digits]
    counts = Counter(sums)
    collisions = tuple(sorted(v for v, c in counts.items() if c > 1))
    alphas = _alpha_exponents(sys, k)
    return AggregateDigitSet(
        k=k,
        elements=tuple(sorted(counts)),
        exponents=alphas,
        modulus=sys.N ** (max(alphas) + 1),
        direct=not collisions,
        collisions=collisions,
    )


def tile_predicate(sys: MoranSystem, k: int) -> bool:
    """Decide whether the level-k expansion is a direct sum.

    Holds exactly when the first k valuation offsets are pairwise
    distinct; no elements are materialized.
    """
    sk = sys.skeleton
    seen = set()
    for i in range(1, k + 1):
        v = sk.s(i)
        if v in seen:
            return False
        seen.add(v)
    return True


def build_complement(sys: MoranSystem, k: int) -> TilingComplement:
    """Explicit tiling complement for the level-k expansion.

    The expansion occupies one digit position per level, so the
    complement carries a full digit set at every unoccupied position up
    to the top exponent. Distinctness of the positions is re-checked
    here and the offending pair reported if it fails.
    """
    alphas = _alpha_exponents(sys, k)
    seen = {}
    for i, a in enumerate(alphas, start=1):
        if a in seen:
            raise PreconditionError(
                f"expansion is not direct: levels {seen[a]} and {i} share digit position {a}"
            )
        seen[a] = i
    top = max(alphas)
    elements = [0]
    for j in range(top + 1):
        if j in seen:
            continue
        step = sys.N**j
        elements = [x + d * step for x in elements for d in range(sys.N)]
    return TilingComplement(k=k, elements=tuple(sorted(elements)), modulus=sys.N ** (top + 1))


def verify_tiling(D, L, modulus: int) -> bool:
    """Exact-cover check: every residue is hit exactly once by D + L.

    The check keeps one byte per residue, so a modulus above ELEMENT_CAP
    is refused before that table is allocated.
    """
    D = tuple(D)
    L = tuple(L)
    if len(D) * len(L) != modulus:
        raise PreconditionError(
            f"|D| * |L| = {len(D) * len(L)} does not match the modulus {modulus}"
        )
    if modulus > ELEMENT_CAP:
        raise ResourceError(
            f"exact-cover check over modulus {modulus} is above the cap {ELEMENT_CAP}"
        )
    counts = bytearray(modulus)
    for d in D:
        for ell in L:
            r = (d + ell) % modulus
            if counts[r]:
                return False
            counts[r] = 1
    return True


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
