"""Candidate spectrum construction with exact verification.

Levels are assembled block by block. Each block is a direct sum of scaled
digit copies whose coefficients depend on how the level exponents
interleave with their carried indices, and every nonzero block element
picks up one integer offset chosen so the infinite tail of the transform
stays certifiably away from zero. Orthogonality and completeness checks
run on exact integers; floats appear only inside certified tail bounds.
"""

import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import (
    DomainError,
    HorizonError,
    MoranError,
    PreconditionError,
    ResourceError,
    UnsupportedCaseError,
)
from .fourier import TailKernel, _residue_products, _shifted_factor
from .numthy import _valuation_unchecked
from .system import (
    CaseI,
    CaseII,
    MoranSystem,
    Undetermined,
    Violated,
    alpha_true,
    breakpoint_predicate,
    case_classify,
    frak_n,
    normalize,
    spectral_hypothesis_check,
)
from .tiling import ELEMENT_CAP, _over_cap, aggregate

_FACTOR_FLOOR = 1e-6


@dataclass(frozen=True)
class SpectrumBuildParams:
    """Tunable thresholds for offset search and certification.

    C gates the offset search (certified tail modulus must exceed it), K
    bounds the offset window, sigma0 is the neighborhood radius for
    breakpoint admissibility, epsilon0 is the tail floor demanded of
    finished levels, and depth is the tail truncation length.
    """

    C: float = 1e-3
    K: int = 32
    sigma0: Union[Fraction, float] = Fraction(1, 4)
    epsilon0: float = 1e-4
    depth: int = 16

    def __post_init__(self):
        # chained comparisons, so nan fails them and a Fraction or a huge
        # int is compared exactly rather than converted to a float
        if not (0 < self.C < math.inf and 0 < self.epsilon0 < math.inf):
            raise DomainError("thresholds must be positive and finite")
        if self.K < 1 or self.depth < 1:
            raise DomainError("search window and depth must be >= 1")
        if not 0 < self.sigma0 < math.inf:
            raise DomainError("the neighborhood radius must be positive and finite")


@dataclass(frozen=True)
class SpectrumBlock:
    """One direct-sum block covering the index range (k1, k2].

    coefficients[i] belongs to index k1+1+i; elements are the raw digit
    sums before any offset; anchor is the product length whose scale
    multiplies offsets; offsets, once filled, align with elements and
    keep the zero element at offset zero. factor_floor records the
    smallest carried factor modulus observed between k2 and the anchor.
    """

    k1: int
    k2: int
    coefficients: tuple
    elements: tuple
    anchor: int
    offsets: Optional[tuple] = None
    factor_floor: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.k1 < 0 or self.k2 < self.k1:
            raise DomainError("block range must satisfy 0 <= k1 <= k2")
        if self.anchor < self.k2:
            raise DomainError("anchor must be at least the block end")
        if len(self.coefficients) != self.k2 - self.k1:
            raise DomainError("need one coefficient per index in the range")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("block elements must be distinct")
        if 0 not in self.elements:
            raise DomainError("the zero element anchors every block")
        if self.offsets is not None:
            object.__setattr__(self, "offsets", tuple(self.offsets))
            if len(self.offsets) != len(self.elements):
                raise DomainError("need one offset per element")
            if self.offsets[self.elements.index(0)] != 0:
                raise DomainError("the zero element must keep offset zero")


@dataclass(frozen=True)
class SpectrumLevel:
    """A candidate spectrum for one finite level of the measure.

    breakpoints starts at 0 and records every block end; level counts the
    blocks. scale_exponent m means emitted elements describe the original
    system after division by N^m. Verification flags stay None until the
    corresponding check has run.
    """

    level: int
    breakpoints: tuple
    elements: tuple
    scale_exponent: int = 0
    blocks: tuple = ()
    orthogonal: Optional[bool] = None
    complete: Optional[bool] = None
    tail_bound: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.breakpoints or self.breakpoints[0] != 0:
            raise DomainError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise DomainError("breakpoints must strictly increase")
        if self.level != len(self.breakpoints) - 1:
            raise DomainError("level must equal the number of blocks")
        if len(self.blocks) != self.level:
            raise DomainError("need one block record per level step")
        if 0 not in self.elements:
            raise DomainError("0 must belong to every level")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise DomainError("elements must be sorted and distinct")


def trivial_level(scale_exponent: int = 0) -> SpectrumLevel:
    return SpectrumLevel(0, (0,), (0,), scale_exponent)


@dataclass(frozen=True)
class QGridReport:
    max_deviation: float
    argmax: float
    passed: bool
    tol: float


# -- block construction ----------------------------------------------------


def omega_split(sys: MoranSystem, k1: int, k2: int, alpha: int):
    """Split (k1, k2] by whether a carried free product stays small.

    An index j joins the first part when the largest upcoming digit free
    part times the free product at j's carried index stays strictly below
    the free product at k2+1; everything else joins the second part. The
    comparison is exact integer arithmetic.
    """
    if k1 < 0 or k2 < k1:
        raise DomainError("range must satisfy 0 <= k1 <= k2")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    if k2 == k1:
        return ((), ())
    sk = sys.skeleton
    tmax = max((abs(sk.t_free(k2 + i)) for i in range(1, alpha + 1)), default=0)
    bound = abs(sk.bold_b(k2 + 1))
    first, second = [], []
    for j in range(k1 + 1, k2 + 1):
        if tmax * abs(sk.bold_b(frak_n(sys, j))) < bound:
            first.append(j)
        else:
            second.append(j)
    return (tuple(first), tuple(second))


def build_block(sys: MoranSystem, k1: int, k2: int, case, alpha: int) -> SpectrumBlock:
    """Assemble the direct-sum block on (k1, k2]; offsets come later.

    Coefficients are all one when later exponents dominate infinitely
    often; otherwise indices split and carry either a sign or a product
    of digit free parts up to the anchor. Every coefficient stays coprime
    to the base, so the digit sums are pairwise distinct whenever the
    level exponents are.
    """
    if k1 < 0 or k2 < k1:
        raise DomainError("range must satisfy 0 <= k1 <= k2")
    extended = isinstance(case, CaseII)
    anchor = k2 + alpha if extended else k2
    count = sys.N ** (k2 - k1)
    if count > ELEMENT_CAP:
        raise ResourceError(f"block would hold {count} elements, above {ELEMENT_CAP}")
    sk = sys.skeleton
    indices = range(k1 + 1, k2 + 1)
    carried = {j: frak_n(sys, j) for j in indices}
    for j in indices:
        if sk.s(j) < 0:
            raise PreconditionError(
                f"level exponent s_{j} = {sk.s(j)} is negative; normalize first"
            )
        if carried[j] > anchor:
            raise PreconditionError(
                f"anchor {anchor} sits below carried index {carried[j]} of "
                f"level {j}; {k2} is not an admissible block end"
            )
    small = set(omega_split(sys, k1, k2, alpha)[0]) if extended else set()
    coeffs = []
    for j in indices:
        if not extended:
            c = 1
        elif j in small:
            c = (-1) ** sk.s(j)
        else:
            c = 1
            for i in range(carried[j] + 1, k2 + alpha + 1):
                c *= sk.b_free(i)
        if c % sys.N == 0:
            raise MoranError(f"coefficient at level {j} shares a factor with the base")
        coeffs.append(c)
    sums = [0]
    for j, c in zip(indices, coeffs):
        g = sys.N ** sk.s(j) * sk.bold_b(carried[j]) * c
        sums = [a + d * g for a in sums for d in range(sys.N)]
    if len(set(sums)) != count:
        raise MoranError(
            f"digit sums collide inside block ({k1}, {k2}]; level exponents "
            "cannot be pairwise distinct"
        )
    return SpectrumBlock(k1, k2, tuple(coeffs), tuple(sorted(sums)), anchor)


# -- offset search ---------------------------------------------------------


def _window_order(K):
    yield 0
    for z in range(1, K + 1):
        yield z
        yield -z


def _qualifying_offset(tails, params):
    """First offset z in window order whose tail lower bounds all clear C.

    tails(z) yields the (value, err) pairs to certify at offset z.
    """
    best_z = None
    best_lower = None
    best_pair = (0.0, 0.0)
    for z in _window_order(params.K):
        worst = None
        pair = (0.0, 0.0)
        for value, err in tails(z):
            lower = abs(value) - err
            if worst is None or lower < worst:
                worst = lower
                pair = (abs(value), err)
            if lower <= params.C:
                break
        if worst > params.C:
            return z
        if best_lower is None or worst > best_lower:
            best_z, best_lower, best_pair = z, worst, pair
    raise ResourceError(
        f"equi-positivity search failed: best offset {best_z} pins the tail "
        f"modulus inside [{best_pair[0] - best_pair[1]:.4g}, "
        f"{best_pair[0] + best_pair[1]:.4g}] against threshold {params.C}; "
        f"enlarge the window K={params.K} or lower C"
    )


# -- level assembly --------------------------------------------------------


def build_level(
    sys: MoranSystem,
    prev: SpectrumLevel,
    k_prev: int,
    k_next: int,
    case,
    params: Optional[SpectrumBuildParams] = None,
) -> SpectrumLevel:
    """Extend a verified level by one block ending at k_next.

    Each nonzero block element receives a single offset certified against
    every element of the previous level, and the zero element keeps
    offset zero so the previous level embeds unchanged.
    """
    params = params or SpectrumBuildParams()
    if k_prev != prev.breakpoints[-1]:
        raise PreconditionError(
            f"previous level ends at {prev.breakpoints[-1]}, not {k_prev}"
        )
    if k_next < k_prev:
        raise DomainError("block end must not precede the previous one")
    if k_next == k_prev:
        return prev
    if len(prev.elements) != sys.N ** k_prev:
        raise PreconditionError("previous level is incomplete")
    alpha = alpha_true(sys) if isinstance(case, CaseII) else 0
    block = build_block(sys, k_prev, k_next, case, alpha)
    Bm = sys.b_product(block.anchor)
    tail = TailKernel(sys, block.anchor, params.depth)

    def tails(shift):
        # the tail at (lp + shift) / Bm for every lp, in one batch
        values, errs = tail.exact_many([lp + shift for lp in prev.elements], Bm)
        return zip(values.tolist(), errs.tolist())

    offsets = []
    out = []
    for lam_b in block.elements:
        if lam_b == 0:
            z = 0
        else:
            z = _qualifying_offset(lambda z: tails(lam_b + z * Bm), params)
        offsets.append(z)
        shifted = lam_b + Bm * z
        out.extend(lp + shifted for lp in prev.elements)
    if len(set(out)) != len(out):
        raise MoranError(
            f"offset block sums collide with the previous level on "
            f"({k_prev}, {k_next}]"
        )
    block = replace(block, offsets=tuple(offsets))
    return SpectrumLevel(
        level=prev.level + 1,
        breakpoints=prev.breakpoints + (k_next,),
        elements=tuple(sorted(out)),
        scale_exponent=prev.scale_exponent,
        blocks=prev.blocks + (block,),
    )


# -- verification ----------------------------------------------------------


def _zero_set_table(sys: MoranSystem, k: int, reach: int) -> dict:
    """Level-k zero-set components keyed by their N-power exponent.

    Component j is N^{s_j} * bold_b(j) * w / t'_j over integers w prime
    to N, so an integer N^e * u lies in it exactly when s_j = e and
    bold_b(j) divides u * t'_j. Every member has modulus at least
    |B_j| / (N |t_j|), so indices with |B_j| > N * t_max * reach cannot
    contain a difference of size at most reach and are left out.
    """
    sk = sys.skeleton
    limit = sys.N * max(abs(v) for v in sys.t.all_values()) * reach
    table = {}
    for j in range(1, k + 1):
        if abs(sys.b_product(j)) > limit:
            break
        table.setdefault(sk.s(j), []).append((sk.t_free(j), sk.bold_b(j)))
    return table


def _first_witness(elems, N: int, table):
    """The pair walk over sorted elems: (False, d) for the first positive
    difference d, in sorted pair order, that no component of table holds,
    else (True, None). Its N-adic valuation names the components to try."""
    seen = set()
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            diff = b - a
            if diff in seen:
                continue
            seen.add(diff)
            e, u = _valuation_unchecked(diff, N)
            if not any(u * t % bb == 0 for t, bb in table.get(e, ())):
                return (False, diff)
    return (True, None)


def _tree_orthogonal(elems, N: int, table) -> bool:
    """Is every difference of two elems in the zero set, when each
    exponent of table has one component? Decided on the N-adic digit tree,
    with no pairs.

    bold_b is N-free, so a difference of valuation e lies in component
    (t', bold_b) iff g_e = bold_b / gcd(bold_b, t') divides it. Two
    elements differ by valuation e iff they share a class mod N^e but not
    mod N^(e+1). So the set passes iff no two elements agree mod N^(m+1),
    m the largest exponent, and every class mod N^e that meets two or more
    classes mod N^(e+1) has e in table and is constant mod g_e.
    """
    depth = max(table, default=-1) + 1
    if depth <= 0:
        return False
    res = [a % N**depth for a in elems]
    classes = set(res)
    if len(classes) < len(res):
        return False
    for e in range(depth - 1, -1, -1):
        mod = N**e
        children = Counter(c % mod for c in classes)
        if len(children) < len(classes):
            if e not in table:
                return False
            ((t, bb),) = table[e]
            g = bb // math.gcd(bb, t)
            split = {c for c, n in children.items() if n > 1}
            pairs = {(p, a % g) for a, r in zip(elems, res) if (p := r % mod) in split}
            if len(pairs) > len(split):
                return False
        classes = children.keys()
    return True


def verify_orthogonal(sys: MoranSystem, lam, k: int):
    """Exact pairwise-difference membership in the level-k zero set.

    Returns (True, None), or (False, witness) with the first positive
    difference, in sorted pair order, that misses every component up to
    index k. The verdict comes from the digit tree (_tree_orthogonal) in
    O(|lam| * depth); the pair walk runs only to name a witness, or when
    two components share an exponent.
    """
    try:
        elems = sorted(map(operator.index, lam))
    except TypeError:
        raise DomainError("candidate spectra must have integer elements") from None
    if len(set(elems)) != len(elems):
        raise DomainError("candidate spectra must have distinct elements")
    if len(elems) < 2:
        return (True, None)
    table = _zero_set_table(sys, k, elems[-1] - elems[0])
    if all(len(c) == 1 for c in table.values()) and _tree_orthogonal(elems, sys.N, table):
        return (True, None)
    return _first_witness(elems, sys.N, table)


def verify_spectrum_finite(sys: MoranSystem, lam, k: int) -> bool:
    """Is lam an exact spectrum of the level-k measure?

    The level-k measure needs its full atom count for the dimension
    argument, so colliding digit sums are a precondition failure. Given
    that, an orthogonal family of maximal cardinality is a basis.
    """
    if not aggregate(sys, k).direct:
        raise PreconditionError(
            f"the level-{k} digit sums collide; completeness is undefined"
        )
    if len(set(lam)) != sys.N ** k:
        return False
    return verify_orthogonal(sys, lam, k)[0]


def verify_tail_lower_bound(sys: MoranSystem, lam, k: int, params: Optional[SpectrumBuildParams] = None):
    """Certify the tail modulus beyond level k on every scaled integer
    element, from one batch of exact tails.

    Returns (ok, bound, witness): bound is the smallest certified lower
    value over lam, witness the offending element when ok is False.
    """
    params = params or SpectrumBuildParams()
    B = sys.b_product(k)
    tail = TailKernel(sys, k, params.depth)
    lam = list(lam)
    if not lam:
        return (True, math.inf, None)
    values, errs = tail.exact_many(lam, B)
    lower = np.hypot(values.real, values.imag) - errs
    i = int(np.argmin(lower))  # the first smallest, as a strict < scan keeps
    ok = lower[i] >= params.epsilon0
    return (bool(ok), float(lower[i]), None if ok else lam[i])


def level_checks(work: MoranSystem, elements, k: int, params: Optional[SpectrumBuildParams] = None, prev=None):
    """The checks every certified level passes, for the builder and the
    certificate replay alike.

    Returns the (name, ok, detail) rows for cardinality, nesting (when
    prev, the elements of the level before, is given), orthogonality and
    the tail, in that order, and the certified tail lower bound. A failed
    tail row names the element that set the bound.
    """
    params = params or SpectrumBuildParams()
    distinct = set(elements)
    rows = [("cardinality", len(distinct) == work.N**k, f"{len(distinct)} distinct elements, expected {work.N ** k}")]
    if prev is not None:
        missing = [x for x in prev if x not in distinct]
        rows.append(("nesting", not missing, f"element {missing[0]} of the level before is missing" if missing else None))
    try:
        orth, witness = verify_orthogonal(work, elements, k)
        detail = None if orth else f"difference {witness} is not a transform zero"
    except DomainError as exc:
        orth, detail = False, str(exc)
    rows.append(("orthogonality", orth, detail))
    ok, bound, witness = verify_tail_lower_bound(work, elements, k, params)
    detail = (
        f"tail lower bound {bound:.4g} below epsilon0={params.epsilon0} at "
        f"element {witness}; increase depth or adjust thresholds"
    )
    rows.append(("tail", ok, None if ok else detail))
    return rows, bound


def extension_factor_floor(sys: MoranSystem, block: SpectrumBlock) -> float:
    """Smallest carried factor modulus between the block end and anchor.

    Infinite when the anchor coincides with the block end; the driver
    fails loudly when this drops to the hard floor, since the offset
    certificates lean on these factors staying away from zero.
    """
    alpha = block.anchor - block.k2
    if alpha == 0:
        return math.inf
    worst = math.inf
    for i in range(1, alpha + 1):
        factor = ((sys.t_entry(block.k2 + i), sys.b_product(block.k2 + i)),)
        values = _residue_products(sys.N, factor, block.elements, 1)
        worst = min(worst, float(np.hypot(values.real, values.imag).min()))
    return worst


def q_sum(sys: MoranSystem, lam, k: int, xs: np.ndarray) -> np.ndarray:
    """The completeness functional: sum over lam of |mu_hat_k(x + lam)|^2
    at every point x of the float array xs.

    Shifts by the elements go through exact modular reduction per
    factor, so large elements cost no precision. Factor j depends on an
    element only through its residue mod B_j, and B_{j-1} divides B_j, so
    the product of factors 1..j depends only on that residue: the
    products form a tree over the residues. The walk goes depth first,
    lam[0]'s path first, and evaluates each node's factor once, holding
    only the rows on the current path. The leaves are summed in the order
    of lam, so the sum has the bits of the per-element loop over
    mu_hat_shifted_grid.
    """
    xs = np.asarray(xs, dtype=float)
    if k < 0:
        raise DomainError(f"level must be >= 0, got {k}")
    top = float(np.abs(xs).max(initial=0.0))
    Bs = [sys.b_product(j) for j in range(1, k + 1)]
    paths = [tuple(int(v) % B for B in Bs) for v in lam]
    # siblings in order of first appearance in lam, so lam[0]'s path leads
    first = [{} for _ in Bs]
    keys = [tuple(seen.setdefault(r, i) for seen, r in zip(first, path)) for i, path in enumerate(paths)]
    rows = [np.ones(xs.shape, dtype=complex)]  # the products along the current path
    leaves = [None] * len(paths)
    prev = None
    for i in sorted(range(len(paths)), key=keys.__getitem__):
        path = paths[i]
        if path != prev:
            # an equal residue mod B_j means equal residues below j too
            depth = 0 if prev is None else next(j for j, (a, b) in enumerate(zip(prev, path)) if a != b)
            del rows[depth + 1 :]
            for j in range(depth + 1, k + 1):
                # in place, as mu_hat_shifted_grid multiplies: numpy may
                # round a one-point out-of-place product differently
                row = rows[-1].copy()
                row *= _shifted_factor(sys, j, xs, path[j - 1], top)
                rows.append(row)
            leaf = np.abs(rows[-1]) ** 2
            prev = path
        leaves[i] = leaf
    total = np.zeros(xs.shape)
    for leaf in leaves:
        total += leaf
    return total


def q_grid_check(sys: MoranSystem, lam, k: int, grid, tol: float) -> QGridReport:
    """Evaluate the completeness functional on a float grid and report
    the worst deviation from one."""
    xs = np.asarray(list(grid), dtype=float)
    if xs.size == 0:
        raise DomainError("grid must be nonempty")
    dev = np.abs(q_sum(sys, lam, k, xs) - 1.0)
    i = int(np.argmax(dev))
    return QGridReport(float(dev[i]), float(xs[i]), bool(dev[i] <= tol), float(tol))


# -- drivers ---------------------------------------------------------------


def _next_breakpoint(sys, case, prev, m0, params):
    """The first block end k past prev and not below m0 with the peak of
    prev within sigma0 * |B_k|; in case I also every s_j with j > k above
    every earlier one. |B_k| grows without bound and case I meets that
    certified predicate at infinitely many k, so the search ends."""
    peak = max(abs(e) for e in prev.elements)
    k = max(prev.breakpoints[-1], m0 - 1) + 1
    while Fraction(peak, abs(sys.b_product(k))) > params.sigma0 or (
        isinstance(case, CaseI) and not breakpoint_predicate(sys, k)
    ):
        k += 1
    return k


def _verify_level(work, level, params, prev):
    rows, bound = level_checks(work, level.elements, level.breakpoints[-1], params, prev)
    for name, ok, detail in rows:
        if not ok:
            # a tail below epsilon0 is a limit of the thresholds, not a refusal
            raise ResourceError(detail) if name == "tail" else MoranError(
                f"built level fails its {name} check: {detail}"
            )
    blocks = level.blocks
    newest = blocks[-1]
    if newest.anchor > newest.k2:
        floor = extension_factor_floor(work, newest)
        if floor <= _FACTOR_FLOOR:
            raise MoranError(
                f"carried factor modulus {floor:.3g} at or below "
                f"{_FACTOR_FLOOR}; the coefficient choice is unsound here"
            )
        blocks = blocks[:-1] + (replace(newest, factor_floor=floor),)
    return replace(
        level, orthogonal=True, complete=True, tail_bound=bound, blocks=blocks
    )


def _check_level_size(N: int, k: int):
    """Refuse a level of N^k elements over ELEMENT_CAP before it is
    formed, by the rule the certificate replay applies."""
    if _over_cap(N, k, ELEMENT_CAP):
        raise ResourceError(f"level at k = {k} would hold {N}^{k} elements, over the cap {ELEMENT_CAP}")


def _drive(work, case, m0, blocks, params, scale_exponent):
    levels = [trivial_level(scale_exponent)]
    for i in range(blocks):
        prev = levels[-1]
        if isinstance(case, CaseII) and i == 0:
            k_next = max(case.k0, m0)
        else:
            k_next = _next_breakpoint(work, case, prev, m0, params)
        _check_level_size(work.N, k_next)
        level = build_level(work, prev, prev.breakpoints[-1], k_next, case, params)
        levels.append(_verify_level(work, level, params, prev.elements if prev.level else None))
    return tuple(levels[1:])


def _admission(sys):
    work, m_extra = normalize(sys)
    hyp = spectral_hypothesis_check(work)
    if isinstance(hyp, Violated):
        where = (
            f"index {hyp.k} violates it inside the repeating part"
            if hyp.certified
            else f"the finite prefix violates it at index {hyp.k} and at its horizon {work.horizon}"
        )
        raise UnsupportedCaseError(f"tail certification needs |b_k| > (N-1)|t_k| for all large k; {where}")
    return work, m_extra, hyp.m0


def build_spectrum(sys: MoranSystem, n: int, params: Optional[SpectrumBuildParams] = None):
    """Drive the full construction: classify, pick block ends, verify.

    Returns the built levels in order. When later exponents dominate
    infinitely often, exactly n levels come back; otherwise a base level
    leads and n extension levels follow it. Construction and checks run
    on the scale-normalized system, and scale_exponent on every level
    records the power of N dividing emitted elements back down.
    """
    params = params or SpectrumBuildParams()
    if n < 1:
        raise DomainError("need at least one level")
    _check_level_size(sys.N, n)  # level n ends at k_n >= n
    work, m_extra, m0 = _admission(sys)
    case = case_classify(work)  # refuses colliding level exponents
    if isinstance(case, Undetermined):
        raise HorizonError(f"cannot classify the system: {case.reason}")
    plan = n if isinstance(case, CaseI) else n + 1
    return _drive(work, case, m0, plan, params, m_extra)

