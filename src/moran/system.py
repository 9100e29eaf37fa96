"""System model: (N, {b_k}, {t_k}) with eventually periodic sequence specs.

The integer skeleton s_k = tau_N(b_1...b_k) - tau_N(t_k) - 1 drives every
tiling and spectral decision in the package. For eventually periodic
sequences s has one normal form: with preperiod P, period p, preperiod
values pre = (s_1..s_P), class values c_r = s_{P+r} (r = 1..p) and drift
D = v_N(b_{P+1}...b_{P+p}) >= 0,

    s_{P+r+qp} = c_r + q*D    for every q >= 0.

Every "for every k" question about s (distinctness, tail minima, the
last index not above s_k, the global minimum) is a question about the
arithmetic progressions c_r + qD and the finite list pre, answered in
closed form without a window.

Conventions: sequences are 1-based; b products written B_k mean b_1*...*b_k;
"prefix mode" means a finite sequence with a declared horizon and no claims
beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Optional, Union

from .errors import (
    DomainError,
    HorizonError,
    PreconditionError,
    UnsupportedCaseError,
)
from .numthy import _valuation_unchecked, check_prime_base

_PREFIX_CERT_MARGIN = 12


@dataclass(frozen=True)
class SequenceSpec:
    """An integer sequence given as preperiod + repeating period, or as a
    finite prefix (period empty) with horizon = len(preperiod)."""

    preperiod: tuple = ()
    period: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        for a in self.preperiod + self.period:
            if not isinstance(a, int):
                raise DomainError(f"sequence entries must be integers, got {a!r}")
            if a == 0:
                raise DomainError("sequence entries must be nonzero")

    @classmethod
    def periodic(cls, period, preperiod=()) -> "SequenceSpec":
        if not period:
            raise DomainError("period must be nonempty")
        return cls(tuple(preperiod), tuple(period))

    @classmethod
    def prefix(cls, entries) -> "SequenceSpec":
        return cls(tuple(entries), ())

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    @property
    def horizon(self) -> Optional[int]:
        """None for periodic specs (all indices defined), else the last index."""
        return None if self.period else len(self.preperiod)

    def entry(self, k: int) -> int:
        if k < 1:
            raise DomainError(f"sequence index must be >= 1, got {k}")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        if not self.period:
            raise HorizonError(
                f"index {k} beyond finite prefix horizon {len(self.preperiod)}"
            )
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def all_values(self) -> tuple:
        return self.preperiod + self.period


@dataclass
class MoranSystem:
    """A system (N, b, t) defining digit sets D_k = {0,...,N-1} * t_k and the
    infinite convolution of the uniform measures on D_k / (b_1...b_k).

    normalized_exponent is 0 for raw systems; normalize() returns a system
    whose b_1 absorbed N^m and records m here.
    """

    N: int
    b: SequenceSpec
    t: SequenceSpec
    normalized_exponent: int = 0
    _skel: "SSkeleton" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_prime_base(self.N)
        for v in self.b.all_values():
            if abs(v) < 2:
                raise DomainError(f"|b_k| >= 2 required, got {v}")
        for v in self.t.all_values():
            if abs(v) < 1:
                raise DomainError(f"|t_k| >= 1 required, got {v}")

    @property
    def skeleton(self) -> "SSkeleton":
        if self._skel is None:
            self._skel = SSkeleton(self)
        return self._skel

    @property
    def is_periodic(self) -> bool:
        return self.b.is_periodic and self.t.is_periodic

    @property
    def horizon(self) -> Optional[int]:
        hs = [h for h in (self.b.horizon, self.t.horizon) if h is not None]
        return min(hs) if hs else None

    def b_entry(self, k: int) -> int:
        return self.b.entry(k)

    def t_entry(self, k: int) -> int:
        return self.t.entry(k)

    def b_product(self, k: int) -> int:
        return self.skeleton.b_product(k)


class SSkeleton:
    """Per-index cache of s_k, N-free parts b'_k / t'_k, their products
    bold_b_k, and for periodic specs the normal form (P, p, drift, pre,
    c) of the module docstring.

    The memo lists are append-only and filled on demand; an extension
    appends to each list in turn, so instances are not safe to share
    between threads.
    """

    def __init__(self, sys: MoranSystem):
        self.sys = sys
        self._tau_b = [0]  # tau_N(b_1..b_k) at index k
        self._bprod = [1]  # b_1..b_k
        self._bold = [1]  # b'_1..b'_k
        self._s = [None]
        self._b_free = [None]
        self._t_free = [None]
        self._head_max = [None]
        self.P = self.p = self.drift = self.pre = self.c = None
        if sys.is_periodic:
            P = self.P = max(len(sys.b.preperiod), len(sys.t.preperiod))
            p = self.p = lcm(len(sys.b.period), len(sys.t.period))
            self._extend(P + p)
            self.drift = self._tau_b[P + p] - self._tau_b[P]
            self.pre = tuple(self._s[1 : P + 1])
            self.c = tuple(self._s[P + 1 : P + p + 1])

    @property
    def is_periodic(self) -> bool:
        return self.sys.is_periodic

    def _extend(self, k: int) -> None:
        N = self.sys.N
        while len(self._s) <= k:
            i = len(self._s)
            b_i = self.sys.b.entry(i)  # raises HorizonError past a prefix
            t_i = self.sys.t.entry(i)
            eb, ub = _valuation_unchecked(b_i, N)
            et, ut = _valuation_unchecked(t_i, N)
            self._tau_b.append(self._tau_b[-1] + eb)
            self._bprod.append(self._bprod[-1] * b_i)
            self._bold.append(self._bold[-1] * ub)
            s_i = self._tau_b[-1] - et - 1
            self._s.append(s_i)
            self._b_free.append(ub)
            self._t_free.append(ut)
            prev = self._head_max[-1]
            self._head_max.append(s_i if prev is None else max(prev, s_i))

    def s(self, k: int) -> int:
        if k < 1:
            raise DomainError(f"index must be >= 1, got {k}")
        self._extend(k)
        return self._s[k]

    def tau_b_prefix(self, k: int) -> int:
        self._extend(k)
        return self._tau_b[k]

    def b_product(self, k: int) -> int:
        self._extend(k)
        return self._bprod[k]

    def bold_b(self, k: int) -> int:
        if k < 1:
            raise DomainError(f"index must be >= 1, got {k}")
        self._extend(k)
        return self._bold[k]

    def b_free(self, k: int) -> int:
        self._extend(k)
        return self._b_free[k]

    def t_free(self, k: int) -> int:
        self._extend(k)
        return self._t_free[k]

    def head_max(self, k: int) -> int:
        """max of s_1..s_k."""
        self._extend(k)
        return self._head_max[k]

    def distinct_all(self) -> bool:
        """Whether s_1, s_2, ... are pairwise distinct over ALL indices.

        Periodic specs only. Two class progressions c_r + qD and
        c_r' + q'D (q, q' >= 0) meet iff D = 0 or c_r = c_r' (mod D), and
        a preperiod value v lies on c_r + qD iff v = c_r (mod D) and
        v >= c_r; so the s_k are distinct iff D > 0, pre has no repeat,
        the c_r are distinct mod D, and no such v exists.
        """
        D = self.drift
        if D == 0 or len(set(self.pre)) < len(self.pre):
            return False
        if len({c % D for c in self.c}) < len(self.c):
            return False
        return not any(v >= c and (v - c) % D == 0 for v in self.pre for c in self.c)

    def first_repeat(self, n: Optional[int] = None):
        """The first pair (i, j), i < j <= n, with s_i = s_j, or None.

        Pairs are ordered by j, so the scan reads s no further than the
        first repeat. A periodic system that distinct_all() clears has no
        repeat at any n and is not scanned; any other periodic system has
        a repeat, so its scan ends there however large n is, and n = None
        (no bound, periodic specs only) finds it. This is the one
        distinctness scan: the tiling decision, its complement and
        distinctness_check all use it.
        """
        if self.is_periodic and self.distinct_all():
            return None
        first_seen = {}
        for j in count(1) if n is None else range(1, n + 1):
            v = self.s(j)
            if v in first_seen:
                return first_seen[v], j
            first_seen[v] = j
        return None

    def report_window(self) -> int:
        """How far analyze reports the case classification, drift > 0.

        With R the spread of s over [1, P+2p], the preperiod plus
        ceil(R/D) + 4 periods: past P + (ceil(R/D) + 3) periods every
        comparison of s is decided by the drift, so the last period
        shown repeats forever.
        """
        D = self.drift
        R = max(self.pre + tuple(c + D for c in self.c)) - min(self.pre + self.c)
        return self.P + (-(-R // D) + 4) * self.p

    def tail_min(self, k: int) -> int:
        """min{s_j : j > k}, exact: the least of pre[k:] and, on each
        class r, c_r + q_r*D at the first q_r >= 0 with P + r + q_r*p > k
        (the progression never falls, D >= 0)."""
        if not self.is_periodic:
            raise HorizonError("tail minimum undecidable for finite prefix")
        P, p, D = self.P, self.p, self.drift
        firsts = (c + max(0, (k - P - r) // p + 1) * D for r, c in enumerate(self.c, 1))
        return min((*self.pre[k:], *firsts))

    def min_s(self) -> int:
        """Global minimum of s: min(pre + c) for periodic specs (the
        progressions never fall), the minimum up to the horizon for a
        prefix (0 for an empty one)."""
        if self.is_periodic:
            return min(self.pre + self.c)
        return min((self.s(k) for k in range(1, self.sys.horizon + 1)), default=0)


# -- result types ----------------------------------------------------------


@dataclass(frozen=True)
class Distinct:
    window: Optional[int]  # None: decided for all k


@dataclass(frozen=True)
class Collision:
    i: int
    j: int


@dataclass(frozen=True)
class CaseI:
    breakpoints: tuple
    window: int
    period: int
    certified: bool = True


@dataclass(frozen=True)
class CaseII:
    k0: int
    window: int
    certified: bool = True


@dataclass(frozen=True)
class Undetermined:
    reason: str


@dataclass(frozen=True)
class Converges:
    partial_sum: Fraction
    tail_bound: Fraction
    depth: int


@dataclass(frozen=True)
class Unknown:
    partial_sum: Fraction
    depth: int


@dataclass(frozen=True)
class Satisfied:
    m0: int
    certified: bool = True


@dataclass(frozen=True)
class Violated:
    k: int
    certified: bool = True


# -- operations ------------------------------------------------------------


def s_value(sys: MoranSystem, k: int) -> int:
    """s_k = tau_N(b_1...b_k) - tau_N(t_k) - 1; may be negative for raw systems."""
    return sys.skeleton.s(k)


def default_window(sys: MoranSystem) -> int:
    sk = sys.skeleton
    if sys.is_periodic:
        return max(sk.P + 2 * sk.p, 12)
    return sys.horizon


def distinctness_check(
    sys: MoranSystem, window: Optional[int] = None
) -> Union[Distinct, Collision]:
    """Decide whether the s_k are pairwise distinct.

    Periodic specs are decided for ALL indices by SSkeleton.distinct_all,
    in closed form; a system it refuses has a repeat, and the scan ends at
    the first one. Prefix specs are reported on the window only.
    Collision carries the smallest witnessing pair (smallest j, then i).
    """
    sk = sys.skeleton
    if sys.is_periodic:
        return Distinct(None) if sk.distinct_all() else Collision(*sk.first_repeat())
    scan_to = sys.horizon if window is None else min(window, sys.horizon)
    pair = sk.first_repeat(scan_to)
    return Distinct(scan_to) if pair is None else Collision(*pair)


def breakpoint_predicate(sys: MoranSystem, k: int) -> bool:
    """True iff min{s_j : j > k} > max{s_j : j <= k} (certified tail min)."""
    sk = sys.skeleton
    return sk.tail_min(k) > sk.head_max(k)


def case_classify(
    sys: MoranSystem,
    window: Optional[int] = None,
    check: Union[Distinct, Collision, None] = None,
) -> Union[CaseI, CaseII, Undetermined]:
    """Classify the system by whether later s eventually dominate earlier s.

    Relies on the verdicts being eventually periodic: in the last period of
    SSkeleton.report_window() both the running head maximum and the exact
    tail minimum gain exactly drift per period, so the pattern over that
    period is the pattern forever. The breakpoints are listed up to that
    window, or to window if it is larger. A caller that already holds the
    distinctness_check verdict passes it as check, and it is not decided
    again.
    """
    if check is None:
        check = distinctness_check(sys)
    if isinstance(check, Collision):
        raise PreconditionError(
            f"s-values collide at ({check.i}, {check.j}); classification "
            "requires distinctness"
        )
    if not sys.is_periodic:
        return Undetermined("finite prefix: tail behavior beyond horizon unknown")
    L, p = sys.skeleton.report_window(), sys.skeleton.p
    report_to = max(window or 0, L)
    bps = tuple(k for k in range(1, report_to + 1) if breakpoint_predicate(sys, k))
    if any(L - p < k <= L for k in bps):
        return CaseI(bps, report_to, p)
    return CaseII(max(bps, default=0) + 1, L)


def frak_n(sys: MoranSystem, k: int, margin: Optional[int] = None) -> int:
    """max{j >= k : s_k >= s_j}, certified finite.

    Periodic specs with positive drift read it off the normal form: the
    largest of k, the preperiod indices j with s_j <= s_k, and on each
    class r with c_r <= s_k its last index P + r + floor((s_k - c_r)/D)*p
    not above s_k. Prefix specs certify only s_j > s_k on a trailing
    margin inside the horizon and refuse when the margin does not fit.
    """
    sk = sys.skeleton
    sv = sk.s(k)
    if sys.is_periodic:
        P, p, D = sk.P, sk.p, sk.drift
        if D == 0:
            raise PreconditionError(
                "zero period drift: s repeats, frak_n is unbounded or "
                "distinctness already fails"
            )
        in_pre = [j for j, v in enumerate(sk.pre, 1) if v <= sv]
        on_classes = [P + r + (sv - c) // D * p for r, c in enumerate(sk.c, 1) if c <= sv]
        return max([k, *in_pre, *on_classes])
    H = sys.horizon
    margin = _PREFIX_CERT_MARGIN if margin is None else margin
    best = k
    for j in range(k, H + 1):
        if sk.s(j) <= sv:
            best = j
    if best + margin > H:
        raise HorizonError(
            f"horizon insufficient: cannot certify s_j > s_{k} past j={best} "
            f"(margin {margin} exceeds horizon {H})"
        )
    return best


def alpha_true(sys: MoranSystem) -> int:
    """The true sup of frak_n(k) - k for a periodic rule.

    With positive drift the quantity is constant on each residue class
    past the preperiod (the whole comparison picture shifts by one
    period), so the maximum over preperiod + two periods is the true
    supremum.
    """
    if not sys.is_periodic:
        raise HorizonError("true alpha requires a periodic scale rule")
    sk = sys.skeleton
    return max(frak_n(sys, k) - k for k in range(1, sk.P + 2 * sk.p + 1))


def _tail_ratio_sum(sys: MoranSystem, k: int, M: int) -> Fraction:
    """Exact value of sum over n > M of |t_{k+n}| / |b_{k+1} ... b_{k+n}|.

    Entries may be negative, so magnitudes are summed; that is what the
    truncation bound needs. Head terms are added one by one until the
    indices k+n sit past the preperiod; from there one period block is
    summed and the rest is geometric with ratio one over the period
    product of |b|, which is at least 2 since every |b_k| >= 2.
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


def existence_check(sys: MoranSystem, depth: int) -> Union[Converges, Unknown]:
    """Does sum N |t_k| / |b_1...b_k| converge, so that the measure exists?

    Periodic systems always converge, and the split at depth is exact:
    the tail past depth is N times _tail_ratio_sum(sys, 0, depth), and
    the partial sum is the whole series less that tail. A prefix system
    only gets its partial sum over the first depth terms, which must lie
    within its horizon.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    N = sys.N
    if sys.is_periodic:
        tail = N * _tail_ratio_sum(sys, 0, depth)
        return Converges(N * _tail_ratio_sum(sys, 0, 0) - tail, tail, depth)
    partial = sum(
        (Fraction(N * abs(sys.t_entry(k)), abs(sys.b_product(k))) for k in range(1, depth + 1)),
        Fraction(0),
    )
    return Unknown(partial, depth)


def normalize(sys: MoranSystem):
    """Scale b_1 by N^m, m = max(0, -min_k s_k), so all s-values become
    nonnegative.

    If nu(E) := mu(N^m E) then nu is the system with b_1 replaced by
    N^m b_1 (same digits), nu_hat(xi) = mu_hat(xi / N^m), and Lambda is a
    spectrum of mu iff N^m Lambda is a spectrum of nu; spectra built for the
    returned system are divided by N^m on output. SSkeleton.min_s gives
    the global minimum of s, read off the normal form.
    """
    for v in sys.b.all_values():
        if v < 2:
            raise UnsupportedCaseError("normalize requires b_k >= 2")
    for v in sys.t.all_values():
        if v < 1:
            raise UnsupportedCaseError("normalize requires t_k >= 1")
    sk = sys.skeleton
    m = max(0, -sk.min_s())
    if m == 0:
        return (replace(sys, _skel=None), 0)
    Nm = sys.N ** m
    b = sys.b
    if b.preperiod:
        new_b = SequenceSpec((Nm * b.preperiod[0],) + b.preperiod[1:], b.period)
    else:
        new_b = SequenceSpec((Nm * b.period[0],), b.period[1:] + b.period[:1])
    sysn = MoranSystem(sys.N, new_b, sys.t, normalized_exponent=m)
    return (sysn, m)


def hypothesis_holds_from(sys: MoranSystem, start: int):
    """Check |b_k| > (N-1)|t_k| for every k >= start; returns the first
    violating index or None. Periodic specs certify the infinite tail by
    scanning through one full period past max(start, preperiod)."""
    N = sys.N
    if sys.is_periodic:
        sk = sys.skeleton
        upto = max(start, sk.P) + sk.p
    else:
        upto = sys.horizon
    for k in range(start, upto + 1):
        if abs(sys.b.entry(k)) <= (N - 1) * abs(sys.t.entry(k)):
            return k
    return None


def spectral_hypothesis_check(sys: MoranSystem) -> Union[Satisfied, Violated]:
    """Does |b_k| > (N-1)|t_k| hold for all k past some m_0?

    Periodic specs are decided exactly: a violation inside the periodic part
    recurs forever (no m_0 exists), otherwise m_0 is one past the last
    preperiod violation. Prefix specs report on the window, uncertified,
    and a violation at the horizon reports the first one.
    """
    bad = []
    while (k := hypothesis_holds_from(sys, bad[-1] + 1 if bad else 1)) is not None:
        if sys.is_periodic and k > sys.skeleton.P:
            return Violated(k)
        bad.append(k)
    if bad and bad[-1] == sys.horizon:
        return Violated(bad[0], certified=False)
    return Satisfied(bad[-1] + 1 if bad else 1, certified=sys.is_periodic)
