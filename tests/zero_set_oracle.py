"""The transform's zero set, component by component: a test oracle.

Component k is N^{s_k} * bold_b(k) * w / t'_k over integers w prime to
N. The package decides orthogonality by one valuation lookup per
distinct difference (spectra._zero_set_table); these scans decide
membership one component at a time, from the definitions.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from moran.errors import HorizonError
from moran.numthy import _valuation_unchecked


@dataclass(frozen=True)
class ZeroSetComponent:
    """One exactly-described component of the transform's zero set.

    The component is scale * w / denominator over integers w coprime
    to the prime. Membership of a rational is a divisibility question.
    """

    index: int
    scale: Fraction
    denominator: int
    prime: int

    def contains(self, xi) -> bool:
        quotient = Fraction(xi) * self.denominator / self.scale
        return quotient.denominator == 1 and quotient.numerator % self.prime != 0


def zero_set_component(sys, k: int) -> ZeroSetComponent:
    sk = sys.skeleton
    return ZeroSetComponent(
        index=k,
        scale=Fraction(sys.N) ** sk.s(k) * sk.bold_b(k),
        denominator=sk.t_free(k),
        prime=sys.N,
    )


def zero_set_member(sys, xi, horizon: Optional[int] = None) -> Optional[int]:
    """Smallest component index containing xi, or a certified None.

    The component at index k has magnitude at least B_k / (N t_k), so
    once B_k exceeds N * t_max * |xi| no later component can contain
    xi and the scan stops with a proof. An explicit horizon turns an
    unfinished scan into a horizon error instead.
    """
    xi = Fraction(xi)
    sk = sys.skeleton
    N = sys.N
    t_max = max(abs(v) for v in sys.t.all_values())
    as_int = xi.denominator == 1
    if as_int and xi != 0:
        e, u0 = _valuation_unchecked(xi.numerator, N)
    abs_xi = abs(xi)
    k = 1
    while True:
        if horizon is not None and k > horizon:
            raise HorizonError(f"zero-set scan passed the horizon {horizon} uncertified")
        B = sys.b_product(k)
        if Fraction(abs(B), N * t_max) > abs_xi:
            return None
        if xi != 0:
            if as_int:
                if sk.s(k) == e and (u0 * sk.t_free(k)) % sk.bold_b(k) == 0:
                    return k
            else:
                q = xi * sk.t_free(k) / (Fraction(N) ** sk.s(k) * sk.bold_b(k))
                if q.denominator == 1 and q.numerator % N != 0:
                    return k
        k += 1
