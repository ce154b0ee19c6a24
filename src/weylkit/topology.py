"""Homological invariants of thickenings, domains, and quotients.

Everything here reduces to counting coset representatives by quotient
length.  Thickenings have free even homology with rank r_k in degree 2k
(r = length histogram of I/W_D, one popcount per length against the
masks of W^D); domains combine r(I) and r(I-perp); quotient manifolds
tensor with the surface homology (1, 2g, 1).  The ranks and the
orthogonal are computed once per ideal and parabolic (or order) and
kept on the Ideal, so the public functions below can each be called on
one ideal without redoing the others' work; that memo refuses an order
or parabolic of another group.

The closed-form Poincare polynomials are exact integer products of
t^2-integers [i] = 1 + t^2 + ... + t^(2i-2), with no division.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial, log10
from operator import add, and_

from .bruhat import BruhatOrder, Ideal, _cached, orthogonal
from .errors import (DIGIT_BUDGET, DIGIT_LIMIT, BudgetExceededError,
                     InvalidInputError, Record, checked_int, clip, require)
from .parabolic import ParabolicSubset, is_right_invariant


class GradedRanks(Record):
    """Ranks of a graded abelian group, indexed by real degree."""

    def __init__(self, ranks: tuple[int, ...]) -> None:
        if min(ranks, default=0) < 0:
            raise InvalidInputError("negative rank")
        self.ranks = ranks

    @staticmethod
    def from_even(even) -> "GradedRanks":
        """Rank even[k] in degree 2k, 0 in odd degrees, trimmed."""
        even = _trim(even)
        ranks = [0] * max(2 * len(even) - 1, 0)
        ranks[::2] = even
        return GradedRanks(tuple(ranks))

    def get(self, k: int) -> int:
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def even(self) -> tuple[int, ...]:
        return tuple(self.ranks[0::2])

    @property
    def total(self) -> int:
        return sum(self.ranks)

    @property
    def euler(self) -> int:
        return sum(r if k % 2 == 0 else -r for k, r in enumerate(self.ranks))

    def to_json(self) -> list[int]:
        return list(self.ranks)


def _trim(ranks) -> tuple[int, ...]:
    ranks = list(ranks)
    while ranks and ranks[-1] == 0:
        ranks.pop()
    return tuple(ranks)


def _ranks(ideal: Ideal, p: ParabolicSubset) -> tuple[int, ...]:
    """r_k(I) = |I & W^P of quotient length k|, k = 0..l(w0 W_P).

    Computed once per (ideal, p), the invariance check included.  An
    ideal that is not right-invariant is refused; _cached keeps nothing
    for a compute that raises, so it is refused every time.
    """
    return _cached(ideal, "_ranks", p, _count_ranks, ideal, p)


def _count_ranks(ideal: Ideal, p: ParabolicSubset) -> tuple[int, ...]:
    if not is_right_invariant(ideal, p):
        raise InvalidInputError("ideal is not right-invariant under W_P")
    return tuple(map(int.bit_count,
                     map(and_, repeat(ideal.mask), p.length_masks)))


def thickening_ranks(ideal: Ideal, p: ParabolicSubset) -> GradedRanks:
    """Homology of the model thickening: rank r_k in degree 2k."""
    return GradedRanks.from_even(_ranks(ideal, p))


def omega_betti(o: BruhatOrder, ideal: Ideal, p: ParabolicSubset) -> GradedRanks:
    """Betti numbers of the domain for a slim right-invariant ideal.

    b_2k = r_{n-1-k}(I) + r_k(I-perp) with n the top quotient length;
    odd Betti numbers vanish.  For balanced I this is r_k + r_{n-1-k}.
    """
    return GradedRanks.from_even(_omega_even(o, ideal, p))


def _omega_even(o: BruhatOrder, ideal: Ideal,
                p: ParabolicSubset) -> list[int]:
    """The even Betti numbers b_0, b_2, ... of omega_betti, untrimmed;
    I is refused unless slim, and I or I-perp unless invariant."""
    perp = orthogonal(o, ideal)
    if ideal.mask & ~perp.mask:
        raise InvalidInputError("ideal is not slim")
    # _ranks refuses an ideal or orthogonal that is not invariant
    r_i = _ranks(ideal, p)
    r_p = _ranks(perp, p)
    n = p.max_quotient_length
    return list(map(add, r_i[n - 1::-1], r_p[:n]))


def euler_omega(o: BruhatOrder, ideal: Ideal, p: ParabolicSubset) -> int:
    """Euler characteristic of the domain for balanced I: |W/W_P|.

    The even Betti numbers come from the helper of omega_betti, which
    refuses I unless slim and invariant; odd ones vanish, so they sum
    to the Euler characteristic.  A slim I (inside I^perp, of size
    |W| - |I|) is balanced exactly when 2|I| = |W|.
    """
    even = _omega_even(o, ideal, p)
    if 2 * ideal.size != p.g.order:
        raise InvalidInputError("ideal is not balanced")
    chi = p.n_cosets
    require(sum(even) == chi, "domain Betti numbers do not sum to |W/W_P|")
    return chi


def quotient_homology(omega: GradedRanks, genus: int) -> GradedRanks:
    """Tensor with the homology (1, 2g, 1) of a genus-g surface.

    The total rank, (2g + 2) times omega's, bounds every rank and the
    Euler characteristic; one past DIGIT_LIMIT is refused.
    """
    if checked_int("genus", genus) < 2:
        raise InvalidInputError("genus must be at least 2")
    if any(omega.ranks[1::2]):
        raise InvalidInputError("omega ranks must be supported in even degrees")
    total = (2 * genus + 2) * omega.total
    if total >= DIGIT_LIMIT:
        raise BudgetExceededError(
            f"quotient homology of genus {clip(genus)} has a total rank of "
            f"about {1 + int(log10(total))} digits > budget {DIGIT_BUDGET}")
    top = len(omega.ranks) + 1
    ranks = [omega.get(k) + 2 * genus * omega.get(k - 1) + omega.get(k - 2)
             for k in range(top + 1)]
    return GradedRanks(_trim(ranks))


def splitting_check(o: BruhatOrder, ideal: Ideal, p: ParabolicSubset) -> bool:
    """Coset counts of W/W_P split as r_k(I) + r_{n-k}(I-perp)."""
    perp = orthogonal(o, ideal)
    r_i = _ranks(ideal, p)
    r_p = _ranks(perp, p)
    return list(map(add, r_i, r_p[::-1])) == p._level_sizes


class HausdorffReport(Record):
    _json_keys = {"n": "complex_dim"}

    def __init__(self, bound: float, limit_curve_dim: float,
                 max_quotient_length: int, n: int, domain_nonempty: bool,
                 measure_2n_minus_2_vanishes: bool,
                 measure_2n_minus_4_vanishes: bool) -> None:
        self.bound = bound            # limit curve dim + 2 * max length
        self.limit_curve_dim = limit_curve_dim
        self.max_quotient_length = max_quotient_length
        self.n = n                    # complex dimension of G/P_D
        self.domain_nonempty = domain_nonempty    # bound < 2n
        self.measure_2n_minus_2_vanishes = measure_2n_minus_2_vanishes
        self.measure_2n_minus_4_vanishes = measure_2n_minus_4_vanishes


def hausdorff_bound(o: BruhatOrder, ideal: Ideal, p: ParabolicSubset,
                    limit_curve_dim: float = 1.0) -> HausdorffReport:
    """Upper bound for the Hausdorff dimension of the limit set.

    The bound is limit_curve_dim + 2 max length over I/W_P.  When it is
    below the real dimension 2n of G/P_D the domain is non-empty; two
    further thresholds flag vanishing (2n-2)- and (2n-4)-dimensional
    Hausdorff measure.  limit_curve_dim is an int or a float, not a
    bool, in [0, 2].
    """
    if (not isinstance(limit_curve_dim, (int, float))
            or isinstance(limit_curve_dim, bool)):
        raise InvalidInputError(
            f"limit curve dimension {clip(repr(limit_curve_dim))} "
            "is not a number")
    if not 0.0 <= limit_curve_dim <= 2.0:
        raise InvalidInputError("limit curve dimension must lie in [0, 2]")
    if ideal.mask & ~orthogonal(o, ideal).mask:
        raise InvalidInputError("ideal is not slim")
    maxlen = max(len(_trim(_ranks(ideal, p))) - 1, 0)
    n = p.max_quotient_length
    bound = limit_curve_dim + 2 * maxlen
    return HausdorffReport(
        bound=bound,
        limit_curve_dim=limit_curve_dim,
        max_quotient_length=maxlen,
        n=n,
        domain_nonempty=bound < 2 * n,
        measure_2n_minus_2_vanishes=bound < 2 * n - 2,
        measure_2n_minus_4_vanishes=bound < 2 * n - 4,
    )


# ---------------------------------------------------------------------------
# Exact polynomial closed forms

def _times_t2_integer(a: list[int], i: int) -> list[int]:
    """a * [i], where [i] = 1 + t^2 + ... + t^(2i-2).

    [i] (1 - t^2) = 1 - t^(2i), so out[k] = a[k] + out[k-2] - a[k-2i],
    with a read as 0 below its range.
    """
    out = a + [0] * (2 * i - 2)
    for k in range(2, len(out)):
        out[k] += out[k - 2] - (a[k - 2 * i] if k >= 2 * i else 0)
    return out


# the degree of flag_poincare(200)
POINCARE_MAX_DEGREE = 200 * 199


def _check_degree(degree: int) -> None:
    """Refuse a closed form above POINCARE_MAX_DEGREE before building it."""
    if degree > POINCARE_MAX_DEGREE:
        raise BudgetExceededError(f"Poincare polynomial degree {clip(degree)}"
                                  f" > budget {POINCARE_MAX_DEGREE}")


def flag_poincare(m: int) -> GradedRanks:
    """Poincare polynomial of the full flag variety of C^m: [2][3]...[m].

    Its degree is m(m-1).
    """
    if checked_int("m", m) < 1:
        raise InvalidInputError("need m >= 1")
    _check_degree(m * (m - 1))
    poly = [1]
    for i in range(2, m + 1):
        poly = _times_t2_integer(poly, i)
    return GradedRanks(_trim(poly))


def omega2n_closed_form(n: int) -> GradedRanks:
    """Closed-form Poincare polynomial of the principal-family domain.

    (1 + t^(2n-2)) [n] [2][3]...[2n-1], of degree (2n-2)(2n+1).
    """
    if checked_int("n", n) < 1:
        raise InvalidInputError("need n >= 1")
    _check_degree((2 * n - 2) * (2 * n + 1))
    poly = [1] + [0] * (2 * n - 3) + [1] if n > 1 else [2]  # 1 + t^(2n-2)
    poly = _times_t2_integer(poly, n)
    for k in range(2, 2 * n):
        poly = _times_t2_integer(poly, k)
    return GradedRanks(_trim(poly))


def incidence_betti(n: int, k: int) -> int:
    """Closed-form b_2k of the incidence-family domain in S_n."""
    if checked_int("n", n) < 2 or checked_int("k", k) < 0:
        raise InvalidInputError("need n >= 2 and k >= 0")
    if k == n - 2:
        return 2 * n - 2
    return max(0, n - 1 - abs(n - k - 2))


# ---------------------------------------------------------------------------
# Homotopy distinction of the two named families

class DistinctionReport(Record):
    def __init__(self, j: int, n: int, k: int, b_lower_half: int,
                 b_principal: int, strict: bool) -> None:
        self.j = j
        self.n = n                    # = 2j + 1; the group is S_2n
        self.k = k                    # middle length (l(w0) = 2k + 1)
        self.b_lower_half = b_lower_half    # b_2k of the lower-half domain
        self.b_principal = b_principal      # b_2k of the principal domain
        self.strict = strict


def homotopy_distinction(j: int) -> DistinctionReport:
    """Compare middle Betti numbers of the two domains over S_2n, n = 2j+1.

    l(w0) = n(2n-1) is odd and k = (l(w0) - 1)/2.  The lower-half
    domain's b_2k is twice the number of length-k elements of S_2n, a
    Mahonian number read off flag_poincare(2n) (Stanley, EC1 Sec. 1.3);
    the principal domain's is read off omega2n_closed_form(n).  Both
    polynomials must sum to (2n)!, counted by math.factorial.
    """
    if checked_int("j", j) < 1:
        raise InvalidInputError("need j >= 1")
    n = 2 * j + 1
    k = (n * (2 * n - 1) - 1) // 2
    flag = flag_poincare(2 * n)
    principal = omega2n_closed_form(n)
    require(flag.total == principal.total == factorial(2 * n),
            "a Poincare polynomial over S_2n does not sum to (2n)!")
    b_half = 2 * flag.get(2 * k)
    b_principal = principal.get(2 * k)
    return DistinctionReport(j=j, n=n, k=k, b_lower_half=b_half,
                             b_principal=b_principal, strict=b_principal < b_half)
