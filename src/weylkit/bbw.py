"""Line-bundle cohomology combinatorics on G/B.

Weights live in fundamental-weight coordinates, so the i-th coordinate
is the pairing with the i-th simple coroot and reflection i subtracts
that coordinate times column i of the Cartan matrix; the reflection and
the walk to the dominant chamber are RootSystem's weight kernel.  In
the bundle convention used throughout, the weight delta (all ones)
labels the trivial bundle and dominant regular weights put all
cohomology in degree zero.

Dimensions come from the Weyl dimension formula; the product over
positive coroots divides exactly, which is checked rather than
rounded.
"""

from __future__ import annotations

from math import log10

from .errors import (DIGIT_BUDGET, DIGIT_LIMIT, BudgetExceededError,
                     InvalidInputError, Record, checked_int, clip, require)
from .weyl import WeylGroup

IntegralWeight = tuple[int, ...]


def _check_weight(g: WeylGroup, lam) -> IntegralWeight:
    lam = tuple(lam)
    # type(c) is int: bool is an int subclass, and True is no coordinate
    if len(lam) != g.rank or not all(type(c) is int for c in lam):
        raise InvalidInputError(
            f"weight must be {g.rank} integers, got {clip(lam)}")
    return lam


def weyl_act(g: WeylGroup, w: int, lam) -> IntegralWeight:
    """w(lam), applying the reduced word right to left."""
    lam = _check_weight(g, lam)
    for i in reversed(g.reduced_word(w)):
        lam = g.rs.reflect_weight(i, lam)
    return lam


class WeightClass(Record):
    def __init__(self, regular: bool, w: int | None,
                 dominant_form: IntegralWeight) -> None:
        self.regular = regular
        self.w = w                    # element with w(lam) strictly dominant
        self.dominant_form = dominant_form    # the dominant orbit rep


def classify_weight(g: WeylGroup, lam) -> WeightClass:
    """Walk lam to its dominant orbit representative (dominant_walk).

    A zero coordinate at the end means the orbit has no strictly
    dominant member (not regular); otherwise the walk's element is the
    unique w with w(lam) strictly dominant.
    """
    lam = _check_weight(g, lam)
    letters, v = g.rs.dominant_walk(lam)
    if any(c == 0 for c in v):
        return WeightClass(regular=False, w=None, dominant_form=v)
    # w = s_ik ... s_i1 for the letters i1, ..., ik in walk order
    w = g.word_to_id(letters[::-1])
    require(weyl_act(g, w, lam) == v, "w(lam) is not the dominant form")
    return WeightClass(regular=True, w=w, dominant_form=v)


def weyl_dimension(g: WeylGroup, mu) -> int:
    """Dimension of the irreducible representation with highest weight mu.

    The product over the positive coroots a of <mu + delta, a> / <delta, a>
    has every factor at least 1, so its running value never falls: once
    it passes DIGIT_LIMIT the weight is refused, and the digit count the
    refusal states is summed in logarithms.
    """
    mu = _check_weight(g, mu)
    if any(c < 0 for c in mu):
        raise InvalidInputError("highest weight must be dominant")
    num = den = 1
    for coroot in g.rs.coroots:
        num *= sum(d * (m + 1) for d, m in zip(coroot, mu))
        den *= sum(coroot)
        if num >= DIGIT_LIMIT and num >= den * DIGIT_LIMIT:
            digits = 1 + int(sum(
                log10(sum(d * (m + 1) for d, m in zip(c, mu))) - log10(sum(c))
                for c in g.rs.coroots))
            raise BudgetExceededError(
                f"Weyl dimension of {clip(mu)} has about {digits} digits "
                f"> budget {DIGIT_BUDGET}")
    q, r = divmod(num, den)
    require(r == 0 and q > 0, "Weyl dimension formula is not a positive integer")
    return q


class BBWReport(Record):
    """Cohomology of one equivariant line bundle on G/B."""

    _json_keys = {"lam": "weight"}

    def __init__(self, lam: IntegralWeight, all_vanish: bool,
                 degree: int | None, highest_weight: IntegralWeight | None,
                 dimension: int | None) -> None:
        self.lam = lam
        self.all_vanish = all_vanish
        self.degree = degree          # the single non-vanishing degree
        self.highest_weight = highest_weight
        self.dimension = dimension


def bbw_cohomology(g: WeylGroup, lam) -> BBWReport:
    """Degree, highest weight, and dimension of H*(G/B, L^lam).

    Non-regular weights have no cohomology at all; for regular lam the
    unique non-zero group sits in degree l(w) and is dual to the
    irreducible representation with highest weight w(lam) - delta.
    """
    lam = _check_weight(g, lam)
    cls = classify_weight(g, lam)
    if not cls.regular:
        return BBWReport(lam=lam, all_vanish=True, degree=None,
                         highest_weight=None, dimension=None)
    mu = tuple(c - 1 for c in cls.dominant_form)
    return BBWReport(lam=lam, all_vanish=False, degree=g.length[cls.w],
                     highest_weight=mu, dimension=weyl_dimension(g, mu))


class SheafCaseReport(Record):
    """Case analysis for line-bundle cohomology of a quotient manifold.

    Valid in degrees [0, k), where k comes from the measure-vanishing
    hypothesis on the limit set.  zero_below: degrees [0, zero_below)
    vanish.  group_window: degrees [a, b) where H^i equals the group
    cohomology H^{i - degree} of Gamma with the G/B cohomology module.
    vanishing_window: the part of the group window beyond the
    cohomological dimension of Gamma, where that cohomology is zero.
    """

    def __init__(self, case: str, k: int, cd: int | None,
                 degree: int | None, zero_below: int,
                 group_window: tuple[int, int] | None,
                 vanishing_window: tuple[int, int] | None) -> None:
        self.case = case              # "i", "ii", "iii", or "iv"
        self.k = k
        self.cd = cd
        self.degree = degree          # l(w) for regular weights
        self.zero_below = zero_below
        self.group_window = group_window
        self.vanishing_window = vanishing_window


def sheaf_cohomology_cases(g: WeylGroup, lam, k: int,
                           cd: int | None = None) -> SheafCaseReport:
    """Which case of the quotient-cohomology theorem applies below k.

    Cases: (i) non-regular weights vanish on [0, k); (ii) so do regular
    ones whose dominant-making element has length at least k (the
    boundary length-equals-k case carries the same conclusion); (iii)
    shorter w gives group cohomology of Gamma on [l(w), k); (iv) is the
    dominant case l(w) = 0.  With the cohomological dimension of Gamma
    supplied, the tail of the group window beyond cd + l(w) vanishes.
    """
    lam = _check_weight(g, lam)
    if checked_int("k", k) < 1:
        raise InvalidInputError("need k >= 1")
    if cd is not None and checked_int("cd", cd) < 0:
        raise InvalidInputError("cohomological dimension must be >= 0")
    cls = classify_weight(g, lam)
    if not cls.regular:
        return SheafCaseReport(case="i", k=k, cd=cd, degree=None,
                               zero_below=k, group_window=None,
                               vanishing_window=None)
    lw = g.length[cls.w]
    if lw >= k:
        return SheafCaseReport(case="ii", k=k, cd=cd, degree=lw,
                               zero_below=k, group_window=None,
                               vanishing_window=None)
    window = (lw, k)
    vanish = None
    if cd is not None and cd + lw + 1 < k:
        vanish = (cd + lw + 1, k)
    return SheafCaseReport(case="iv" if lw == 0 else "iii", k=k, cd=cd,
                           degree=lw, zero_below=lw, group_window=window,
                           vanishing_window=vanish)
