"""Line-bundle cohomology combinatorics on G/B.

Weights live in fundamental-weight coordinates, so the i-th coordinate
is the pairing with the i-th simple coroot and reflection i subtracts
that coordinate times column i of the Cartan matrix.  In the bundle
convention used throughout, the weight delta (all ones) labels the
trivial bundle and dominant regular weights put all cohomology in
degree zero.

Dimensions come from the Weyl dimension formula; the product over
positive coroots divides exactly, which is checked rather than
rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, require
from .weyl import WeylGroup

IntegralWeight = tuple[int, ...]


def _check_weight(g: WeylGroup, lam) -> IntegralWeight:
    lam = tuple(lam)
    # type(c) is int: bool is an int subclass, and True is no coordinate
    if len(lam) != g.rank or not all(type(c) is int for c in lam):
        raise InvalidInputError(
            f"weight must be {g.rank} integers, got {lam!r}")
    return lam


def reflect_weight(g: WeylGroup, i: int, lam: IntegralWeight) -> IntegralWeight:
    """s_i(lam) = lam - lam_i * alpha_i in fundamental coordinates."""
    c = g.rs.cartan_matrix
    li = lam[i]
    return tuple(lam[k] - li * c[k][i] for k in range(g.rank))


def weyl_act(g: WeylGroup, w: int, lam) -> IntegralWeight:
    """w(lam), applying the reduced word right to left."""
    lam = _check_weight(g, lam)
    g._check_id(w)
    for i in reversed(g.reduced_word(w)):
        lam = reflect_weight(g, i, lam)
    return lam


@dataclass(frozen=True)
class WeightClass:
    regular: bool
    w: int | None                    # element with w(lam) strictly dominant
    dominant_form: IntegralWeight    # the dominant orbit representative


def classify_weight(g: WeylGroup, lam) -> WeightClass:
    """Walk lam to its dominant orbit representative.

    Reflecting at a negative coordinate strictly increases the pairing
    with the dual Weyl vector, so the walk terminates.  A zero
    coordinate at the end means the orbit has no strictly dominant
    member (not regular); otherwise the accumulated element is the
    unique w with w(lam) strictly dominant.
    """
    lam = _check_weight(g, lam)
    v = lam
    w = 0
    while True:
        i = next((i for i in range(g.rank) if v[i] < 0), None)
        if i is None:
            break
        v = reflect_weight(g, i, v)
        w = g.left_mult_gen(i, w)
    if any(c == 0 for c in v):
        return WeightClass(regular=False, w=None, dominant_form=v)
    require(weyl_act(g, w, lam) == v, "w(lam) is not the dominant form")
    return WeightClass(regular=True, w=w, dominant_form=v)


def weyl_dimension(g: WeylGroup, mu) -> int:
    """Dimension of the irreducible representation with highest weight mu."""
    mu = _check_weight(g, mu)
    if any(c < 0 for c in mu):
        raise InvalidInputError("highest weight must be dominant")
    num = den = 1
    for coroot in g.rs.coroots:
        num *= sum(d * (m + 1) for d, m in zip(coroot, mu))
        den *= sum(coroot)
    q, r = divmod(num, den)
    require(r == 0 and q > 0, "Weyl dimension formula is not a positive integer")
    return q


@dataclass(frozen=True)
class BBWReport:
    """Cohomology of one equivariant line bundle on G/B."""

    lam: IntegralWeight
    all_vanish: bool
    degree: int | None               # the single non-vanishing degree
    highest_weight: IntegralWeight | None
    dimension: int | None

    def to_json(self) -> dict:
        return {
            "weight": list(self.lam),
            "all_vanish": self.all_vanish,
            "degree": self.degree,
            "highest_weight": None if self.highest_weight is None
            else list(self.highest_weight),
            "dimension": self.dimension,
        }


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


@dataclass(frozen=True)
class SheafCaseReport:
    """Case analysis for line-bundle cohomology of a quotient manifold.

    Valid in degrees [0, k), where k comes from the measure-vanishing
    hypothesis on the limit set.  zero_below: degrees [0, zero_below)
    vanish.  group_window: degrees [a, b) where H^i equals the group
    cohomology H^{i - degree} of Gamma with the G/B cohomology module.
    vanishing_window: the part of the group window beyond the
    cohomological dimension of Gamma, where that cohomology is zero.
    """

    case: str                        # "i", "ii", "iii", or "iv"
    k: int
    cd: int | None
    degree: int | None               # l(w) for regular weights
    zero_below: int
    group_window: tuple[int, int] | None
    vanishing_window: tuple[int, int] | None

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "k": self.k,
            "cd": self.cd,
            "degree": self.degree,
            "zero_below": self.zero_below,
            "group_window": None if self.group_window is None
            else list(self.group_window),
            "vanishing_window": None if self.vanishing_window is None
            else list(self.vanishing_window),
        }


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
    if k < 1:
        raise InvalidInputError("need k >= 1")
    if cd is not None and cd < 0:
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
