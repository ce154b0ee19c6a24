"""Chevalley-Bruhat order, ideals, and balanced-ideal enumeration.

Covering relations come from reflections: x is covered by y when x = yt
for a reflection t and l(x) = l(y) - 1.  The full order is stored as
dense per-element bitmasks (Python ints) built by rank propagation:
down[y] collects everything reachable downward from y.  Above the dense
size limit the masks are skipped and comparisons fall back to a memoized
recursion on the lifting property.

An ideal is a downward-closed subset, stored as a membership bitmask.
The orthogonal is I^perp = w0(W \\ I); an ideal is slim / fat / balanced
according to I contained in / containing / equal to I^perp.  Balanced
ideals are enumerated by backtracking over the pairs {x, w0 x}, seeded
with the small elements (x <= w0 x), which every fat ideal contains;
each result is then certified once, in one pass over its members.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .cartan import CartanType, RootSystem, build_root_system, \
    component_coxeter_number
from .errors import BudgetExceededError, InvalidInputError, require
from .weyl import Word, WeylGroup, _compose, generate

DENSE_LIMIT_DEFAULT = 50000
ENUM_BUDGET_DEFAULT = 1152


def enumeration_budget() -> int:
    """Max |W| for balanced enumeration; WEYLKIT_MAX_ORDER overrides."""
    env = os.environ.get("WEYLKIT_MAX_ORDER")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInputError(
                f"WEYLKIT_MAX_ORDER must be an integer, got {env!r}") from exc
    return ENUM_BUDGET_DEFAULT


@dataclass
class BruhatOrder:
    g: WeylGroup
    reflections: list[int]            # element ids, indexed by positive root
    covers: list[list[int]]           # covers[y] = ids covered by y
    upper: list[list[int]]            # transpose of covers
    down: list[int] | None            # down[y] = bitmask of {x : x <= y}
    up: list[int] | None              # up[x] = bitmask of {y : y >= x}
    _leq_memo: dict[tuple[int, int], bool] = field(default_factory=dict)

    @property
    def full_mask(self) -> int:
        return (1 << self.g.order) - 1


def build_order(g: WeylGroup, dense_limit: int = DENSE_LIMIT_DEFAULT) -> BruhatOrder:
    """Covers from reflections, then reachability masks by rank propagation."""
    reflections = _reflection_elements(g)
    root_of = {}
    for t in reflections:
        act = g.acts[t]
        sent = [j for j, v in enumerate(act) if v == -(j + 1)]
        require(len(sent) == 1, "reflection must negate exactly its own root")
        root_of[sent[0]] = t
    require(len(root_of) == g.n_positive,
            "reflections and positive roots do not match one to one")
    refl_by_root = [root_of[j] for j in range(g.n_positive)]
    refl_acts = [g.acts[t] for t in refl_by_root]

    covers: list[list[int]] = [[] for _ in range(g.order)]
    for y in range(g.order):
        ay = g.acts[y]
        ly = g.length[y]
        found = []
        for j in range(g.n_positive):
            if ay[j] < 0:  # l(y t_j) < l(y)
                z = g.id_of_act(_compose(ay, refl_acts[j]))
                if g.length[z] == ly - 1:
                    found.append(z)
        found.sort()
        covers[y] = found

    upper: list[list[int]] = [[] for _ in range(g.order)]
    for y, cs in enumerate(covers):
        for x in cs:
            upper[x].append(y)
    for lst in upper:
        lst.sort()

    down = up = None
    if g.order <= dense_limit:
        by_len = sorted(range(g.order), key=lambda x: (g.length[x], x))
        down = [0] * g.order
        for y in by_len:
            m = 1 << y
            for z in covers[y]:
                m |= down[z]
            down[y] = m
        up = [0] * g.order
        for x in reversed(by_len):
            m = 1 << x
            for z in upper[x]:
                m |= up[z]
            up[x] = m

    return BruhatOrder(g=g, reflections=refl_by_root, covers=covers,
                       upper=upper, down=down, up=up)


def _reflection_elements(g: WeylGroup) -> list[int]:
    """Closure of the generators under conjugation: all reflections."""
    found = set(g.generators)
    queue = list(g.generators)
    while queue:
        t = queue.pop()
        for i in range(g.rank):
            u = g.left_mult_gen(i, g.rmult[t][i])  # s_i t s_i
            if u not in found:
                found.add(u)
                queue.append(u)
    require(len(found) == g.n_positive, "reflection count differs from |Sigma^+|")
    return sorted(found)


def leq(o: BruhatOrder, x: int, y: int) -> bool:
    """x <= y in the Chevalley-Bruhat order."""
    g = o.g
    g._check_id(x)
    g._check_id(y)
    if o.down is not None:
        return bool(o.down[y] >> x & 1)
    return _leq_lifting(o, x, y)


def _leq_lifting(o: BruhatOrder, x: int, y: int) -> bool:
    """Memoized recursion on the lifting property (mask-free fallback)."""
    g = o.g
    if x == y:
        return True
    if g.length[x] >= g.length[y]:
        return False
    key = (x, y)
    cached = o._leq_memo.get(key)
    if cached is not None:
        return cached
    s = min(g.right_descents(y))
    ys = g.rmult[y][s]
    xs = g.rmult[x][s]
    if g.length[xs] < g.length[x]:
        res = _leq_lifting(o, xs, ys)
    else:
        res = _leq_lifting(o, x, ys)
    o._leq_memo[key] = res
    return res


def subword_ideal_mask(o: BruhatOrder, y: int) -> int:
    """{products of subwords of a reduced word for y} as a mask.

    By the subword criterion this is the principal ideal of y; it is
    computed without the covers/mask machinery, so it serves as an
    independent oracle for leq.
    """
    g = o.g
    reach = {0}
    for i in g.reduced_word(y):
        reach |= {g.rmult[x][i] for x in reach}
    m = 0
    for x in reach:
        m |= 1 << x
    return m


# ---------------------------------------------------------------------------
# Ideals

@dataclass(frozen=True)
class Ideal:
    """A downward-closed subset of W as a membership bitmask."""

    g: WeylGroup
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def members(self) -> list[int]:
        m, out = self.mask, []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out


def is_downward_closed(o: BruhatOrder, mask: int) -> bool:
    for y in Ideal(o.g, mask).members():
        for x in o.covers[y]:
            if not mask >> x & 1:
                return False
    return True


def make_ideal(o: BruhatOrder, mask: int) -> Ideal:
    if not is_downward_closed(o, mask):
        raise InvalidInputError("member set is not downward closed")
    return Ideal(o.g, mask)


def principal_ideal(o: BruhatOrder, x: int) -> Ideal:
    o.g._check_id(x)
    if o.down is not None:
        return Ideal(o.g, o.down[x])
    return Ideal(o.g, subword_ideal_mask(o, x))


def ideal_from_elements(o: BruhatOrder, xs) -> Ideal:
    """Union of principal ideals: the ideal generated by xs."""
    m = 0
    for x in xs:
        m |= principal_ideal(o, x).mask
    return Ideal(o.g, m)


def minimal_generators(o: BruhatOrder, ideal: Ideal) -> list[int]:
    """Maximal elements of the ideal, sorted by (length, id).

    An element of a downward-closed set is non-maximal exactly when one
    of its upper covers is in the set.
    """
    if not is_downward_closed(o, ideal.mask):
        raise InvalidInputError("not an ideal")
    g = o.g
    gens = [x for x in ideal.members()
            if not any(ideal.mask >> y & 1 for y in o.upper[x])]
    gens.sort(key=lambda x: (g.length[x], x))
    require(ideal_from_elements(o, gens).mask == ideal.mask,
            "maximal elements do not regenerate the ideal")
    return gens


def orthogonal(o: BruhatOrder, ideal: Ideal) -> Ideal:
    """I^perp = w0 (W \\ I); downward-closedness of the result is checked."""
    g = o.g
    if not is_downward_closed(o, ideal.mask):
        raise InvalidInputError("not an ideal")
    comp = ideal.mask ^ o.full_mask
    m = 0
    for x in Ideal(g, comp).members():
        m |= 1 << g.w0_left(x)
    require(is_downward_closed(o, m), "orthogonal failed to be an ideal")
    return Ideal(g, m)


@dataclass(frozen=True)
class IdealClass:
    slim: bool
    fat: bool

    @property
    def balanced(self) -> bool:
        return self.slim and self.fat


def classify(o: BruhatOrder, ideal: Ideal) -> IdealClass:
    perp = orthogonal(o, ideal).mask
    m = ideal.mask
    return IdealClass(slim=(m & ~perp) == 0, fat=(perp & ~m) == 0)


# ---------------------------------------------------------------------------
# Small elements

def is_small(o: BruhatOrder, x: int) -> bool:
    """x <= w0 x."""
    return leq(o, x, o.g.w0_left(x))


@dataclass(frozen=True)
class ShortSmallReport:
    cartan_type: CartanType
    max_length: int
    all_small: bool
    witnesses: tuple[Word, ...]      # non-small elements as canonical words
    expected_all_small: bool         # what the length<=L theorem predicts


def short_small_expected(rs: RootSystem, max_length: int) -> bool:
    """Predicted all_small value for elements of length <= L.

    L=1 holds exactly when no connected component is A1 (h = 2); L=2
    additionally excludes A2, A3, B2, which are exactly the components
    with Coxeter number at most 4.
    """
    min_h = min(component_coxeter_number(rs, c) for c in rs.components)
    return min_h >= (3 if max_length == 1 else 5)


def verify_short_small(t: CartanType, max_length: int) -> ShortSmallReport:
    """Check smallness of every element of length <= max_length."""
    if max_length not in (1, 2):
        raise InvalidInputError("max_length must be 1 or 2")
    rs = build_root_system(t)
    g = generate(rs)
    o = build_order(g)
    witnesses = []
    for x in range(g.order):
        if 0 < g.length[x] <= max_length and not is_small(o, x):
            witnesses.append(x)
    witnesses.sort(key=lambda x: (g.length[x], x))
    return ShortSmallReport(
        cartan_type=t,
        max_length=max_length,
        all_small=not witnesses,
        witnesses=tuple(g.reduced_word(x) for x in witnesses),
        expected_all_small=short_small_expected(rs, max_length),
    )


# ---------------------------------------------------------------------------
# Balanced-ideal enumeration

def _propagate(o: BruhatOrder, in_mask: int, out_mask: int,
               todo: list[tuple[int, bool]],
               coset_masks: list[int] | None) -> tuple[int, int] | None:
    """Force the pending (element, joins_I) decisions to their closure.

    Rules: I is downward closed; the complement is upward closed; exactly
    one of {x, w0 x} is in I; with an invariance constraint, membership
    is constant on right cosets.  Returns None on contradiction.
    """
    g = o.g
    down, up = o.down, o.up
    while todo:
        x, inside = todo.pop()
        if inside:
            add = down[x] & ~in_mask
            if not add:
                continue
            if add & out_mask:
                return None
            in_mask |= add
        else:
            add = up[x] & ~out_mask
            if not add:
                continue
            if add & in_mask:
                return None
            out_mask |= add
        for b in Ideal(g, add).members():
            todo.append((g.w0_left(b), not inside))
            if coset_masks is not None:
                rest = coset_masks[b] & ~(in_mask if inside else out_mask)
                for c in Ideal(g, rest).members():
                    todo.append((c, inside))
    return in_mask, out_mask


def enumerate_balanced(o: BruhatOrder, invariance=None,
                       max_order: int | None = None) -> list[Ideal]:
    """All balanced (optionally right-invariant) ideals, canonically sorted.

    Backtracking over the pairs {x, w0 x} in increasing length of the
    shorter member.  Seeds: every small element is forced into I (balanced
    ideals are fat, and fat ideals contain all small elements), and its
    w0-image out.  Each result is certified by _certify_balanced.  Output
    order: (generator count, generator word list).
    """
    g = o.g
    budget = enumeration_budget() if max_order is None else max_order
    if g.order > budget:
        raise BudgetExceededError(
            f"|W| = {g.order} exceeds enumeration budget {budget}")
    if o.down is None or o.up is None:
        raise InvalidInputError("enumeration needs the dense order masks")

    coset_masks = None
    if invariance is not None:
        if invariance.g is not g:
            raise InvalidInputError("invariance parabolic built on another group")
        coset_masks = [0] * g.order
        groups: dict[int, int] = {}
        for x in range(g.order):
            rep = invariance.coset_of[x]
            groups[rep] = groups.get(rep, 0) | 1 << x
        for x in range(g.order):
            coset_masks[x] = groups[invariance.coset_of[x]]

    todo: list[tuple[int, bool]] = []
    for x in range(g.order):
        px = g.w0_left(x)
        if leq(o, x, px):
            todo.append((x, True))
        elif leq(o, px, x):
            todo.append((x, False))
    seeded = _propagate(o, 0, 0, todo, coset_masks)
    if seeded is None:
        return []

    pairs = []
    taken = set()
    for x in sorted(range(g.order), key=lambda v: (g.length[v], v)):
        if x not in taken:
            px = g.w0_left(x)
            taken.add(x)
            taken.add(px)
            pairs.append(x)

    results = []
    stack = [(seeded[0], seeded[1], 0)]
    while stack:
        in_mask, out_mask, idx = stack.pop()
        while idx < len(pairs):
            x = pairs[idx]
            if not (in_mask >> x & 1 or out_mask >> x & 1):
                break
            idx += 1
        if idx == len(pairs):
            results.append((in_mask, out_mask))
            continue
        x = pairs[idx]
        for inside in (False, True):  # True popped first: IN branch first
            closed = _propagate(o, in_mask, out_mask, [(x, inside)], coset_masks)
            if closed is not None:
                stack.append((closed[0], closed[1], idx))

    keyed = []
    for in_mask, out_mask in results:
        gens = _certify_balanced(o, in_mask, out_mask, coset_masks)
        words = tuple(sorted(g.reduced_word(x) for x in gens))
        keyed.append(((len(gens), words), Ideal(g, in_mask)))
    keyed.sort(key=lambda item: item[0])
    return [ideal for _, ideal in keyed]


def _certify_balanced(o: BruhatOrder, in_mask: int, out_mask: int,
                      coset_masks: list[int] | None) -> list[int]:
    """Certify one search result in one pass; return its generators.

    Checks that the in- and out-masks together cover W, that 2|I| = |W|,
    that I is downward closed, that I = I^perp (equivalently w0 I is the
    complement of I), that I is a union of the cosets in coset_masks
    when given, and that the maximal elements regenerate I.  It reads
    the cover lists and the w0 table, not the reachability masks the
    search propagated with.
    """
    g = o.g
    require(in_mask | out_mask == o.full_mask,
            "search result leaves elements undecided")
    require(2 * in_mask.bit_count() == g.order,
            "search result does not hold half of W")
    below = w0_image = cosets = 0
    for y in Ideal(g, in_mask).members():
        for x in o.covers[y]:
            below |= 1 << x
        w0_image |= 1 << g.w0_left(y)
        if coset_masks is not None:
            cosets |= coset_masks[y]
    require(below & ~in_mask == 0, "search result is not downward closed")
    require(w0_image == in_mask ^ o.full_mask,
            "search result differs from its orthogonal")
    require(coset_masks is None or cosets == in_mask,
            "search result is not a union of cosets")
    # in a downward-closed set a member lies below another member exactly
    # when some member covers it, so the maximal ones are the uncovered
    gens = Ideal(g, in_mask & ~below).members()
    require(ideal_from_elements(o, gens).mask == in_mask,
            "maximal elements do not regenerate the ideal")
    return gens


# ---------------------------------------------------------------------------
# Serialization

def ideal_to_json_dict(o: BruhatOrder, ideal: Ideal) -> dict:
    gens = minimal_generators(o, ideal)
    return {
        "type": str(o.g.rs.cartan_type),
        "generators": sorted(list(o.g.reduced_word(x)) for x in gens),
    }


def ideal_from_json_dict(o: BruhatOrder, data) -> Ideal:
    """The ideal of a decoded ideal file: {"type": ..., "generators": [...]}.

    data comes from outside the program, so its shape is checked: an
    object whose generators are lists of integer letters.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("ideal must be a JSON object")
    if str(o.g.rs.cartan_type) != data.get("type"):
        raise InvalidInputError(
            f"ideal is for type {data.get('type')}, order is for {o.g.rs.cartan_type}")
    words = data.get("generators")
    if not isinstance(words, list) or not all(
            isinstance(w, list) and all(type(i) is int for i in w)
            for w in words):
        raise InvalidInputError(
            "ideal generators must be a list of words of integer letters")
    gens = [o.g.word_to_id(tuple(w)) for w in words]
    return ideal_from_elements(o, gens)
