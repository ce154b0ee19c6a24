"""Chevalley-Bruhat order, ideals, and balanced-ideal enumeration.

Covering relations come from the BFS tree of the group table: with
y = p s for p its BFS parent, the covers of y are p and the lifts z s of
the covers z of p that s lengthens (the lifting property), so each cover
costs one table lookup.  The order is stored once, as
dense per-element bitmasks (Python ints) built by rank propagation:
down[y] collects everything reachable downward from y.  Nothing is kept
upward: x -> w0 x reverses the order, so {y : y >= x} = w0 down[w0 x].
Above the dense size limit the masks are skipped and a comparison is a
walk down y's BFS chain (lifting property), at most l(y) steps and no
state.

An ideal is a downward-closed subset, stored as a membership bitmask.
The orthogonal is I^perp = w0(W \\ I); an ideal is slim / fat / balanced
according to I contained in / containing / equal to I^perp.  Balanced
ideals are enumerated by backtracking over the pairs {x, w0 x}, seeded
with the small elements (x <= w0 x), which every fat ideal contains,
and propagated through down and w0 alone; each result is certified once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .cartan import CartanType, RootSystem, component_coxeter_number
from .errors import BudgetExceededError, InvalidInputError, require
from .weyl import Word, WeylGroup, build_group

DENSE_LIMIT_DEFAULT = 50000
ENUM_BUDGET_DEFAULT = 1152


def check_enumeration_budget(order: int, max_order: int | None = None) -> None:
    """Refuse |W| above max_order, else WEYLKIT_MAX_ORDER, else 1152."""
    budget = max_order
    if budget is None:
        env = os.environ.get("WEYLKIT_MAX_ORDER", str(ENUM_BUDGET_DEFAULT))
        try:
            budget = int(env)
        except ValueError as exc:
            raise InvalidInputError(
                f"WEYLKIT_MAX_ORDER must be an integer, got {env!r}") from exc
    if order > budget:
        raise BudgetExceededError(
            f"|W| = {order} exceeds enumeration budget {budget}")


def check_dense_masks(order: int, has_masks: bool | None = None) -> None:
    """Refuse enumeration without the dense order masks.

    has_masks says whether a built order has them.  Left out, it is
    decided from |W| as build_order decides at its default dense limit,
    so a caller can refuse from the type before building anything.
    """
    if has_masks is None:
        has_masks = order <= DENSE_LIMIT_DEFAULT
    if not has_masks:
        raise InvalidInputError("enumeration needs the dense order masks")


@dataclass
class BruhatOrder:
    g: WeylGroup
    reflections: list[int]            # element ids, indexed by positive root
    covers: list[list[int]]           # covers[y] = ids covered by y
    down: list[int] | None            # down[y] = bitmask of {x : x <= y}
    # no upward masks: {y : y >= x} is w0 down[w0 x].  Kept as None for
    # perfbench/tracing.py, which adds up the bytes of down and up.
    up = None

    @property
    def full_mask(self) -> int:
        return (1 << self.g.order) - 1


def build_order(g: WeylGroup, dense_limit: int = DENSE_LIMIT_DEFAULT) -> BruhatOrder:
    """Covers by descent recursion, then reachability masks by rank propagation.

    Let y = p s with p = bfs_parent[y] and s = bfs_letter[y], so s is a
    right descent of y.  Then

        covers(y) = {p} | {z s : z in covers(p), l(z s) > l(z)}.

    Lifting (Bjorner-Brenti, Prop. 2.2.7): if u < w and s is a right
    descent of w but not of u, then u s <= w and u <= w s.  Take x
    covered by y with x != p.  If s were not a descent of x, lifting
    would give x <= p, and l(x) = l(p) would force x = p; so s is a
    descent of x, and lifting applied to x s < y gives x s <= p with
    l(x s) = l(p) - 1: x = z s for a cover z of p with l(z s) > l(z).
    Conversely, for z covered by p with l(z s) > l(z), lifting applied
    to z < y gives z s <= y with l(z s) = l(y) - 1.  The map z -> z s is
    injective and never gives p, so the union has no repeats.  Parents
    have smaller ids, so the lists are built in id order.
    """
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

    rmult, length = g.rmult, g.length
    covers: list[list[int]] = [[]]
    for p, s in zip(g.bfs_parent[1:], g.bfs_letter[1:]):
        found = [p]
        for z in covers[p]:
            zs = rmult[z][s]
            if length[zs] > length[z]:
                found.append(zs)
        found.sort()
        covers.append(found)

    down = None
    if g.order <= dense_limit:
        # covers are one shorter, so they have smaller ids
        down = [0] * g.order
        for y in range(g.order):
            m = 1 << y
            for z in covers[y]:
                m |= down[z]
            down[y] = m

    return BruhatOrder(g=g, reflections=refl_by_root, covers=covers,
                       down=down)


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
    return _leq_walk(g, x, y)


def _leq_walk(g: WeylGroup, x: int, y: int) -> bool:
    """x <= y by walking y down its BFS chain (mask-free fallback).

    Write y = p s with p = bfs_parent[y] and s = bfs_letter[y], a right
    descent of y.  By lifting (Bjorner-Brenti, Prop. 2.2.7), if s is a
    descent of x then x <= y iff x s <= p, and otherwise x <= y iff
    x <= p.  Each step shortens y, so the walk takes at most l(y) steps.
    """
    length, parent, letter, rmult = (g.length, g.bfs_parent, g.bfs_letter,
                                     g.rmult)
    while x != y:
        if length[x] >= length[y]:
            return False
        xs = rmult[x][letter[y]]
        if length[xs] < length[x]:
            x = xs
        y = parent[y]
    return True


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
        """Member ids in ascending order, by a C-level scan of the bits."""
        bits, out = bin(self.mask)[:1:-1], []   # bits[i] is bit i
        i = bits.find("1")
        while i >= 0:
            out.append(i)
            i = bits.find("1", i + 1)
        return out


def _covered(o: BruhatOrder, members) -> int:
    """Mask of the elements covered by some element of members."""
    below = 0
    for y in members:
        for x in o.covers[y]:
            below |= 1 << x
    return below


def _maximal(o: BruhatOrder, mask: int, below: int) -> list[int]:
    """Members of an ideal that no member covers, sorted by id.

    below is _covered of the members.  In a downward-closed set a member
    lies below another member exactly when some member covers it, so
    these are the maximal members; they must regenerate the ideal.
    """
    gens = Ideal(o.g, mask & ~below).members()
    require(ideal_from_elements(o, gens).mask == mask,
            "maximal elements do not regenerate the ideal")
    return gens


def is_downward_closed(o: BruhatOrder, mask: int) -> bool:
    return _covered(o, Ideal(o.g, mask).members()) & ~mask == 0


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
    """Maximal elements of the ideal, sorted by id, so by (length, id)."""
    below = _covered(o, ideal.members())
    if below & ~ideal.mask:
        raise InvalidInputError("not an ideal")
    return _maximal(o, ideal.mask, below)


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
    """Check smallness of every element of length <= max_length.

    Needs only the group table: each x is compared with w0 x by the
    mask-free walk.  Witnesses come in id order, that is (length, id).
    """
    if max_length not in (1, 2):
        raise InvalidInputError("max_length must be 1 or 2")
    g = build_group(t)
    witnesses = [x for x in range(g.order)
                 if 0 < g.length[x] <= max_length
                 and not _leq_walk(g, x, g.w0_left(x))]
    return ShortSmallReport(
        cartan_type=t,
        max_length=max_length,
        all_small=not witnesses,
        witnesses=tuple(g.reduced_word(x) for x in witnesses),
        expected_all_small=short_small_expected(g.rs, max_length),
    )


# ---------------------------------------------------------------------------
# Balanced-ideal enumeration

def _propagate(o: BruhatOrder, in_mask: int, out_mask: int, todo: list[int],
               coset_masks: list[int] | None) -> tuple[int, int] | None:
    """Force the pending elements into I and close under the rules.

    I is downward closed, so x joining I brings down[x].  Exactly one of
    {x, w0 x} is in I, so "x out" means "w0 x in": each b that joins sets
    bit w0 b of out_mask, which stays w0 * in_mask and, as w0 reverses
    the order, upward closed with no masks of its own.  Under invariance
    I is a union of cosets x W_P, and so is the out-set, as
    w0 (x W_P) = (w0 x) W_P.  Returns None on contradiction, an element
    both in and out.
    """
    g, down = o.g, o.down
    while todo:
        add = down[todo.pop()] & ~in_mask
        if not add:
            continue
        in_mask |= add
        for b in Ideal(g, add).members():
            out_mask |= 1 << g.w0_left(b)
            if coset_masks is not None:
                todo.extend(Ideal(g, coset_masks[b] & ~in_mask).members())
        if in_mask & out_mask:
            return None
    return in_mask, out_mask


def enumerate_balanced(o: BruhatOrder, invariance=None,
                       max_order: int | None = None) -> list[Ideal]:
    """All balanced (optionally right-invariant) ideals, canonically sorted.

    Backtracking over the pairs {x, w0 x} in increasing length of the
    shorter member; the branches of x are "w0 x in" and "x in".  Seeds:
    every small element is forced into I (balanced ideals are fat, and
    fat ideals contain all small elements).  Each result is certified by
    _certify_balanced.  Output order: (generator count, generator word
    list).
    """
    g = o.g
    check_enumeration_budget(g.order, max_order)
    check_dense_masks(g.order, o.down is not None)

    coset_masks = None
    if invariance is not None:
        if invariance.g is not g:
            raise InvalidInputError("invariance parabolic built on another group")
        groups: dict[int, int] = {}
        for x, rep in enumerate(invariance.coset_of):
            groups[rep] = groups.get(rep, 0) | 1 << x
        coset_masks = [groups[rep] for rep in invariance.coset_of]

    seeds = [x for x in range(g.order) if is_small(o, x)]
    seeded = _propagate(o, 0, 0, seeds, coset_masks)
    if seeded is None:
        return []

    # the member of each pair {x, w0 x} that comes first by (length, id)
    pairs = [x for x in range(g.order) if x < g.w0_left(x)]

    results = []
    stack = [(seeded[0], seeded[1], 0)]
    while stack:
        in_mask, out_mask, idx = stack.pop()
        decided = in_mask | out_mask
        while idx < len(pairs) and decided >> pairs[idx] & 1:
            idx += 1
        if idx == len(pairs):
            results.append((in_mask, out_mask))
            continue
        x = pairs[idx]
        for branch in (g.w0_left(x), x):  # x popped first: IN branch first
            closed = _propagate(o, in_mask, out_mask, [branch], coset_masks)
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
    """Certify one search result; return its generators.

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
    members = Ideal(g, in_mask).members()
    below = _covered(o, members)
    w0_image = cosets = 0
    for y in members:
        w0_image |= 1 << g.w0_left(y)
        if coset_masks is not None:
            cosets |= coset_masks[y]
    require(below & ~in_mask == 0, "search result is not downward closed")
    require(w0_image == in_mask ^ o.full_mask,
            "search result differs from its orthogonal")
    require(coset_masks is None or cosets == in_mask,
            "search result is not a union of cosets")
    return _maximal(o, in_mask, below)


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
