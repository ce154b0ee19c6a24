"""Chevalley-Bruhat order, ideals, and balanced-ideal enumeration.

Covering relations come from the BFS tree of the group table: with
y = p s for p its BFS parent, the covers of y are p and the lifts z s of
the covers z of p that s lengthens (the lifting property), so each cover
costs one table lookup.  The order is stored once, downward: the
cover lists, covers[y] the elements y covers, and dense per-element
bitmasks (Python ints) built from them by rank propagation: down[y]
collects everything reachable downward from y.  Nothing is kept
upward: x -> w0 x reverses the order, so {y : y >= x} = w0 down[w0 x],
and the elements with an upper cover in a set are the union of its
members' cover lists.
Covers and masks are each built on first read.  Enumeration needs the
masks and builds them, and its budget refuses masks over MASK_BUDGET
bytes; leq reads them when built and never builds them.  Without them
a comparison is a walk down y's BFS chain (lifting property), at most
l(y) steps and no state.  An ideal is generated by one sweep down the
ids over the covers built from the group table, masks or no masks.

An ideal is a downward-closed subset, stored as a membership bitmask.
The orthogonal is I^perp = w0(W \\ I); an ideal is slim / fat / balanced
according to I contained in / containing / equal to I^perp.  Whole-mask
kernels serve them: a mask is rendered once as a bit string, and one
C-level gather gives its w0 image; the set of elements with an upper
cover in it is one union over its members' cover lists.  Each Ideal
keeps what is derived from it, once per order or parabolic of its own
group (_cached): its covered set, its orthogonal, the mask of its
generators, its right-invariance and its graded ranks.

Balanced ideals are enumerated by backtracking over the pairs
{x, w0 x}, seeded with the small elements (x <= w0 x), which every fat
ideal contains.  Forcing x into I costs two mask operations, whatever
down[x] holds: I takes down[x], and a small hit mask takes w0 x, for I
meets w0 I exactly when it meets hit (_propagate, which seeds the
search; each branch applies the same rule inline).  A right-invariant
balanced ideal is a union of cosets holding |W|/2 elements, so an odd
coset count answers at once, with no ideal, before covers, masks or
the coset map are built.  Under any other nonempty invariance the
search and the certificate run on W^P, the minimal coset
representatives, |W/W_P| bits a result, and never read W's masks
(_coset_certified).  All results are certified at once, on the
transposed bit matrix, and each enumerated ideal keeps what its
certificate proved: its orthogonal (itself), its generators as the
byte row the canonical sort read, from which its generator mask and
its JSON words are read on first use, and under an invariance its
right-invariance.  The result masks are transposed once, for the
certificate; under an invariance the certificate's columns, read
through the coset index, are transposed once more into the masks on
W; and the generator columns go back once, into those rows.  A memo
hit skips the group check, since only an owner that passed it is
stored.  The search (_search) and the certificate (_certify) read
plain lists only: down masks, the involution and cover lists; they
work on any finite poset with an order-reversing involution.  Budgets,
the restriction to W^P and the word order stay with _certified,
_coset_certified, _canonical_order and _certify_all.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import compress, permutations, repeat
from operator import itemgetter

from .cartan import (CartanType, RootSystem, build_root_system,
                     component_coxeter_number)
from .errors import (BudgetExceededError, InvalidInputError, Record,
                     checked_int, clip, require)
from .weyl import Word, WeylGroup, check_table_budget

ENUM_BUDGET_DEFAULT = 1152
MASK_BUDGET = 50000**2 // 16  # bytes of order masks: refuses |W| > 50,000
CERTIFY_BLOCK = 4096        # search results per bit-sliced block
LIST_BUDGET = 250_000       # balanced ideals one enumeration may list


def check_enumeration_budget(t: CartanType,
                             max_order: int | None = None) -> int:
    """|W| of t, refused above max_order, else above ENUM_BUDGET_DEFAULT,
    and refused when the order masks that enumeration builds, about
    |W|^2/16 bytes, would exceed MASK_BUDGET."""
    budget = (ENUM_BUDGET_DEFAULT if max_order is None
              else checked_int("max_order", max_order))
    if budget < 1:
        raise InvalidInputError(
            f"enumeration budget must be at least 1, got {clip(budget)}")
    order = t.weyl_order_at_most(budget)
    if order is None:
        raise BudgetExceededError(
            f"|W| of {clip(t)} exceeds enumeration budget {clip(budget)}")
    if order * order // 16 > MASK_BUDGET:
        raise BudgetExceededError(
            f"{clip(t)}: order masks need about {clip(order * order >> 24)} "
            f"MiB > budget {MASK_BUDGET >> 20} MiB")
    return order


def _check_mask(mask: int, n: int) -> None:
    """Refuse a mask with bits outside range(n)."""
    if mask < 0 or mask >> n:
        raise InvalidInputError("mask has bits outside W")


def mask_bits(mask: int, n: int) -> str:
    """The n-bit mask as binary digits, most significant first.

    Element x sits at index n - 1 - x.  This is the input of a Gather.
    """
    _check_mask(mask, n)
    return f"{mask:0{n}b}"


class Gather:
    """A whole-mask map, one C-level gather over mask_bits(mask, n).

    Bit j of the result is bit src[j] of the input, for src a map of
    range(n) into itself; a permutation of W gives the image of a mask
    under it.
    """

    __slots__ = ("_get",)

    def __init__(self, src, n: int) -> None:
        self._get = itemgetter(*[n - 1 - s for s in reversed(src)])

    def __call__(self, bits: str) -> int:
        return int("".join(self._get(bits)), 2)


def mask_of(xs, n: int) -> int:
    """The mask of the ids xs, each in range(n), in one linear pass.

    For ids the program made itself: xs is not checked.
    """
    bits = bytearray(b"0") * n
    for x in xs:
        bits[x] = 49                    # ord("1")
    return int(bits[::-1], 2)


def _bit_positions(mask: int) -> list[int]:
    """Set bits of mask in ascending order, by a C-level scan."""
    bits, out = bin(mask)[:1:-1], []   # bits[i] is bit i
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class BruhatOrder:
    """Covers and dense masks of one group's order; equality is identity.

    build_order makes an order that builds each part on first read; a
    copy made through __init__ holds the parts it is given.
    """

    # no upward masks: {y : y >= x} is w0 down[w0 x].  Kept as None for
    # perfbench/tracing.py, which adds up the bytes of down and up.
    up = None

    def __init__(self, g: WeylGroup, covers: list[list[int]],
                 down: list[int] | None) -> None:
        self.g = g
        self.covers = covers          # covers[y] = ids covered by y
        self.down = down              # down[y] = bitmask of {x : x <= y}

    @cached_property
    def covers(self) -> list[list[int]]:
        return self._table_covers

    @cached_property
    def _table_covers(self) -> list[list[int]]:
        """The covers built from the group table, which ideal generation
        reads; a copy given covers through __init__ builds its own."""
        return _descent_covers(self.g)

    @cached_property
    def down(self) -> list[int] | None:
        """The masks, or None when |W| exceeds a dense limit given."""
        if self._dense_limit is not None and self.g.order > self._dense_limit:
            return None
        return _down_masks(self.covers)

    @property
    def full_mask(self) -> int:
        return (1 << self.g.order) - 1

    # The w0 gather, built on first use, so a copy built through
    # __init__ starts without it.

    @cached_property
    def _w0_gather(self) -> Gather:
        return Gather(self.g._w0_left, self.g.order)


def build_order(g: WeylGroup, dense_limit: int | None = None) -> BruhatOrder:
    """The order of g, which builds nothing until a part is read.

    covers and down are each built on first read; above a dense_limit
    given, down is None, and leq walks.
    """
    o = BruhatOrder.__new__(BruhatOrder)    # no parts given: none stored
    o.g = g
    o._dense_limit = dense_limit
    return o


def _descent_covers(g: WeylGroup) -> list[list[int]]:
    """Covers by descent recursion.  With y = p s for p = bfs_parent[y]
    and s = bfs_letter[y],

        covers(y) = {p} | {z s : z in covers(p), l(z s) > l(z)},

    without repeats, by the lifting property (Bjorner-Brenti, Prop.
    2.2.7).  Ids are in BFS order and l(z s) = l(z) +- 1, so z s
    lengthens z iff its id is larger; parents have smaller ids, so the
    lists are built in id order.
    """
    rmult = g.rmult
    covers: list[list[int]] = [[]]
    for p, s in zip(g.bfs_parent[1:], g.bfs_letter[1:]):
        found = [p]
        for z in covers[p]:
            zs = rmult[z][s]
            if zs > z:
                found.append(zs)
        found.sort()
        covers.append(found)
    return covers


def _down_masks(covers: list[list[int]]) -> list[int]:
    """Reachability masks by rank propagation: down[y] is y and the
    masks of its covers, which are one shorter, so have smaller ids."""
    down = [0] * len(covers)
    for y, xs in enumerate(covers):
        m = 1 << y
        for z in xs:
            m |= down[z]
        down[y] = m
    return down


def leq(o: BruhatOrder, x: int, y: int) -> bool:
    """x <= y in the Chevalley-Bruhat order.

    Ids are in BFS order, so y < x rules out x <= y.  The masks are read
    when they have been built; leq never builds them, and walks instead.
    Ids are refused as _check_id refuses them, past one fast test.
    """
    g = o.g
    n = g.order
    if not (type(x) is type(y) is int and 0 <= x < n and 0 <= y < n):
        g._check_id(x)
        g._check_id(y)
    if x >= y:
        return x == y
    down = vars(o).get("down")
    if down is not None:
        return bool(down[y] >> x & 1)
    return _leq_walk(g, x, y)


def _leq_walk(g: WeylGroup, x: int, y: int) -> bool:
    """x <= y by walking y down its BFS chain (mask-free fallback).

    Write y = p s with p = bfs_parent[y] and s = bfs_letter[y], a right
    descent of y.  By lifting (Bjorner-Brenti, Prop. 2.2.7), if s is a
    descent of x then x <= y iff x s <= p, and otherwise x <= y iff
    x <= p.  Each step shortens y, so the walk takes at most l(y) steps.
    Ids are in BFS order, so s is a descent of x iff x s < x.  The gap
    l(y) - l(x) shrinks only when x keeps its length, and once it is 0,
    x <= y iff x = y.
    """
    parent, letter, rmult = g.bfs_parent, g.bfs_letter, g.rmult
    gap = g.length[y] - g.length[x]
    while gap > 0:
        xs = rmult[x][letter[y]]
        if xs < x:
            x = xs
        else:
            gap -= 1
        y = parent[y]
    return x == y


def subword_ideal_mask(o: BruhatOrder, y: int) -> int:
    """{products of subwords of a reduced word for y} as a mask.

    By the subword property (Bjorner-Brenti, Thm. 2.2.2) any reduced word
    of y, the BFS word included, gives the principal ideal of y; reading
    neither covers nor masks, it is an oracle for leq independent by method.
    """
    g = o.g
    reach = {0}
    for i in g.reduced_word(y):
        reach |= {g.rmult[x][i] for x in reach}
    return mask_of(reach, g.order)


# ---------------------------------------------------------------------------
# Ideals

class Ideal:
    """A downward-closed subset of W as a membership bitmask; two ideals
    are equal when they have the same group and mask."""

    def __init__(self, g: WeylGroup, mask: int) -> None:
        self.g = g
        self.mask = mask

    def __eq__(self, other) -> bool:
        return (type(other) is Ideal and other.g is self.g
                and other.mask == self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        self.g._check_id(x)
        return bool(self.mask >> x & 1)

    def members(self) -> list[int]:
        """Member ids in ascending order."""
        return _bit_positions(self.mask)


def check_group(g: WeylGroup, *parts) -> None:
    """Refuse orders and parabolics built on a group other than g.

    Every memo miss runs it, so it is a plain loop."""
    for part in parts:
        if part.g is not g:
            raise InvalidInputError(
                "ideal, parabolic, and order must share a group")


def _cached(ideal: Ideal, name: str, owner, compute, *args):
    """compute(*args), kept on the ideal under name while owner is alive.

    owner is the order or parabolic the value was derived with; one of
    another group is refused on a miss, for every derived value.  It is
    held weakly, so the memo keeps no order alive, and matched by
    identity, so a copy such as BruhatOrder(o.g, forged_covers, o.down)
    is a different owner and computes afresh.  A hit skips the group
    check: it needs the stored owner itself, and every stored owner
    passed that check on its miss, or is the order or invariance
    enumerate_balanced built the ideal with, when it stores _perp and
    _invariant in this form from its certificate, or the order whose
    orthogonal _orthogonal built, when it stores that result's _perp.
    A raising compute stores nothing.  Ideal equality reads only g and
    mask, so memos do not count.  compute is a module-level function,
    so a hit builds no closure.
    """
    hit = ideal.__dict__.get(name)
    if hit is not None and hit[0]() is owner:
        return hit[1]
    check_group(ideal.g, owner)
    value = compute(*args)
    ideal.__dict__[name] = (weakref.ref(owner), value)
    return value


def _ideal_covered(o: BruhatOrder, ideal: Ideal) -> int:
    """_covered of the ideal's mask, once per order."""
    return _cached(ideal, "_covered", o, _covered, o, ideal.mask)


def _covered(o: BruhatOrder, mask: int) -> int:
    """Mask of the elements with an upper cover in mask: the union of
    the covers of its members."""
    n, covers = o.g.order, o.covers
    _check_mask(mask, n)
    below = set().union(*map(covers.__getitem__, _bit_positions(mask)))
    return mask_of(below, n)


def _w0_image(o: BruhatOrder, mask: int) -> int:
    """w0 * mask, the image of the set under left multiplication by w0."""
    return o._w0_gather(mask_bits(mask, o.g.order))


def is_downward_closed(o: BruhatOrder, mask: int) -> bool:
    return _covered(o, mask) & ~mask == 0


def make_ideal(o: BruhatOrder, mask: int) -> Ideal:
    if not is_downward_closed(o, mask):
        raise InvalidInputError("member set is not downward closed")
    return Ideal(o.g, mask)


def principal_ideal(o: BruhatOrder, x: int) -> Ideal:
    return ideal_from_elements(o, [x])


def ideal_from_elements(o: BruhatOrder, xs) -> Ideal:
    """The ideal generated by xs.

    One sweep down the ids over the covers built from the group table
    closes xs; it reads no down masks, built or not, and never covers
    given to a copy, so a forged cover list cannot hide a generator
    from the regeneration check of minimal_generators.
    """
    g, xs = o.g, list(xs)
    for x in xs:
        g._check_id(x)
    covers, below = o._table_covers, set(xs)
    for y in range(max(xs, default=0), 0, -1):  # covers have smaller ids
        if y in below:
            below.update(covers[y])
    return Ideal(g, mask_of(below, g.order))


def minimal_generators(o: BruhatOrder, ideal: Ideal) -> list[int]:
    """Maximal elements of the ideal, sorted by id, so by (length, id).

    In a downward-closed set a member lies below another member exactly
    when some member covers it, so these are the members no member
    covers; they must regenerate the ideal.  Their mask is found once
    per order; an ideal enumerated on this order builds it from the row
    its certificate proved.
    """
    return _bit_positions(_cached(ideal, "_gens", o, _generator_mask,
                                  o, ideal))


def _kept_row(o: BruhatOrder, ideal: Ideal):
    """(used, row) of an ideal enumerated on o itself, else None.

    Byte j of row is 1 when used[j] generates the ideal; used is in
    canonical word order (_canonical_order).  The order is matched by
    identity, so a copy of it finds no row.
    """
    kept = ideal.__dict__.get("_row")
    if kept is not None and kept[0]() is o:
        return kept[1:]
    return None


def _generator_mask(o: BruhatOrder, ideal: Ideal) -> int:
    kept = _kept_row(o, ideal)
    if kept is not None:
        return mask_of(compress(*kept), o.g.order)
    below = _ideal_covered(o, ideal)
    if below & ~ideal.mask:
        raise InvalidInputError("not an ideal")
    gens = ideal.mask & ~below
    require(ideal_from_elements(o, _bit_positions(gens)).mask == ideal.mask,
            "maximal elements do not regenerate the ideal")
    return gens


def orthogonal(o: BruhatOrder, ideal: Ideal) -> Ideal:
    """I^perp = w0 (W \\ I); downward-closedness of the result is checked.

    The result is computed once per (ideal, order) and kept as an
    object, so repeated calls share its memos.  A balanced ideal is its
    own orthogonal and comes back as itself (memoized as None, so the
    ideal holds no reference to itself); any other result starts with
    the ideal as its own orthogonal, as the map is an involution.
    """
    perp = _cached(ideal, "_perp", o, _orthogonal, o, ideal)
    return ideal if perp is None else perp


def _orthogonal(o: BruhatOrder, ideal: Ideal) -> Ideal | None:
    """I^perp, or None when it equals I; the ideal and the result are checked.

    A result equal to the input needs no second check: the input check
    tested the same mask against the same covers.
    """
    if _ideal_covered(o, ideal) & ~ideal.mask:
        raise InvalidInputError("not an ideal")
    m = _w0_image(o, ideal.mask ^ o.full_mask)
    if m == ideal.mask:
        return None
    require(is_downward_closed(o, m), "orthogonal failed to be an ideal")
    perp = Ideal(o.g, m)
    perp._perp = (weakref.ref(o), ideal)
    return perp


class IdealClass(Record):
    def __init__(self, slim: bool, fat: bool) -> None:
        self.slim = slim
        self.fat = fat

    @property
    def balanced(self) -> bool:
        return self.slim and self.fat


def classify(o: BruhatOrder, ideal: Ideal) -> IdealClass:
    m, p = ideal.mask, orthogonal(o, ideal).mask
    return IdealClass(slim=(m & ~p) == 0, fat=(p & ~m) == 0)


# ---------------------------------------------------------------------------
# Small elements

def is_small(o: BruhatOrder, x: int) -> bool:
    """x <= w0 x."""
    o.g._check_id(x)
    return leq(o, x, o.g.w0_left(x))


class ShortSmallReport(Record):
    def __init__(self, cartan_type: CartanType, max_length: int,
                 all_small: bool, witnesses: tuple[Word, ...],
                 expected_all_small: bool) -> None:
        self.cartan_type = cartan_type
        self.max_length = max_length
        self.all_small = all_small
        self.witnesses = witnesses    # non-small elements as canonical words
        # what the length<=L theorem predicts
        self.expected_all_small = expected_all_small


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

    Needs only the root system, within the table budget all the same.
    The canonical words, the shortlex-least reduced words, come from the
    Cartan matrix in (length, word) order, which is the id order: every
    word of distinct letters, of length 1 to max_length, but (i, j) with
    i > j whose letters commute.  For a word of x, the dominant walk of
    -x^-1 rho, rho = (1, ..., 1), ends at rho, so its letters read
    backwards are a reduced word of w0 x, of length |Sigma^+| - l(x).
    By the subword property (Bjorner-Brenti, Thm. 2.2.2), x <= w0 x iff
    a reduced word of x is a subword of it; (i, j) with commuting
    letters has two, and x = s_i has one, as c[i][i] = 2.
    """
    if checked_int("max_length", max_length) not in (1, 2):
        raise InvalidInputError("max_length must be 1 or 2")
    check_table_budget(t)
    rs = build_root_system(t)
    c = rs.cartan_matrix
    words = [w for n in range(1, max_length + 1)
             for w in permutations(range(rs.rank), n)
             if w[0] <= w[-1] or c[w[0]][w[-1]]]
    witnesses = []
    for x in words:
        lam = (-1,) * rs.rank           # -x^-1 rho = x^-1 (-rho)
        for i in x:
            lam = rs.reflect_weight(i, lam)
        w0x = rs.dominant_walk(lam)[0][::-1]
        reduced = (x, x[::-1]) if c[x[0]][x[-1]] == 0 else (x,)
        if not any(_is_subword(r, w0x) for r in reduced):
            witnesses.append(x)
    return ShortSmallReport(
        cartan_type=t, max_length=max_length, all_small=not witnesses,
        witnesses=tuple(witnesses),
        expected_all_small=short_small_expected(rs, max_length))


def _is_subword(word: Word, of: list[int]) -> bool:
    """word is a subsequence of of; each letter search resumes past the
    last match."""
    rest = iter(of)
    return all(i in rest for i in word)


# ---------------------------------------------------------------------------
# Balanced-ideal enumeration

def _propagate(down: list[int], w0, in_mask: int, hit: int,
               forced) -> tuple[int, int] | None:
    """Force the elements into I: (in_mask, hit), or None on contradiction.

    I is downward closed, so x joining I brings down[x].  Exactly one of
    {x, w0 x} is in I, so I must miss w0 I.  As w0 reverses the order,
    w0 I is the upper set of the w0 b for b forced, and a downward
    closed I meets it exactly when I holds one of them: w0 b <= x <= a
    for forced a, b.  So each forced element sets one bit w0 b of hit,
    and I meets w0 I iff it meets hit; no bit of down[x] is walked.
    """
    for b in forced:
        in_mask |= down[b]
        hit |= 1 << w0(b)
    return None if in_mask & hit else (in_mask, hit)


def enumerate_balanced(o: BruhatOrder, invariance=None,
                       max_order: int | None = None) -> list[Ideal]:
    """All balanced (optionally right-invariant) ideals, sorted by
    (generator count, generator word list).

    Backtracking over the pairs {x, w0 x} in increasing length of the
    shorter member; the branches of x are "w0 x in" and "x in".  Under an
    invariance with an odd coset count there is no such ideal, and the
    empty list comes back without reading the order or the coset map.
    Under any other nonempty invariance the search runs on the cosets
    (_coset_certified) and never reads the order's masks, so an order
    without them serves.  A search that finds more than LIST_BUDGET
    ideals is refused before any is certified.  Each ideal keeps what
    its certificate proved, held for this order (and invariance) as
    _cached holds its memos: it is its own orthogonal; its generators
    are the certified ones, kept as the byte row of _canonical_order
    with the used list, from which minimal_generators builds the mask
    and ideal_to_json_dict reads the words; and under an invariance it
    is right-invariant.  So
    orthogonal, classify, minimal_generators, ideal_to_json_dict and
    is_right_invariant on it neither read its members' covers, nor
    regenerate it, nor gather it through the cosets.
    """
    results, gen_cols = _certified(o, invariance, max_order)
    used, rows, order = _canonical_order(o.g, results, gen_cols)
    g, owner = o.g, weakref.ref(o)
    own_perp, ideals = (owner, None), []
    for r in order:
        ideal = Ideal(g, results[r])
        ideal._perp = own_perp
        ideal._row = (owner, used, rows[r])
        ideals.append(ideal)
    if invariance is not None:
        # each result is a union of cosets, certified on W^P
        own_invariant = (weakref.ref(invariance), True)
        for ideal in ideals:
            ideal._invariant = own_invariant
    return ideals


def _enumerate_certified(o: BruhatOrder, invariance=None,
                         max_order: int | None = None
                         ) -> tuple[list[int], list[tuple[int, bytes]]]:
    """enumerate_balanced as masks, each with its certified generators.

    Returns (used, [(mask, row)]): used lists every element that
    generates some result, in canonical word order, and byte j of row
    is 1 when used[j] generates the ideal, so compress(used, row) lists
    its generators in word order.  The CLI's balanced reads this, and
    no generator mask is built for it.
    """
    results, gen_cols = _certified(o, invariance, max_order)
    used, rows, order = _canonical_order(o.g, results, gen_cols)
    return used, [(results[r], rows[r]) for r in order]


def _certified(o: BruhatOrder, invariance=None,
               max_order: int | None = None) -> tuple[list[int], list[int]]:
    """The search results, in search order, and their generator columns.

    The budget and the group of the invariance are checked first.  Then
    an odd coset count |W/W_P| returns ([], []) before the order or the
    coset map is read: a balanced I holds |W|/2 elements and an
    invariant one is a union of cosets of |W_P| elements, so
    |W/W_P| = 2|I|/|W_P| would be even.  A nonempty invariance takes
    the path on the cosets; otherwise the search and the certificate
    run on W, over its masks.
    """
    g = o.g
    check_enumeration_budget(g.rs.cartan_type, max_order)
    if invariance is not None:
        check_group(g, invariance)
        if invariance.n_cosets % 2:
            return [], []
        if invariance.theta:
            return _coset_certified(o, invariance)
    if o.down is None:
        raise InvalidInputError("enumeration needs the dense order masks")
    results = _search(o.down, g._w0_left)
    return results, _certify_all(o, results)


def _coset_certified(o: BruhatOrder, p) -> tuple[list[int], list[int]]:
    """_certified under W_P: searched and certified on W^P, returned on W.

    A union of cosets is an ideal of W exactly when its minimal
    representatives are an ideal of W^P, as x -> min(x W_P) keeps the
    order (Bjorner-Brenti, Prop. 2.5.1), and w0 sends the coset of x to
    the coset of w0 x.  So _search and _certify run on the coset
    indices, W^P in id order: the cover lists are the order's own
    restricted to W^P, its covers, as W^P is graded by length (Thm.
    2.5.5); the masks come from the table covers restricted alike, so
    a forged cover cannot fool regeneration; and the involution is
    c -> the coset of w0 rep(c).  The certificate's columns, gathered
    through the coset index of each element, are the columns of the W
    masks, which one transposition gives; each must hold |W|/2
    elements.  The maximal elements of such an ideal are the longest
    members of its maximal cosets, the largest id of each (ids never
    decrease in length), so the generator columns move there.
    """
    g, reps = o.g, p.min_reps
    at = dict(zip(reps, range(len(reps))))         # representative -> index
    index = list(map(at.__getitem__, p.coset_of))  # element -> coset index

    def restrict(covers):
        return [[at[u] for u in covers[v] if u in at] for v in reps]

    table = restrict(o._table_covers)
    covers = table if o.covers is o._table_covers else restrict(o.covers)
    down = _down_masks(table)
    w0 = g._w0_left
    inv = [index[w0[v]] for v in reps]
    results = _search(down, inv)
    cols, coset_gens = _certify(results, down, covers, inv)
    masks = _columns(list(map(cols.__getitem__, index)), len(results))
    half = g.order // 2
    require(all(map(half.__eq__, map(int.bit_count, masks))),
            "expanded result does not hold half of W")
    top = dict(zip(index, range(g.order)))  # coset index -> largest id
    gen_cols = [0] * g.order
    for c, gen in enumerate(coset_gens):
        if gen:
            gen_cols[top[c]] = gen
    return masks, gen_cols


def _canonical_order(g: WeylGroup, results: list[int], gen_cols: list[int]
                     ) -> tuple[list[int], list[bytes], list[int]]:
    """(used, rows, order): the generators of some result in canonical
    word order; byte j of rows[r] is 1 when used[j] generates result r;
    and the result indices sorted by (generator count, word list).

    Row r compares as the word list of result r once its bytes are
    flipped: the earlier word present sorts first.  The keys are made
    by C-level maps, and two stable sorts, by flipped row and then by
    count, give the order of the pair key.
    """
    used = sorted((x for x, c in enumerate(gen_cols) if c), key=g.reduced_word)
    rows = _rows([gen_cols[x] for x in used], len(results))
    flipped = list(map(bytes.translate, rows, repeat(_FLIP)))
    order = sorted(range(len(rows)), key=flipped.__getitem__)
    order.sort(key=list(map(bytes.count, rows, repeat(1))).__getitem__)
    return used, rows, order


def _search(down: list[int], inv: list[int]) -> list[int]:
    """Masks of the down-sets I that hold exactly one of each pair
    {x, inv x}, in search order; more than LIST_BUDGET is refused.

    down[x] holds x and everything that forcing x into I brings; inv is
    an involution, and it must reverse the order for the list to be
    complete (_propagate).  A state is the mask of I and the hit mask
    of _propagate; a pair is decided once I holds a member.  The seeds
    are the x that down[inv x] holds: inv x joining I would bring both.
    Backtracking runs over the pairs by their smaller id; the branches
    of x are "inv x in" and "x in", each forced inline by _propagate's
    rule on one element: "inv x in" ORs down[inv x] into I and bit x
    into hit, "x in" ORs down[x] and bit inv x, and a branch whose I
    meets its hit is dropped.
    """
    # a branch is decided only if down[x] holds x; else it never ends
    require(all(m >> x & 1 for x, m in enumerate(down)),
            "down[x] must contain x")
    n, w0 = len(down), inv.__getitem__
    seeded = _propagate(down, w0, 0, 0,
                        [x for x in range(n) if down[inv[x]] >> x & 1])
    if seeded is None:
        return []
    pairs = [x for x in range(n) if x < inv[x]]
    end = len(pairs)
    # a 0 past the last pair stops the skip below
    pair_bits = [1 << x | 1 << inv[x] for x in pairs] + [0]

    results = []
    stack = [(*seeded, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        in_mask, hit, idx = pop()
        while in_mask & pair_bits[idx]:
            idx += 1
        if idx == end:
            if len(results) == LIST_BUDGET:
                raise BudgetExceededError(
                    f"more than {LIST_BUDGET} balanced ideals to list")
            results.append(in_mask)
            continue
        x = pairs[idx]
        y = inv[x]
        # _propagate's rule on one element, "inv x in" pushed first so
        # that "x in" is popped first
        m, h = in_mask | down[y], hit | 1 << x
        if not m & h:
            push((m, h, idx))
        m, h = in_mask | down[x], hit | 1 << y
        if not m & h:
            push((m, h, idx))
    return results


def _columns(masks: list[int], n: int) -> list[int]:
    """Transpose: bit r of column y is bit y of masks[r].

    The columns are made CERTIFY_BLOCK at a time, and for each window
    the masks CERTIFY_BLOCK at a time.  A block is rendered as one
    string of width-digit rows, last mask first, so the stride slice at
    width - 1 - k reads column lo + k down the block as a binary
    number; blocks are shifted into place.  The string never outgrows
    CERTIFY_BLOCK rows of CERTIFY_BLOCK digits, whatever the count of
    masks or their width.
    """
    cols = []
    for lo in range(0, n, CERTIFY_BLOCK):
        width = min(CERTIFY_BLOCK, n - lo)
        spec, low, part = f"0{width}b", (1 << width) - 1, [0] * width
        for start in range(0, len(masks), CERTIFY_BLOCK):
            block = masks[start:start + CERTIFY_BLOCK]
            if n > CERTIFY_BLOCK:
                block = [m >> lo & low for m in block]
            text = "".join(map(format, reversed(block), repeat(spec)))
            for k in range(width):
                part[k] |= int(text[width - 1 - k::width], 2) << start
        cols += part
    return cols


def _certify_all(o: BruhatOrder, masks: list[int]) -> list[int]:
    """The generator columns of _certify on W: its covers, masks and
    w0 table."""
    return _certify(masks, o.down, o.covers, o.g._w0_left)[1]


def _certify(masks: list[int], down: list[int], covers: list[list[int]],
             inv: list[int]) -> tuple[list[int], list[int]]:
    """Certify the search results, the masks of I, all at once.

    Returns the columns R and the generator columns G below.  The checks
    run on columns: R[y] has bit r set when result r contains y, so each
    costs O(n + cover edges) big-int operations, whatever the count.
    inv is an involution, checked.  Decided: every pair {y, inv y} has
    a member in each result, R[y] | R[inv y] = ALL.  Each result holds
    half of the n elements, so with the pairs decided it holds exactly
    one member of each: it equals inv of its complement, its
    orthogonal, and no third check is needed.  covers[y] lists the
    elements y covers, and each R[y] is scattered onto them: A[x] is
    the OR of R[y] over the y covering x.  Downward closed: A[x] lies
    inside R[x].  The generators of result r are the x with bit r in
    G[x] = R[x] & ~A[x]; they must regenerate the result through down.
    covers and inv are read here, and down only to regenerate, so a
    forged cover list cannot hide a generator.
    """
    n = len(inv)
    require(all(inv[inv[x]] == x for x in range(n)),
            "inv is not an involution")
    cols = _columns(masks, n)
    every = (1 << len(masks)) - 1
    require(all(c | cols[inv[y]] == every for y, c in enumerate(cols)),
            "search result leaves elements undecided")
    require(all(2 * m.bit_count() == n for m in masks),
            "search result does not hold half of W")
    above = [0] * n                     # above[x] is A[x]
    for c, xs in zip(cols, covers):
        if c:
            for x in xs:
                above[x] |= c
    require(all(a & ~c == 0 for a, c in zip(above, cols)),
            "search result is not downward closed")
    gen_cols = [c & ~a for c, a in zip(cols, above)]
    # regenerate through the down masks: bit r of regen[x] says that x
    # lies below a generator of result r
    regen = [0] * n
    for y, gen in enumerate(gen_cols):
        if gen:
            for x in _bit_positions(down[y]):
                regen[x] |= gen
    require(regen == cols, "maximal elements do not regenerate the ideal")
    return cols, gen_cols


_BITS_AS_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _rows(cols: list[int], count: int) -> list[bytes]:
    """Transpose back: byte j of row r is bit r of cols[j], as 0 or 1.

    Per block of CERTIFY_BLOCK rows the columns are rendered as one
    string of 0/1 bytes, column after column, and row r is its stride
    slice.
    """
    out = []
    for start in range(0, count, CERTIFY_BLOCK):
        width = min(CERTIFY_BLOCK, count - start)
        low = (1 << width) - 1
        text = "".join(f"{c >> start & low:0{width}b}"
                       for c in cols).encode().translate(_BITS_AS_BYTES)
        out.extend(text[k::width] for k in range(width - 1, -1, -1))
    return out


# ---------------------------------------------------------------------------
# Serialization

def ideal_to_json_dict(o: BruhatOrder, ideal: Ideal) -> dict:
    """{"type": ..., "generators": [...]}, the words sorted.

    An ideal enumerated on o reads its words off its certified row,
    already in canonical word order; any other ideal, or another order,
    takes minimal_generators.
    """
    g, kept = o.g, _kept_row(o, ideal)
    gens = (compress(*kept) if kept is not None
            else sorted(minimal_generators(o, ideal), key=g.reduced_word))
    return {"type": str(g.rs.cartan_type),
            "generators": [list(g.reduced_word(x)) for x in gens]}


def ideal_from_json_dict(o: BruhatOrder, data) -> Ideal:
    """The ideal of a decoded ideal file: {"type": ..., "generators": [...]}.

    data comes from outside the program, so its shape is checked: an
    object whose generators are lists of integer letters.
    """
    if not isinstance(data, dict):
        raise InvalidInputError("ideal must be a JSON object")
    if str(o.g.rs.cartan_type) != data.get("type"):
        raise InvalidInputError(f"ideal is for type {clip(data.get('type'))}, "
                                f"order is for {o.g.rs.cartan_type}")
    words = data.get("generators")
    if not isinstance(words, list) or not all(
            isinstance(w, list) and all(type(i) is int for i in w)
            for w in words):
        raise InvalidInputError(
            "ideal generators must be a list of words of integer letters")
    gens = [o.g.word_to_id(tuple(w)) for w in words]
    return ideal_from_elements(o, gens)
