"""Chevalley-Bruhat order, ideals, and balanced-ideal enumeration.

Covering relations come from the BFS tree of the group table: with
y = p s for p its BFS parent, the covers of y are p and the lifts z s of
the covers z of p that s lengthens (the lifting property), so each cover
costs one table lookup.  The order is stored once, as
dense per-element bitmasks (Python ints) built by rank propagation:
down[y] collects everything reachable downward from y.  Nothing is kept
upward: x -> w0 x reverses the order, so {y : y >= x} = w0 down[w0 x].
Covers and masks are each built on first read.  Enumeration needs the
masks and builds them, and its budget refuses masks over MASK_BUDGET
bytes; leq and ideal generation read them when built and never build
them.  Without them a comparison is a walk down y's BFS chain (lifting
property), at most l(y) steps and no state, and an ideal is generated
by one sweep down the ids over the covers built from the group table.

An ideal is a downward-closed subset, stored as a membership bitmask.
The orthogonal is I^perp = w0(W \\ I); an ideal is slim / fat / balanced
according to I contained in / containing / equal to I^perp.  Whole-mask
kernels serve them: a mask is rendered once as a bit string, and one
C-level gather gives its w0 image or the set of elements with an upper
cover in it, so no check walks the members one by one.  Each Ideal
keeps what is derived from it, once per order or parabolic of its own
group (_cached): its covered set, its orthogonal's mask and its graded
ranks.  Balanced
ideals are enumerated by backtracking over the pairs {x, w0 x}, seeded
with the small elements (x <= w0 x), which every fat ideal contains,
and propagated through down and w0 alone, with right-invariance
folded into down beforehand; all results are then certified at once,
on the transposed bit matrix.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from operator import itemgetter

from .cartan import CartanType, RootSystem, component_coxeter_number
from .errors import BudgetExceededError, InvalidInputError, Record, clip, require
from .weyl import Word, WeylGroup, build_group

ENUM_BUDGET_DEFAULT = 1152
MASK_BUDGET = 50000**2 // 16  # bytes of order masks: refuses |W| > 50,000
CERTIFY_BLOCK = 4096        # search results per bit-sliced block
LIST_BUDGET = 250_000       # balanced ideals one enumeration may list


def check_enumeration_budget(t: CartanType,
                             max_order: int | None = None) -> int:
    """|W| of t, refused above max_order, else above ENUM_BUDGET_DEFAULT,
    and refused when the order masks that enumeration builds, about
    |W|^2/16 bytes, would exceed MASK_BUDGET."""
    budget = ENUM_BUDGET_DEFAULT if max_order is None else max_order
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


def mask_bits(mask: int, n: int) -> str:
    """The n-bit mask as binary digits, most significant first, then a 0.

    Element x sits at index n - 1 - x; the trailing pad at index n
    reads 0.  This is the input of a Gather.
    """
    if mask < 0 or mask >> n:
        raise InvalidInputError("mask has bits outside W")
    return f"{mask:0{n}b}0"


class Gather:
    """A whole-mask map, one C-level gather over mask_bits(mask, n).

    Bit j of the result is bit src[j] of the input, or 0 where
    src[j] < 0.  A permutation of W gives the image of a mask under it;
    k maps laid end to end give k images, image c in bits c n and up.
    """

    __slots__ = ("_get",)

    def __init__(self, src, n: int) -> None:
        idx = [n - 1 - s if s >= 0 else n for s in reversed(src)]
        # itemgetter takes at least one index; an empty map gives 0
        self._get = itemgetter(*idx) if idx else lambda bits: "0"

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

    # Gather tables, built on first use from this order's own covers, so
    # a copy built through __init__ starts without them.

    @cached_property
    def _upper(self) -> list[list[int]]:
        """_upper[x] = ids covering x, ascending."""
        up: list[list[int]] = [[] for _ in range(self.g.order)]
        for y, xs in enumerate(self.covers):
            for x in xs:
                up[x].append(y)
        return up

    @cached_property
    def _w0_gather(self) -> Gather:
        g = self.g
        return Gather([g.w0_left(x) for x in range(g.order)], g.order)

    @cached_property
    def _cover_gather(self) -> tuple[Gather, int]:
        """Column c: the c-th upper cover of each x, or 0; column count."""
        up = self._upper
        width = max(map(len, up))
        src = [ys[c] if c < len(ys) else -1 for c in range(width) for ys in up]
        return Gather(src, self.g.order), width


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
    """
    g = o.g
    n = g.order
    if not (0 <= x < n and 0 <= y < n):
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
        return bool(self.mask >> x & 1)

    def members(self) -> list[int]:
        """Member ids in ascending order."""
        return _bit_positions(self.mask)


def check_group(g: WeylGroup, *parts) -> None:
    """Refuse orders and parabolics built on a group other than g."""
    if any(part.g is not g for part in parts):
        raise InvalidInputError(
            "ideal, parabolic, and order must share a group")


def _cached(ideal: Ideal, name: str, owner, compute):
    """compute(), kept on the ideal under name while owner is alive.

    owner is the order or parabolic the value was derived with; one of
    another group is refused here, for every derived value.  It is
    held weakly, so the memo keeps no order alive, and matched by
    identity, so a copy such as BruhatOrder(o.g, forged_covers, o.down)
    is a different owner and computes afresh.  A raising compute stores
    nothing.  Ideal equality reads only g and mask, so memos do not
    count.
    """
    check_group(ideal.g, owner)
    hit = ideal.__dict__.get(name)
    if hit is not None and hit[0]() is owner:
        return hit[1]
    value = compute()
    ideal.__dict__[name] = (weakref.ref(owner), value)
    return value


def _ideal_covered(o: BruhatOrder, ideal: Ideal) -> int:
    """_covered of the ideal's mask, once per order."""
    return _cached(ideal, "_covered", o, lambda: _covered(o, ideal.mask))


def _covered(o: BruhatOrder, mask: int) -> int:
    """Mask of the elements with an upper cover in mask."""
    n, (gather, width) = o.g.order, o._cover_gather
    columns, full, below = gather(mask_bits(mask, n)), o.full_mask, 0
    for c in range(width):
        below |= columns >> c * n & full
    return below


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

    Like leq, this reads the down masks when they have been built and
    never builds them.  Otherwise it closes xs in one sweep down the
    ids over the covers built from the group table, never over covers
    given to a copy, so a forged cover list cannot hide a generator
    from the regeneration check of minimal_generators.
    """
    g, xs = o.g, list(xs)
    for x in xs:
        g._check_id(x)
    down = vars(o).get("down")
    if down is not None:
        m = 0
        for x in xs:
            m |= down[x]
        return Ideal(g, m)
    covers, below = o._table_covers, set(xs)
    for y in range(max(xs, default=0), 0, -1):  # covers have smaller ids
        if y in below:
            below.update(covers[y])
    return Ideal(g, mask_of(below, g.order))


def minimal_generators(o: BruhatOrder, ideal: Ideal) -> list[int]:
    """Maximal elements of the ideal, sorted by id, so by (length, id).

    In a downward-closed set a member lies below another member exactly
    when some member covers it, so these are the members no member
    covers; they must regenerate the ideal.
    """
    below = _ideal_covered(o, ideal)
    if below & ~ideal.mask:
        raise InvalidInputError("not an ideal")
    gens = _bit_positions(ideal.mask & ~below)
    require(ideal_from_elements(o, gens).mask == ideal.mask,
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
    perp = _cached(ideal, "_perp", o, lambda: _orthogonal(o, ideal))
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
    _cached(perp, "_perp", o, lambda: ideal)
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

def _propagate(down: list[int], w0, in_mask: int, out_mask: int,
               todo: list[int]) -> tuple[int, int] | None:
    """Force the pending elements into I and close under the rules.

    I is downward closed, so x joining I brings down[x].  Exactly one of
    {x, w0 x} is in I, so "x out" means "w0 x in": each b that joins sets
    bit w0 b of out_mask, which stays w0 * in_mask and, as w0 reverses
    the order, upward closed with no masks of its own.  Returns None on
    contradiction, an element both in and out.
    """
    while todo:
        add = down[todo.pop()] & ~in_mask
        if not add:
            continue
        in_mask |= add
        # a few bits join per step: a loop beats a whole-mask gather here
        for b in _bit_positions(add):
            out_mask |= 1 << w0(b)
        if in_mask & out_mask:
            return None
    return in_mask, out_mask


def enumerate_balanced(o: BruhatOrder, invariance=None,
                       max_order: int | None = None) -> list[Ideal]:
    """All balanced (optionally right-invariant) ideals, sorted by
    (generator count, generator word list).

    Backtracking over the pairs {x, w0 x} in increasing length of the
    shorter member; the branches of x are "w0 x in" and "x in".  A search
    that finds more than LIST_BUDGET ideals is refused before any is
    certified.
    """
    _, certified = _enumerate_certified(o, invariance, max_order)
    return [Ideal(o.g, mask) for mask, _ in certified]


def _enumerate_certified(o: BruhatOrder, invariance=None,
                         max_order: int | None = None
                         ) -> tuple[list[int], list[tuple[int, bytes]]]:
    """enumerate_balanced as masks, each with its certified generators.

    Returns (used, [(mask, row)]): used lists every element that
    generates some result, in canonical word order, and byte j of row
    is 1 when used[j] generates the ideal, so compress(used, row) lists
    its generators in word order.

    Under invariance, down[x] becomes the union of down over x's coset
    x W_P, the principal ideal of its longest member t.  That is a union
    of cosets, as each s in theta is a descent of t and so u <= t gives
    u s <= t (lifting, Bjorner-Brenti, Prop. 2.2.7); so are the out-sets,
    as w0 (x W_P) = (w0 x) W_P, and _propagate needs no coset rule.
    """
    g = o.g
    check_enumeration_budget(g.rs.cartan_type, max_order)
    if o.down is None:
        raise InvalidInputError("enumeration needs the dense order masks")
    if invariance is not None:
        check_group(g, invariance)

    # the small elements, x <= w0 x, read straight from the masks
    down, w0 = o.down, g.w0_left
    # a branch is decided only if down[x] holds x; else it never ends
    require(all(m >> x & 1 for x, m in enumerate(down)),
            "down[x] must contain x")
    seeds = [x for x in range(g.order) if down[w0(x)] >> x & 1]
    if invariance is not None:
        fold: dict[int, int] = {}
        for x, rep in enumerate(invariance.coset_of):
            fold[rep] = fold.get(rep, 0) | down[x]
        down = [fold[rep] for rep in invariance.coset_of]
    seeded = _propagate(down, w0, 0, 0, seeds)
    if seeded is None:
        return [], []

    # the member of each pair {x, w0 x} that comes first by (length, id)
    pairs = [x for x in range(g.order) if x < w0(x)]

    results = []
    stack = [(seeded[0], seeded[1], 0)]
    while stack:
        in_mask, out_mask, idx = stack.pop()
        decided = in_mask | out_mask
        while idx < len(pairs) and decided >> pairs[idx] & 1:
            idx += 1
        if idx == len(pairs):
            if len(results) == LIST_BUDGET:
                raise BudgetExceededError(
                    f"more than {LIST_BUDGET} balanced ideals to list")
            results.append((in_mask, out_mask))
            continue
        x = pairs[idx]
        for branch in (w0(x), x):  # x popped first: IN branch first
            closed = _propagate(down, w0, in_mask, out_mask, [branch])
            if closed is not None:
                stack.append((closed[0], closed[1], idx))

    gen_cols = _certify_all(o, results, invariance)
    # the generators in canonical word order: row r of the transposed
    # columns then compares as the word list of result r, once its bytes
    # are flipped (the earlier word present sorts first)
    used = sorted((x for x, c in enumerate(gen_cols) if c), key=g.reduced_word)
    rows = _rows([gen_cols[x] for x in used], len(results))
    keys = [(row.count(1), row.translate(_FLIP)) for row in rows]
    return used, [(results[r][0], rows[r])
                  for r in sorted(range(len(results)), key=keys.__getitem__)]


def _columns(masks: list[int], n: int) -> list[int]:
    """Transpose: bit r of column y is bit y of masks[r].

    Each block of CERTIFY_BLOCK masks is rendered as one string of
    n-digit rows, last mask first, so the stride-n slice at n - 1 - y
    reads element y down the block as a binary number; blocks are
    shifted into place, and the string never outgrows one block.
    """
    cols = [0] * n
    for start in range(0, len(masks), CERTIFY_BLOCK):
        text = "".join(f"{m:0{n}b}"
                       for m in reversed(masks[start:start + CERTIFY_BLOCK]))
        for y in range(n):
            cols[y] |= int(text[n - 1 - y::n], 2) << start
    return cols


def _certify_all(o: BruhatOrder, results: list[tuple[int, int]],
                 invariance) -> list[int]:
    """Certify the search results (in_mask, out_mask) all at once.

    Returns the generator columns G below.  Each result must decide
    every element and hold half of W.  The rest runs on columns: R[y]
    has bit r set when result r contains y, so each check costs
    O(|W| + cover edges) big-int operations, whatever the count.
    Downward closed: every R[y] with y covering x lies inside R[x].
    Equal to its orthogonal: R[w0 y] = ALL ^ R[y].  Under invariance,
    a union of cosets: R[y] = R[y s] for s in theta.  The generators of
    result r are the x with bit r in G[x] = R[x] & ~OR{R[y] : y covers x};
    they must regenerate the result through the down masks.  Covers,
    the w0 table and the group table are read here, and the down masks
    only to regenerate, so a forged cover list cannot hide a generator.
    """
    g, n, full = o.g, o.g.order, o.full_mask
    require(all(i | u == full for i, u in results),
            "search result leaves elements undecided")
    require(all(2 * i.bit_count() == n for i, _ in results),
            "search result does not hold half of W")
    masks = [i for i, _ in results]
    cols = _columns(masks, n)
    every = (1 << len(masks)) - 1
    above = []
    for ys in o._upper:
        a = 0
        for y in ys:
            a |= cols[y]
        above.append(a)
    require(all(a & ~c == 0 for a, c in zip(above, cols)),
            "search result is not downward closed")
    require(all(cols[g.w0_left(y)] == every ^ c for y, c in enumerate(cols)),
            "search result differs from its orthogonal")
    require(invariance is None or all(
        c == cols[g.rmult[y][i]]
        for y, c in enumerate(cols) for i in invariance.theta),
        "search result is not a union of cosets")
    gen_cols = [c & ~a for c, a in zip(cols, above)]
    # regenerate through the down masks: bit r of regen[x] says that x
    # lies below a generator of result r
    down, regen = o.down, [0] * n
    for y, gen in enumerate(gen_cols):
        if gen:
            for x in _bit_positions(down[y]):
                regen[x] |= gen
    require(regen == cols, "maximal elements do not regenerate the ideal")
    return gen_cols


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
