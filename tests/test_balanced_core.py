"""The balanced search and its certificate on posets that are not W.

bruhat._search and bruhat._certify read plain lists: down masks, cover
lists, an involution and the permutations that must fix each result.
Here they run with Weyl group construction patched to fail, on the
Boolean lattice of [n] under complement (its balanced down-sets are the
self-dual monotone Boolean functions, OEIS A001206) and on random
P + P^op under the swap (its balanced down-sets are the down-sets of
P).  The W path on A1^n must list the Boolean lattice's results, and a
map that is not an involution must be refused, so must a false cover
that hides a generator, and the transposition of the certificate must
be its own inverse.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_weyl_group
from test_bruhat import SELF_DUAL_MONOTONE
from weylkit import bruhat, weyl
from weylkit.bruhat import build_order, enumerate_balanced
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import VerificationError


def boolean_lattice(n):
    """down, covers and complement on the subsets of range(n), each
    subset coded by its bit mask."""
    size = 1 << n
    down = [sum(1 << y for y in range(x + 1) if y & ~x == 0)
            for x in range(size)]
    covers = [[x & ~(1 << i) for i in range(n) if x >> i & 1]
              for x in range(size)]
    return down, covers, [x ^ (size - 1) for x in range(size)]


def maximal_members(mask, covers):
    members = {x for x in range(len(covers)) if mask >> x & 1}
    return members - {x for y in members for x in covers[y]}


def test_certify_refuses_a_map_that_is_not_an_involution():
    """{0, 2} in an antichain of four holds a member of every pair
    {x, inv x} and half of the elements, yet under inv = [1, 0, 1, 0]
    its orthogonal inv({1, 3}) is {0}: only the involution check can
    refuse it.  Under the involution [1, 0, 3, 2] it passes."""
    down, covers = [1, 2, 4, 8], [[]] * 4
    with no_weyl_group():
        with pytest.raises(VerificationError, match="not an involution"):
            bruhat._certify([0b0101], down, covers, [1, 0, 1, 0], [])
        assert bruhat._certify([0b0101], down, covers, [1, 0, 3, 2],
                               []) == [1, 0, 1, 0]


@pytest.mark.parametrize("n", range(1, len(SELF_DUAL_MONOTONE) + 1))
def test_core_counts_the_boolean_lattice_without_a_group(n):
    down, covers, inv = boolean_lattice(n)
    with no_weyl_group():
        masks = bruhat._search(down, inv)
        gen_cols = bruhat._certify(masks, down, covers, inv, [])
    assert len(masks) == len(set(masks)) == SELF_DUAL_MONOTONE[n - 1]
    for r, mask in enumerate(masks):
        assert {x for x, c in enumerate(gen_cols) if c >> r & 1} == \
            maximal_members(mask, covers)


@pytest.mark.parametrize("n", range(1, len(SELF_DUAL_MONOTONE) + 1))
def test_certify_refuses_a_false_cover_that_hides_a_generator(n):
    """The empty set lies in every result.  Listed as covering a true
    generator x of a result, it hides x from the result's generators
    while every other check still passes: x lies below no other
    generator, so only the regeneration through down can refuse it."""
    down, covers, inv = boolean_lattice(n)
    with no_weyl_group():
        for mask in bruhat._search(down, inv):
            for x in maximal_members(mask, covers):
                forged = [list(xs) for xs in covers]
                forged[0].append(x)
                with pytest.raises(VerificationError, match="regenerate"):
                    bruhat._certify([mask], down, forged, inv, [])


@pytest.mark.parametrize("n", range(1, len(SELF_DUAL_MONOTONE) + 1))
def test_a1_power_ideals_are_the_boolean_lattice_results(n):
    """W(A1^n) is the Boolean lattice on its letters: mapping each id to
    the letter set of its word turns the W path's ideals into the core's
    results on the lattice."""
    down, _, inv = boolean_lattice(n)
    with no_weyl_group():
        want = set(bruhat._search(down, inv))
    g = weyl.generate(build_root_system(parse_type("x".join(["A1"] * n))))
    subset = [sum(1 << i for i in g.reduced_word(x)) for x in range(g.order)]
    got = {sum(1 << subset[x] for x in ideal.members())
           for ideal in enumerate_balanced(build_order(g))}
    assert got == want


@st.composite
def posets(draw):
    """The down masks of a random poset on range(m), m <= 6: a random
    relation x < y among x < y, closed transitively."""
    m = draw(st.integers(1, 6))
    down = [1 << x for x in range(m)]
    # pairs come in lexicographic order, so down[x] is closed by the
    # time x < y is drawn
    for x, y in itertools.combinations(range(m), 2):
        if draw(st.booleans()):
            down[y] |= down[x]
    return down


def with_opposite(down_p):
    """down, covers and the swap on P + P^op, P^op's x at m + x."""
    m = len(down_p)
    up_p = [sum(1 << y for y in range(m) if down_p[y] >> x & 1)
            for x in range(m)]

    def covered(x, below):
        """The elements x covers, in the order whose down sets are below."""
        strict = [y for y in range(m) if y != x and below[x] >> y & 1]
        return [y for y in strict
                if not any(z != y and below[z] >> y & 1 for z in strict)]

    down = down_p + [u << m for u in up_p]
    covers = ([covered(x, down_p) for x in range(m)]
              + [[m + y for y in covered(x, up_p)] for x in range(m)])
    inv = [x + m for x in range(m)] + list(range(m))
    return down, covers, inv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(posets())
def test_core_lists_the_down_sets_of_p_on_p_plus_its_opposite(down_p):
    m = len(down_p)
    ideals = sum(all(down_p[x] & ~s == 0 for x in range(m) if s >> x & 1)
                 for s in range(1 << m))
    down, covers, inv = with_opposite(down_p)
    with no_weyl_group():
        masks = bruhat._search(down, inv)
        assert len(masks) == len(set(masks)) == ideals
        gen_cols = bruhat._certify(masks, down, covers, inv, [])
        for r, mask in enumerate(masks):
            assert {x for x, c in enumerate(gen_cols) if c >> r & 1} == \
                maximal_members(mask, covers)
        for r, b in itertools.product(range(len(masks)), range(2 * m)):
            flipped = masks[:r] + [masks[r] ^ 1 << b] + masks[r + 1:]
            with pytest.raises(VerificationError):
                bruhat._certify(flipped, down, covers, inv, [])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0, 1, 3, bruhat.CERTIFY_BLOCK + 5]),
       st.sampled_from([0, 1, 9, 70, bruhat.CERTIFY_BLOCK + 7]),
       st.integers(0, 2**32))
def test_columns_is_its_own_inverse(count, n, seed):
    """bit r of column y is bit y of mask r, and transposing the columns
    gives the masks back, on either side of CERTIFY_BLOCK."""
    rnd = random.Random(seed)
    masks = [rnd.getrandbits(n) for _ in range(count)]
    cols = bruhat._columns(masks, n)
    assert len(cols) == n and all(c >> count == 0 for c in cols)
    if count < 5:
        assert all(cols[y] >> r & 1 == m >> y & 1
                   for r, m in enumerate(masks) for y in range(n))
    assert bruhat._columns(cols, count) == masks
