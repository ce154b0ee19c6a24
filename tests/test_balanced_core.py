"""The balanced search and its certificate on posets that are not W.

bruhat._search and bruhat._certify read plain lists: down masks, upper
covers, an involution and the permutations that must fix each result.
Here they run with Weyl group construction patched to fail, on the
Boolean lattice of [n] under complement (its balanced down-sets are the
self-dual monotone Boolean functions, OEIS A001206) and on random
P + P^op under the swap (its balanced down-sets are the down-sets of
P).  The W path on A1^n must list the Boolean lattice's results, and a
map that is not an involution must be refused.
"""

import itertools

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
    """down, upper and complement on the subsets of range(n), each
    subset coded by its bit mask."""
    size = 1 << n
    down = [sum(1 << y for y in range(x + 1) if y & ~x == 0)
            for x in range(size)]
    upper = [[x | 1 << i for i in range(n) if not x >> i & 1]
             for x in range(size)]
    return down, upper, [x ^ (size - 1) for x in range(size)]


def maximal_members(mask, upper):
    return {x for x in range(len(upper)) if mask >> x & 1
            and not any(mask >> y & 1 for y in upper[x])}


def test_certify_refuses_a_map_that_is_not_an_involution():
    """{0, 2} in an antichain of four holds a member of every pair
    {x, inv x} and half of the elements, yet under inv = [1, 0, 1, 0]
    its orthogonal inv({1, 3}) is {0}: only the involution check can
    refuse it.  Under the involution [1, 0, 3, 2] it passes."""
    down, upper = [1, 2, 4, 8], [[]] * 4
    with no_weyl_group():
        with pytest.raises(VerificationError, match="not an involution"):
            bruhat._certify([0b0101], down, upper, [1, 0, 1, 0], [])
        assert bruhat._certify([0b0101], down, upper, [1, 0, 3, 2],
                               []) == [1, 0, 1, 0]


@pytest.mark.parametrize("n", range(1, len(SELF_DUAL_MONOTONE) + 1))
def test_core_counts_the_boolean_lattice_without_a_group(n):
    down, upper, inv = boolean_lattice(n)
    with no_weyl_group():
        masks = bruhat._search(down, inv)
        gen_cols = bruhat._certify(masks, down, upper, inv, [])
    assert len(masks) == len(set(masks)) == SELF_DUAL_MONOTONE[n - 1]
    for r, mask in enumerate(masks):
        assert {x for x, c in enumerate(gen_cols) if c >> r & 1} == \
            maximal_members(mask, upper)


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
    """down, upper and the swap on P + P^op, P^op's x at m + x."""
    m = len(down_p)
    up_p = [sum(1 << y for y in range(m) if down_p[y] >> x & 1)
            for x in range(m)]

    def covers_above(x, above):
        strict = [y for y in range(m) if y != x and above[x] >> y & 1]
        return [y for y in strict
                if not any(z != y and above[z] >> y & 1 for z in strict)]

    down = down_p + [u << m for u in up_p]
    upper = ([covers_above(x, up_p) for x in range(m)]
             + [[m + y for y in covers_above(x, down_p)] for x in range(m)])
    inv = [x + m for x in range(m)] + list(range(m))
    return down, upper, inv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(posets())
def test_core_lists_the_down_sets_of_p_on_p_plus_its_opposite(down_p):
    m = len(down_p)
    ideals = sum(all(down_p[x] & ~s == 0 for x in range(m) if s >> x & 1)
                 for s in range(1 << m))
    down, upper, inv = with_opposite(down_p)
    with no_weyl_group():
        masks = bruhat._search(down, inv)
        assert len(masks) == len(set(masks)) == ideals
        gen_cols = bruhat._certify(masks, down, upper, inv, [])
        for r, mask in enumerate(masks):
            assert {x for x, c in enumerate(gen_cols) if c >> r & 1} == \
                maximal_members(mask, upper)
        for r, b in itertools.product(range(len(masks)), range(2 * m)):
            flipped = masks[:r] + [masks[r] ^ 1 << b] + masks[r + 1:]
            with pytest.raises(VerificationError):
                bruhat._certify(flipped, down, upper, inv, [])
