"""Whole-mask kernels against the per-member loops they replace.

Random product types of rank <= 3 and random ideals, generated from
random element sets: the w0 image, the covered set, right invariance
for every generator subset and the popcount graded ranks
must equal plain loops over the members; orthogonal is an involution,
the splitting identity holds, and ideal JSON round-trips.  The facts an
Ideal keeps about itself (covered set, orthogonal, graded ranks) give
the same answers as a fresh Ideal, and do not hide a forged cover list.
At rank 4, on fresh orders and on orders whose parts were already read,
downward closure, the orthogonal and the maximal elements match the
subword oracle.
"""

import functools
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import forge
from weylkit import bruhat, topology
from weylkit.bruhat import (Ideal, build_order, enumerate_balanced,
                            ideal_from_elements, ideal_from_json_dict,
                            ideal_to_json_dict, is_downward_closed,
                            mask_of, minimal_generators, orthogonal,
                            subword_ideal_mask)
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import InvalidInputError, VerificationError
from weylkit.parabolic import build_parabolic, is_right_invariant
from weylkit.weyl import generate

FACTORS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A3": 3, "B3": 3, "C3": 3}

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def product_types(draw):
    """A product of the FACTORS of total rank at most 3."""
    parts, rank = [], 0
    while rank < 3 and (not parts or draw(st.booleans())):
        name = draw(st.sampled_from(
            [f for f, r in FACTORS.items() if rank + r <= 3]))
        parts.append(name)
        rank += FACTORS[name]
    return "x".join(parts)


@functools.lru_cache(maxsize=None)
def order_of(spec):
    return build_order(generate(build_root_system(parse_type(spec))))


def thetas(rank):
    for r in range(rank + 1):
        yield from itertools.combinations(range(rank), r)


@st.composite
def ideals(draw):
    """(order, ideal) with the ideal generated by a random element set."""
    o = order_of(draw(product_types()))
    xs = draw(st.lists(st.integers(0, o.g.order - 1), max_size=4))
    return o, ideal_from_elements(o, xs)


@st.composite
def masks(draw):
    """(order, mask) for an arbitrary subset of W."""
    o = order_of(draw(product_types()))
    return o, draw(st.integers(0, o.full_mask))


def right_invariant_ideal(o, p, xs):
    """The ideal of the coset maxima of xs: a union of cosets x W_P."""
    g = o.g
    top = p.subgroup[-1]        # the longest element of W_P
    return ideal_from_elements(
        o, [g.multiply(p.coset_of[x], top) for x in xs])


@SETTINGS
@given(masks())
def test_w0_image_and_covered_match_member_loops(case):
    o, mask = case
    g = o.g
    members = [x for x in range(g.order) if mask >> x & 1]
    assert bruhat._w0_image(o, mask) == sum(1 << g.w0_left(x)
                                           for x in members)
    below = 0
    for y in members:
        for x in o.covers[y]:
            below |= 1 << x
    assert bruhat._covered(o, mask) == below
    assert bruhat.is_downward_closed(o, mask) == (below & ~mask == 0)


@SETTINGS
@given(ideals())
def test_invariance_matches_member_loops_for_every_theta(case):
    o, ideal = case
    g = o.g
    for theta in thetas(g.rank):
        p = build_parabolic(g, theta)
        right = all(ideal.mask >> g.rmult[y][i] & 1
                    for y in ideal.members() for i in theta)
        assert is_right_invariant(ideal, p) == right


@SETTINGS
@given(ideals(), st.data())
def test_graded_ranks_and_splitting(case, data):
    o, ideal = case
    g = o.g
    theta = data.draw(st.sampled_from(list(thetas(g.rank))))
    p = build_parabolic(g, theta)
    xs = [x for x in range(g.order) if ideal.mask >> x & 1][-4:]
    inv = right_invariant_ideal(o, p, xs)
    for i in (ideal, inv):
        if not any(i.mask >> g.rmult[y][s] & 1 == 0
                   for y in i.members() for s in theta):
            hist = [0] * (p.max_quotient_length + 1)
            for x in p.min_reps:
                if i.mask >> x & 1:
                    hist[g.length[x]] += 1
            assert topology._ranks(i, p) == tuple(hist)
            assert topology.thickening_ranks(i, p) == \
                topology.GradedRanks.from_even(hist)
            assert topology.splitting_check(o, i, p)
        else:
            with pytest.raises(InvalidInputError):
                topology.thickening_ranks(i, p)
    assert not any(inv.mask >> g.rmult[y][s] & 1 == 0
                   for y in inv.members() for s in theta)


@SETTINGS
@given(ideals())
def test_orthogonal_is_an_involution(case):
    o, ideal = case
    perp = orthogonal(o, ideal)
    assert perp.size + ideal.size == o.g.order
    assert orthogonal(o, perp).mask == ideal.mask


@SETTINGS
@given(ideals())
def test_ideal_json_round_trips(case):
    o, ideal = case
    text = json.dumps(ideal_to_json_dict(o, ideal))
    assert ideal_from_json_dict(o, json.loads(text)).mask == ideal.mask


RANK4 = ("A4", "B4", "D4", "F4")


@functools.lru_cache(maxsize=None)
def prebuilt_of(spec):
    """order_of(spec) with its covers and masks already read."""
    o = order_of(spec)
    assert o.covers and o.down is not None
    return o


@st.composite
def rank4_cases(draw):
    """(order, xs, picks): a rank-4 order, fresh or with its parts
    already read, up to four elements and up to six more draws."""
    o = prebuilt_of(draw(st.sampled_from(RANK4)))
    if draw(st.booleans()):
        o = build_order(o.g)
    n = o.g.order
    xs = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return o, xs, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rank4_cases())
def test_rank4_kernels_match_the_subword_oracle(case):
    """I is the union of the subword ideals of xs.  I with an element z
    added is closed iff z's ideal fits in it; I with a member removed is
    closed iff the member lies below no x but itself; the generators
    are the xs no other x lies above, and I^perp is w0 (W \\ I) by
    products."""
    o, xs, picks = case
    g, n = o.g, o.g.order
    lazy = "down" not in vars(o)
    mask = 0
    for x in xs:
        mask |= subword_ideal_mask(o, x)
    members = Ideal(g, mask).members()

    def maximal(x):
        return all(y == x or not subword_ideal_mask(o, y) >> x & 1
                   for y in xs)

    assert is_downward_closed(o, mask)
    for z in picks:
        added = mask | 1 << z
        assert is_downward_closed(o, added) == (
            subword_ideal_mask(o, z) & ~added == 0)
        if members:
            z = members[z % len(members)]
            assert is_downward_closed(o, mask ^ 1 << z) == maximal(z)
    ideal = Ideal(g, mask)
    assert orthogonal(o, ideal).mask == mask_of(
        [g.multiply(g.w0, x) for x in range(n) if not mask >> x & 1], n)
    assert lazy == ("down" not in vars(o))   # neither kernel built masks
    assert minimal_generators(o, ideal) == sorted(
        {x for x in xs if maximal(x)})


def test_masks_outside_w_are_refused():
    o = order_of("A2")
    for mask in (1 << o.g.order, -1):
        with pytest.raises(InvalidInputError):
            bruhat.is_downward_closed(o, mask)
        with pytest.raises(InvalidInputError):
            bruhat.make_ideal(o, mask)


@functools.lru_cache(maxsize=None)
def balanced_of(spec):
    return enumerate_balanced(order_of(spec))


@st.composite
def topology_cases(draw):
    """(order, ideal, parabolic): a balanced, a right-invariant or a
    random ideal, so that the topology calls both answer and refuse."""
    spec = draw(product_types())
    o = order_of(spec)
    g = o.g
    p = build_parabolic(g, draw(st.sampled_from(list(thetas(g.rank)))))
    kind = draw(st.sampled_from(["balanced", "invariant", "random"]))
    if kind == "balanced":
        return o, draw(st.sampled_from(balanced_of(spec))), p
    xs = draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    if kind == "invariant":
        return o, right_invariant_ideal(o, p, xs), p
    return o, ideal_from_elements(o, xs), p


MEMO_CALLS = {
    "orthogonal": lambda o, i, p: orthogonal(o, i).mask,
    "orthogonal twice": lambda o, i, p: orthogonal(o, orthogonal(o, i)).mask,
    "minimal_generators": lambda o, i, p: minimal_generators(o, i),
    "thickening_ranks": lambda o, i, p: topology.thickening_ranks(i, p),
    "omega_betti": topology.omega_betti,
    "euler_omega": topology.euler_omega,
    "splitting_check": topology.splitting_check,
    "hausdorff_bound": topology.hausdorff_bound,
    "ideal_to_json_dict": lambda o, i, p: ideal_to_json_dict(o, i),
}


def outcome(call, o, ideal, p):
    """The call's value, or the refusal it raised."""
    try:
        return call(o, ideal, p)
    except InvalidInputError as exc:
        return ("refused", str(exc))


@SETTINGS
@given(topology_cases())
def test_repeated_calls_match_a_fresh_ideal(case):
    o, ideal, p = case
    for _ in range(2):
        for name, call in MEMO_CALLS.items():
            fresh = Ideal(o.g, ideal.mask)
            assert outcome(call, o, ideal, p) == outcome(call, o, fresh, p), \
                name


@SETTINGS
@given(topology_cases(), st.data())
def test_memo_does_not_hide_a_forged_cover(case, data):
    """After every call on the true order, an order whose covers put an
    element of I^perp above one outside it fails orthogonal's check."""
    o, ideal, p = case
    g = o.g
    for call in MEMO_CALLS.values():
        outcome(call, o, ideal, p)
    perp = orthogonal(o, ideal).mask
    # y covers x: I stays closed when y is outside I or x inside it.
    # There is such an edge unless I is empty, all of W or balanced.
    edges = [(y, x) for y in range(g.order) if perp >> y & 1
             for x in range(g.order) if not perp >> x & 1
             and (not ideal.mask >> y & 1 or ideal.mask >> x & 1)]
    assume(edges)
    y, x = data.draw(st.sampled_from(edges))
    covers = [list(c) for c in o.covers]
    covers[y].append(x)
    forged = forge(o, covers=covers)
    with pytest.raises(VerificationError):
        orthogonal(forged, ideal)
    assert orthogonal(o, ideal).mask == perp
