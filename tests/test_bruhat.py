import gc
import itertools
import random
import weakref

import pytest

from conftest import COVER_TYPES, check_record, forge, no_weyl_group
from weylkit import bruhat, cartan
from weylkit.bruhat import (_certify_all, build_order, classify,
                            enumerate_balanced,
                            ideal_from_elements, ideal_from_json_dict,
                            ideal_to_json_dict, is_downward_closed, is_small,
                            leq, minimal_generators, orthogonal,
                            principal_ideal, subword_ideal_mask,
                            verify_short_small)
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import (BudgetExceededError, InvalidInputError,
                            VerificationError)
from weylkit.families import lower_half_with_selection, middle_level_pairs
from weylkit.parabolic import build_parabolic, is_right_invariant
from weylkit.weyl import generate

rng = random.Random(1823)


def make_order(spec, dense_limit=None):
    g = generate(build_root_system(parse_type(spec)))
    return g, build_order(g, dense_limit=dense_limit)


def test_covers_drop_length_by_one():
    for spec in ["A2", "B2", "G2", "A3", "B3"]:
        g, o = make_order(spec)
        assert [y for y in range(g.order) if 0 in o.covers[y]] == \
            sorted(g.generators)
        for y in range(g.order):
            for x in o.covers[y]:
                assert g.length[x] == g.length[y] - 1
        # w0 dominates everything
        assert o.down[g.w0] == o.full_mask


def reflection_covers(g):
    """Covers by composing signed actions: for each positive root j that
    y sends negative, y t_j is covered by y when it is one shorter.

    The reflections t_j are the closure of the generators under
    conjugation, |Sigma^+| involutions other than e, each matched to the
    one positive root it negates.
    """
    refls, queue = set(g.generators), list(g.generators)
    while queue:
        t = queue.pop()
        for i in range(g.rank):
            u = g.multiply(g.generators[i], g.rmult[t][i])  # s_i t s_i
            if u not in refls:
                refls.add(u)
                queue.append(u)
    assert len(refls) == g.n_positive
    root_of = {}
    for t in refls:
        assert t != 0 and g.multiply(t, t) == 0
        sent = [j for j, v in enumerate(g.acts[t]) if v == -(j + 1)]
        assert len(sent) == 1, "reflection must negate exactly its own root"
        root_of[sent[0]] = t
    assert sorted(root_of) == list(range(g.n_positive)), \
        "reflections and positive roots do not match one to one"
    refl_acts = [g.acts[root_of[j]] for j in range(g.n_positive)]

    id_of = {a: x for x, a in enumerate(g.acts)}
    covers = []
    for y, ay in enumerate(g.acts):
        found = []
        for j, v in enumerate(ay):
            if v < 0:
                yt = tuple(ay[w - 1] if w > 0 else -ay[-w - 1]
                           for w in refl_acts[j])
                if g.length[id_of[yt]] == g.length[y] - 1:
                    found.append(id_of[yt])
        covers.append(sorted(found))
    return covers


def test_descent_recursion_covers_match_reflection_covers():
    for spec in COVER_TYPES:
        g = generate(build_root_system(parse_type(spec)))
        want = reflection_covers(g)
        for limit in (None, 0):
            o = build_order(g, dense_limit=limit)
            assert o.covers == want, (spec, limit)


def test_ids_are_the_length_id_order():
    def by_length_id(g, xs):
        return sorted(xs, key=lambda x: (g.length[x], x))

    for spec in COVER_TYPES:
        t = parse_type(spec)
        g, o = make_order(spec)
        assert all(a <= b for a, b in zip(g.length, g.length[1:])), spec
        for _ in range(5):
            ideal = ideal_from_elements(
                o, [rng.randrange(g.order) for _ in range(3)])
            gens = minimal_generators(o, ideal)
            assert gens == by_length_id(g, gens), spec
        for theta in [(), (0,), tuple(range(1, g.rank)),
                      tuple(range(0, g.rank, 2)), tuple(range(g.rank))]:
            p = build_parabolic(g, theta)
            assert p.min_reps == by_length_id(g, set(p.coset_of)), spec
            assert p.subgroup == by_length_id(g, p.subgroup), spec
        for max_len in (1, 2):
            short = [x for x in range(g.order) if 0 < g.length[x] <= max_len
                     and not is_small(o, x)]
            assert verify_short_small(t, max_len).witnesses == tuple(
                g.reduced_word(x) for x in by_length_id(g, short)), spec


def test_members_match_bit_loop():
    def bit_loop(m):
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    g = generate(build_root_system(parse_type("A1")))
    for bits in (1, 2, 5, 64, 65, 1000, 5040):
        for density in (0.0, 0.01, 0.5, 1.0):
            mask = sum(1 << i for i in range(bits) if rng.random() < density)
            assert bruhat.Ideal(g, mask).members() == bit_loop(mask)


def test_mask_of_matches_shift_loop():
    draw = random.Random(1301)      # leaves the shared rng's draws alone
    for n in (1, 2, 5, 64, 65, 1000, 5040):
        for density in (0.0, 0.01, 0.5, 1.0):
            xs = [x for x in range(n) if draw.random() < density]
            draw.shuffle(xs)
            m = 0
            for x in xs:
                m |= 1 << x
            assert bruhat.mask_of(xs, n) == m
            assert bruhat.mask_of(xs + xs[:3], n) == m   # repeats


def test_leq_is_a_partial_order_graded_by_length():
    g, o = make_order("A3")
    for x in range(g.order):
        assert leq(o, x, x)
        assert leq(o, 0, x)
    for _ in range(500):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        if leq(o, x, y) and leq(o, y, x):
            assert x == y
        if leq(o, x, y) and x != y:
            assert g.length[x] < g.length[y]
        z = rng.randrange(g.order)
        if leq(o, x, y) and leq(o, y, z):
            assert leq(o, x, z)


def test_bad_ids_are_refused_as_check_id_refuses_them():
    """A float, a bool, a string or an id out of range is refused with
    InvalidInputError by leq, with the masks built and by the walk, by
    is_small, ideal membership and lower_half_with_selection; a float,
    a bool or a string generator index by build_parabolic and
    word_to_id."""
    bad_ids = (1.0, True, False, "1", -1, 6, 10**5000)
    for limit in (None, 0):
        g, o = make_order("A2", dense_limit=limit)
        assert (o.down is None) == (limit == 0)
        ideal = principal_ideal(o, 3)
        for bad in bad_ids:
            for x, y in ((bad, 2), (0, bad), (bad, bad)):
                with pytest.raises(InvalidInputError, match="element id"):
                    leq(o, x, y)
            with pytest.raises(InvalidInputError, match="element id"):
                is_small(o, bad)
            with pytest.raises(InvalidInputError, match="element id"):
                bad in ideal
        assert leq(o, 1, 3) and not leq(o, 3, 1) and is_small(o, 1)
        assert [x in ideal for x in range(g.order)] == \
            [True, True, True, True, False, False]
    for bad in (1.0, True, "0", [0]):
        with pytest.raises(InvalidInputError,
                           match="generator index .* is not an int"):
            build_parabolic(g, (bad,))
        with pytest.raises(InvalidInputError, match="letter .* is not an int"):
            g.word_to_id((0, bad))
    assert build_parabolic(g, (1, 1, 0)).theta == (0, 1)
    _, o = make_order("A3")
    for bad in (1.0, True, [0], -1):
        with pytest.raises(InvalidInputError, match="element id"):
            lower_half_with_selection(o, [bad])


def test_down_masks_match_subword_criterion():
    for spec in ["A1", "A2", "A3", "B2", "B3", "G2", "A1xA2"]:
        g, o = make_order(spec)
        for y in range(g.order):
            assert o.down[y] == subword_ideal_mask(o, y)


def test_lifting_recursion_matches_masks():
    for spec, n_pairs in [("A3", None), ("B3", None), ("G2", None),
                          ("A2xA1", None), ("D4", 2000), ("F4", 2000)]:
        g, o = make_order(spec)
        g2, o2 = make_order(spec, dense_limit=0)
        assert o2.down is None
        if n_pairs is None:
            pairs = itertools.product(range(g.order), repeat=2)
        else:
            pairs = [(rng.randrange(g.order), rng.randrange(g.order))
                     for _ in range(n_pairs)]

        def state():     # o2's and g2's attributes, lists copied a level
            return [{k: list(v) if isinstance(v, list) else v
                     for k, v in vars(t).items()} for t in (o2, g2)]

        before = state()
        for x, y in pairs:
            assert leq(o2, x, y) == bool(o.down[y] >> x & 1), (spec, x, y)
        assert state() == before, spec   # the walk keeps no state


def test_build_order_builds_nothing_until_read(monkeypatch):
    g = generate(build_root_system(parse_type("B3")))

    def refuse(*args, **kwargs):
        pytest.fail("built before it was read")

    with monkeypatch.context() as m:
        m.setattr(bruhat, "_descent_covers", refuse)
        m.setattr(bruhat, "_down_masks", refuse)
        o, bare = build_order(g), build_order(g, dense_limit=0)
        assert bare.down is None
        for x, y in itertools.product(range(g.order), repeat=2):
            leq(o, x, y)
        assert not {"covers", "down"} & set(vars(o))
        with pytest.raises(InvalidInputError, match="element id -1 out"):
            leq(o, -1, 0)
        with pytest.raises(InvalidInputError, match=f"id {g.order} out"):
            leq(o, 0, g.order)
    assert o.covers == reflection_covers(g)
    assert "down" not in vars(o)
    assert o.down[g.w0] == o.full_mask


def test_leq_matches_subwords_on_every_pair():
    """On a fresh order, which walks and builds no masks, on one whose
    masks were read, and on one above the dense limit."""
    for spec in COVER_TYPES:
        g = generate(build_root_system(parse_type(spec)))
        fresh, dense = build_order(g), build_order(g)
        bare = build_order(g, dense_limit=0)
        assert dense.down is not None and bare.down is None
        xs = range(g.order)
        for y in xs:
            want = subword_ideal_mask(fresh, y)
            for o in (fresh, dense, bare):
                got = itertools.compress(
                    xs, map(leq, itertools.repeat(o), xs, itertools.repeat(y)))
                assert bruhat.mask_of(got, g.order) == want, (spec, y)
        assert "down" not in vars(fresh), spec


def test_principal_ideal_and_generators():
    g, o = make_order("B2")
    for x in range(g.order):
        i = principal_ideal(o, x)
        assert is_downward_closed(o, i.mask)
        assert max(i.members(), key=lambda z: (g.length[z], z)) == \
            max(i.members(), key=lambda z: g.length[z])
        assert minimal_generators(o, i) == [x]


def test_ideal_from_elements_closes_downward():
    g, o = make_order("A3")
    for _ in range(50):
        seeds = [rng.randrange(g.order) for _ in range(3)]
        i = ideal_from_elements(o, seeds)
        assert is_downward_closed(o, i.mask)
        for s in seeds:
            assert s in i
        gens = minimal_generators(o, i)
        assert ideal_from_elements(o, gens).mask == i.mask


def test_regeneration_reads_no_cover_list_given_to_the_order():
    """With no masks built, the maximal elements regenerate over covers
    built from the group table, so a forged cover list that hides a
    generator fails the check."""
    g, o = make_order("A3")
    ideal, gens = next((i, gens) for i in enumerate_balanced(o)
                       if len(gens := minimal_generators(o, i)) > 1)
    # the identity, or a later generator, claims to cover the first
    # generator, so it drops out
    for claimant in (0, gens[-1]):
        covers = list(o.covers)
        covers[claimant] = covers[claimant] + [gens[0]]
        forged = forge(o, covers=covers, down=None)
        with pytest.raises(VerificationError, match="do not regenerate"):
            minimal_generators(forged, ideal)


def test_mask_free_ideals_match_dense():
    """Without the down masks an ideal is closed over the covers of the
    group table; every ideal built from elements must agree."""
    draw = random.Random(1302)      # leaves the shared rng's draws alone
    for spec in COVER_TYPES:
        g = generate(build_root_system(parse_type(spec)))
        dense, bare = build_order(g), build_order(g, dense_limit=0)
        assert bare.down is None
        for x in [0, g.w0] + [draw.randrange(g.order) for _ in range(6)]:
            assert principal_ideal(bare, x) == principal_ideal(dense, x), spec
        for _ in range(3):
            seeds = [draw.randrange(g.order) for _ in range(3)]
            ideal = ideal_from_elements(bare, seeds)
            assert ideal == ideal_from_elements(dense, seeds), spec
            gens = minimal_generators(bare, ideal)
            assert gens == minimal_generators(dense, ideal), spec
            data = ideal_to_json_dict(dense, ideal)
            assert ideal_from_json_dict(bare, data) == ideal, spec


def test_ideal_generation_reads_no_masks():
    """Ideals are generated over the table covers even when the masks
    are built: with every down mask zeroed, each principal ideal and
    each ideal of a pair {x, w0 x} still matches the subword oracle."""
    for spec in ["A3", "B3", "D4"]:
        g, o = make_order(spec)
        assert o.down is not None
        want = [subword_ideal_mask(o, y) for y in range(g.order)]
        o.__dict__["down"] = [0] * g.order
        for x in range(g.order):
            assert principal_ideal(o, x).mask == want[x], (spec, x)
            pair = ideal_from_elements(o, [x, g.w0_left(x)])
            assert pair.mask == want[x] | want[g.w0_left(x)], (spec, x)


def test_orthogonal_involution_swaps_slim_fat():
    for spec in ["A2", "B2", "A3"]:
        g, o = make_order(spec)
        for x in range(g.order):
            i = principal_ideal(o, x)
            p = orthogonal(o, i)
            assert i.size + p.size == g.order
            assert orthogonal(o, p).mask == i.mask
            ci, cp = classify(o, i), classify(o, p)
            assert ci.slim == cp.fat and ci.fat == cp.slim


def test_orthogonal_returns_one_object_per_order():
    g, o = make_order("A3")
    for x in range(g.order):
        i = principal_ideal(o, x)
        p = orthogonal(o, i)
        assert orthogonal(o, i) is p
        assert orthogonal(o, p) is i
        assert (p is i) == classify(o, i).balanced
    # the memo holds its order weakly: a copy is another owner
    other = forge(o)
    i = principal_ideal(o, 1)
    p = orthogonal(o, i)
    q = orthogonal(other, i)
    assert q is not p and q.mask == p.mask


def test_orthogonal_memo_keeps_no_order_alive():
    g, o = make_order("A2")
    ideals = [principal_ideal(o, x) for x in range(g.order)]
    perps = [orthogonal(o, i) for i in ideals]
    ref = weakref.ref(o)
    del o
    gc.collect()
    assert ref() is None and len(perps) == g.order


def test_small_elements_sit_in_every_fat_ideal():
    g, o = make_order("B2")
    small = [x for x in range(g.order) if is_small(o, x)]
    for x in range(g.order):
        i = principal_ideal(o, x)
        if classify(o, i).fat:
            for s in small:
                assert s in i


def brute_balanced(o):
    """All down-closed transversals of the {x, w0 x} pairs."""
    g = o.g
    pairs = []
    seen = set()
    for x in range(g.order):
        if x not in seen:
            px = g.w0_left(x)
            seen.add(x)
            seen.add(px)
            pairs.append((x, px))
    out = []
    for choice in itertools.product(range(2), repeat=len(pairs)):
        m = 0
        for (a, b), c in zip(pairs, choice):
            m |= 1 << (a if c == 0 else b)
        if is_downward_closed(o, m):
            out.append(m)
    return sorted(out)


def test_balanced_enumeration_matches_brute_force():
    for spec, count in [("A1", 1), ("A1xA1", 2), ("A2", 1), ("B2", 2),
                        ("A3", 10)]:
        g, o = make_order(spec)
        got = enumerate_balanced(o)
        assert sorted(i.mask for i in got) == brute_balanced(o)
        assert len(got) == count
        for i in got:
            c = classify(o, i)
            assert c.balanced and c.slim and c.fat
            assert 2 * i.size == g.order


# OEIS A001206, self-dual monotone Boolean functions of n variables
SELF_DUAL_MONOTONE = [1, 2, 4, 12, 81, 2646]


@pytest.mark.parametrize("n", range(1, len(SELF_DUAL_MONOTONE) + 1))
def test_balanced_ideals_of_a1_power_are_self_dual_monotone_functions(n):
    """W(A1^n) under the Bruhat order is the Boolean lattice of subsets
    of the n generators, and w0, the full set, takes a subset to its
    complement.  So a balanced ideal is a down-set holding exactly one
    of each complementary pair: the false set of a self-dual monotone
    Boolean function, counted independently by OEIS A001206."""
    g, o = make_order("x".join(["A1"] * n))
    ideals = enumerate_balanced(o)
    assert len(ideals) == SELF_DUAL_MONOTONE[n - 1]
    assert all(2 * i.size == g.order == 2**n for i in ideals)


def test_balanced_enumeration_is_deterministic():
    g, o = make_order("B3")
    first = [ideal_to_json_dict(o, i) for i in enumerate_balanced(o)]
    second = [ideal_to_json_dict(o, i) for i in enumerate_balanced(o)]
    assert first == second
    assert len(first) == 29


PARITY_TYPES = ["A1", "A2", "A3", "B2", "G2", "B3", "C3", "A4", "A2xA1",
                "B2xA1", "A2xA2", "B2xA2", "A1xA1xA1"]


def test_right_invariant_enumeration_filters():
    """For every theta, the invariant search lists exactly the right-
    invariant members of the full list, in its order.  The full list
    is filtered member by member, so the odd coset counts, which the
    invariant search answers without searching, are checked too."""
    thetas = odd = 0
    for spec in PARITY_TYPES:
        g, o = make_order(spec)
        every = enumerate_balanced(o)
        for k in range(g.rank + 1):
            for theta in itertools.combinations(range(g.rank), k):
                p = build_parabolic(g, theta)
                want = [i.mask for i in every if is_right_invariant(i, p)]
                got = [i.mask for i in enumerate_balanced(o, invariance=p)]
                assert got == want, (spec, theta)
                thetas += 1
                odd += p.n_cosets % 2
    assert (thetas, odd) == (110, 29)


def test_odd_coset_count_answers_without_the_order(monkeypatch):
    """A2 over W_P = <s1> has 3 cosets: no balanced ideal is a union of
    them, and the answer reads neither covers nor masks nor searches."""
    def refuse(*args, **kwargs):
        pytest.fail("searched for an odd coset count")

    monkeypatch.setattr(bruhat, "_propagate", refuse)
    g, o = make_order("A2")
    p = build_parabolic(g, (0,))
    assert p.n_cosets == 3
    assert enumerate_balanced(o, invariance=p) == []
    assert "down" not in vars(o) and "covers" not in vars(o)


def _closure_by_members(o, p, pushed):
    """Reference for _propagate from nothing: close under down and under
    whole cosets, member by member; None if I meets w0 I."""
    g, cosets = o.g, {}
    for x, rep in enumerate(p.coset_of):
        cosets[rep] = cosets.get(rep, 0) | 1 << x
    m, done, todo = 0, set(), list(pushed)
    while todo:
        x = todo.pop()
        if x not in done:
            done.add(x)
            m |= o.down[x] | cosets[p.coset_of[x]]
            todo.extend(y for y in range(g.order) if m >> y & 1)
    out = 0
    for x in range(g.order):
        if m >> x & 1:
            out |= 1 << g.w0_left(x)
    return None if m & out else (m, out)


def test_coset_propagation_by_longest_member_matches_members():
    """The folded masks are the principal ideals of the coset tops, each
    a union of cosets, and the one propagation rule over them closes
    exactly as the member-by-member reference."""
    for spec in ["A3", "B3", "G2", "A2xA1", "B2xA1", "D4"]:
        g, o = make_order(spec)
        for k in range(1, g.rank + 1):
            for theta in itertools.combinations(range(g.rank), k):
                p = build_parabolic(g, theta)
                # the fold of _enumerate_certified: down over each coset
                fold, top = {}, {}
                for x, rep in enumerate(p.coset_of):
                    fold[rep] = fold.get(rep, 0) | o.down[x]
                    if g.length[x] > g.length[top.get(rep, rep)]:
                        top[rep] = x
                folded = [fold[rep] for rep in p.coset_of]
                for x, m in enumerate(folded):
                    assert m == o.down[top[p.coset_of[x]]]
                    assert is_right_invariant(bruhat.Ideal(g, m), p)
                for _ in range(4):
                    pushed = rng.sample(range(g.order), rng.randint(1, 3))
                    got = bruhat._propagate(folded, g.w0_left, 0, 0,
                                            list(pushed))
                    want = _closure_by_members(o, p, pushed)
                    assert (got is None) == (want is None)
                    assert got is None or got[0] == want[0]


def test_hit_rule_matches_w0_image_for_every_theta():
    """I, the union of the folded down over a forced set, meets w0 I
    exactly when it meets the w0 images of the forced elements, for
    forced sets of coset members that are not the coset top."""
    for spec in COVER_TYPES:
        g, o = make_order(spec)
        w0 = g.w0_left
        for k in range(g.rank + 1):
            for theta in itertools.combinations(range(g.rank), k):
                p = build_parabolic(g, theta)
                fold, top = {}, {}
                for x, rep in enumerate(p.coset_of):
                    fold[rep] = fold.get(rep, 0) | o.down[x]
                    if g.length[x] > g.length[top.get(rep, rep)]:
                        top[rep] = x
                folded = [fold[rep] for rep in p.coset_of]
                tops = set(top.values())
                others = [x for x in range(g.order) if x not in tops]
                for _ in range(3):
                    pool = others if others and rng.random() < 0.5 \
                        else range(g.order)
                    forced = rng.sample(pool, min(len(pool),
                                                  rng.randint(1, 4)))
                    m = hit = 0
                    for b in forced:
                        m |= folded[b]
                        hit |= 1 << w0(b)
                    image = sum(1 << w0(x) for x in range(g.order)
                                if m >> x & 1)
                    assert bool(m & hit) == bool(m & image), (spec, theta)
                    got = bruhat._propagate(folded, w0, 0, 0, forced)
                    assert got == (None if m & image else (m, hit))


def _search_by_propagate(down, inv):
    """_search with each branch forced through _propagate, as it was
    written before the forcing went inline: the reference for it."""
    n, w0 = len(down), inv.__getitem__
    seeded = bruhat._propagate(down, w0, 0, 0,
                               [x for x in range(n) if down[inv[x]] >> x & 1])
    if seeded is None:
        return []
    pairs = [x for x in range(n) if x < inv[x]]
    pair_bits = [1 << x | 1 << inv[x] for x in pairs]
    results, stack = [], [(*seeded, 0)]
    while stack:
        in_mask, hit, idx = stack.pop()
        while idx < len(pairs) and in_mask & pair_bits[idx]:
            idx += 1
        if idx == len(pairs):
            if len(results) == bruhat.LIST_BUDGET:
                raise BudgetExceededError("over")
            results.append(in_mask)
            continue
        x = pairs[idx]
        for branch in (inv[x], x):
            closed = bruhat._propagate(down, w0, in_mask, hit, (branch,))
            if closed is not None:
                stack.append((*closed, idx))
    return results


# results past which both searches stop, so that the larger types
# (D5 over a small W_P lists more than LIST_BUDGET) stay quick
SEARCH_CAP = 400


def test_inline_forcing_is_propagate(monkeypatch):
    """_search lists what the per-branch _propagate loop lists, in the
    same order, on the folded masks of every theta with an even coset
    count; past SEARCH_CAP results both refuse."""
    monkeypatch.setattr(bruhat, "LIST_BUDGET", SEARCH_CAP)

    def outcome(search, down, inv):
        try:
            return search(down, inv)
        except BudgetExceededError:
            return "over"

    checked = over = 0
    for spec in COVER_TYPES:
        g, o = make_order(spec)
        for k in range(g.rank + 1):
            for theta in itertools.combinations(range(g.rank), k):
                p = build_parabolic(g, theta)
                if p.n_cosets % 2:
                    continue
                top = dict(zip(p.coset_of, range(g.order)))
                folded = [o.down[top[rep]] for rep in p.coset_of]
                got = outcome(bruhat._search, folded, g._w0_left)
                assert got == outcome(_search_by_propagate, folded,
                                      g._w0_left), (spec, theta)
                checked += 1
                over += got == "over"
    assert over < checked


@pytest.mark.parametrize("spec, theta", [
    ("A2", ()), ("A3", ()), ("B3", ()), ("C3", ()), ("A2xA2", ()),
    ("B2xA2", ()), ("A4", ()), ("D4", (3,)), ("B4", (0, 1)),
    ("A5", (0, 1, 2))])
def test_enumerated_generator_masks_match_the_cover_path(spec, theta):
    """The generator mask each enumerated ideal keeps, one transposition
    of the certified columns, is the one _generator_mask finds for a
    fresh ideal of the same mask through the covered pass, checked by
    regeneration over the table covers."""
    g, o = make_order(spec)
    p = build_parabolic(g, theta) if theta else None
    ideals = enumerate_balanced(o, invariance=p, max_order=g.order)
    assert ideals
    for ideal in ideals:
        owner, gens = ideal.__dict__["_gens"]
        assert owner() is o
        assert gens == bruhat._generator_mask(o, bruhat.Ideal(g, ideal.mask))


def test_invariant_counts_agree_across_diagram_symmetry():
    # labellings related by a diagram automorphism must give equal
    # counts, however differently the search meets them
    for spec, thetas, count in [("D4", [(0,), (2,), (3,)], 562),
                                ("A5", [(0, 1, 2), (2, 3, 4)], 5),
                                ("A6", [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)], 0)]:
        g, o = make_order(spec)
        for theta in thetas:
            p = build_parabolic(g, theta)
            assert len(enumerate_balanced(o, invariance=p,
                                          max_order=g.order)) == count


def test_certification_rejects_each_broken_property():
    g, o = make_order("A3")
    ideals = enumerate_balanced(o)
    ok = ideals[0].mask
    # a fresh ideal: the enumerated one holds the certified generators
    gens = minimal_generators(o, bruhat.Ideal(g, ok))
    gen_cols = _certify_all(o, [ok], None)
    assert [x for x, c in enumerate(gen_cols) if c] == gens
    top = 1 << g.w0
    shifted = (ok & ~1) | top           # the identity swapped for w0

    # W_{<3} plus both members of one middle pair and one of another:
    # downward closed and half of W, so it misses the third middle pair
    # and is not its own orthogonal
    (a, pa), (b, _) = middle_level_pairs(g)[:2]
    twice = 1 << a | 1 << pa | 1 << b
    for x in range(g.order):
        if g.length[x] < 3:
            twice |= 1 << x

    p = build_parabolic(g, (0,))
    moved = next(i.mask for i in ideals if not is_right_invariant(i, p))

    # claim the identity covers one generator, so it drops out
    covers = list(o.covers)
    covers[0] = [gens[-1]]
    forged = forge(o, covers=covers)

    cases = [
        (o, ok & ~1, None, "undecided"),    # neither the identity nor w0
        (o, ok | top, None, "half of W"),
        (o, shifted, None, "not downward closed"),
        (o, twice, None, "undecided"),
        (o, moved, p, "union of cosets"),
        (forged, ok, None, "regenerate"),
    ]
    def sound(order, inv):
        """The enumerated results that pass alone on this order."""
        out = []
        for i in ideals:
            try:
                _certify_all(order, [i.mask], inv)
            except VerificationError:
                continue
            out.append(i.mask)
        return out

    for order, mask, inv, what in cases:
        # alone, and in the middle of results that pass, if any do
        others = sound(order, inv)
        for results in ([mask], others[:3] + [mask] + others[3:]):
            with pytest.raises(VerificationError, match=what):
                _certify_all(order, results, inv)


def test_enumeration_certifies_each_result_once(monkeypatch):
    """One certification pass covers every result; no per-ideal checks."""
    calls = {"certify": 0, "other": 0}
    seen = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "certify":
                seen.append(len(args[1]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bruhat, "_certify_all",
                        counting("certify", bruhat._certify_all))
    for fn in ("is_downward_closed", "classify", "orthogonal",
               "minimal_generators"):
        monkeypatch.setattr(bruhat, fn, counting("other", getattr(bruhat, fn)))
    g, o = make_order("B3")
    ideals = enumerate_balanced(o)
    assert calls == {"certify": 1, "other": 0}
    assert seen == [len(ideals)] == [29]


def test_balanced_budget():
    g, o = make_order("B3")
    with pytest.raises(BudgetExceededError):
        enumerate_balanced(o, max_order=10)


def test_enumeration_budget_counts_the_order_masks():
    """The masks cost about |W|^2/16 bytes: B6 (46,080) fits the mask
    budget, and E6 (51,840) is refused with the estimate in MiB."""
    assert bruhat.check_enumeration_budget(parse_type("B6"), 46080) == 46080
    with pytest.raises(BudgetExceededError,
                       match="E6: order masks need about 160 MiB > budget "
                             "149 MiB"):
        bruhat.check_enumeration_budget(parse_type("E6"), 51840)


def test_enumeration_refuses_an_order_without_masks(monkeypatch):
    """An order above its dense limit withholds its masks; enumeration
    refuses it before any search starts."""
    def refuse(*args, **kwargs):
        pytest.fail("searched without the masks")

    monkeypatch.setattr(bruhat, "_propagate", refuse)
    g, bare = make_order("A3", dense_limit=23)
    assert bare.down is None
    with pytest.raises(InvalidInputError, match="needs the dense order masks"):
        enumerate_balanced(bare)
    monkeypatch.undo()
    assert len(enumerate_balanced(build_order(g, dense_limit=24))) == 10


def test_a2_unique_balanced_ideal():
    g, o = make_order("A2")
    (ideal,) = enumerate_balanced(o)
    members = {g.reduced_word(x) for x in ideal.members()}
    assert members == {(), (0,), (1,)}
    gens = minimal_generators(o, ideal)
    assert {g.reduced_word(x) for x in gens} == {(0,), (1,)}


def test_ideal_json_round_trip():
    g, o = make_order("B2")
    for x in range(g.order):
        i = principal_ideal(o, x)
        d = ideal_to_json_dict(o, i)
        assert ideal_from_json_dict(o, d).mask == i.mask
    g3, o3 = make_order("A3")
    with pytest.raises(InvalidInputError):
        ideal_from_json_dict(o3, ideal_to_json_dict(o, principal_ideal(o, 3)))


def test_enumeration_refuses_a_parabolic_of_another_group():
    """A2xA1 and G2 both have 12 elements: the refusal reads the group,
    also for G2's whole group, one coset, which the parity exit would
    otherwise answer."""
    g, o = make_order("A2xA1")
    g2, _ = make_order("G2")
    for theta in ((), (0, 1)):
        with pytest.raises(InvalidInputError, match="share a group"):
            enumerate_balanced(o, invariance=build_parabolic(g2, theta))
    assert enumerate_balanced(o, invariance=build_parabolic(g, ()))


def test_short_small_witnesses():
    expected = {
        ("A1", 1): (False, {(0,)}),
        ("A2", 1): (True, set()),
        ("A2", 2): (False, {(0, 1), (1, 0)}),
        ("A3", 2): (False, {(1, 0), (1, 2)}),
        ("B2", 2): (False, {(0, 1), (1, 0)}),
        ("A4", 2): (True, set()),
        ("B3", 2): (True, set()),
        ("G2", 2): (True, set()),
    }
    for (spec, max_len), (want_all, want_wit) in expected.items():
        rep = verify_short_small(parse_type(spec), max_len)
        assert rep.all_small == want_all
        assert rep.expected_all_small == want_all
        assert set(rep.witnesses) == want_wit


def test_short_small_prediction_matches_scan():
    for spec in ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2",
                 "A1xA1", "A1xB2", "A2xA1"]:
        for max_len in (1, 2):
            rep = verify_short_small(parse_type(spec), max_len)
            assert rep.all_small == rep.expected_all_small


def test_short_small_needs_no_order(monkeypatch):
    """verify_short_small reads the root system only: it builds neither
    an order nor a group table, up to the largest types the table
    budget admits (A7, B6, D6, E6)."""
    def refuse(*args, **kwargs):
        pytest.fail("verify_short_small built an order")

    monkeypatch.setattr(bruhat, "build_order", refuse)
    expected = {                  # the reports of the order-based check
        ("B3", 1): (True, ()), ("B3", 2): (True, ()),
        ("D4", 1): (True, ()), ("D4", 2): (True, ()),
        ("A2xA1", 1): (False, ((2,),)),
        ("A2xA1", 2): (False, ((2,), (0, 1), (0, 2), (1, 0), (1, 2))),
        ("E6", 1): (True, ()), ("E6", 2): (True, ()),
        ("A7", 2): (True, ()), ("B6", 2): (True, ()), ("D6", 2): (True, ()),
    }
    with no_weyl_group():
        for (spec, max_len), (all_small, witnesses) in expected.items():
            t = parse_type(spec)
            assert verify_short_small(t, max_len) == bruhat.ShortSmallReport(
                cartan_type=t, max_length=max_len, all_small=all_small,
                witnesses=witnesses, expected_all_small=all_small)
        for spec in COVER_TYPES:
            for max_len in (1, 2):
                rep = verify_short_small(parse_type(spec), max_len)
                assert rep.all_small == rep.expected_all_small, spec


def test_order_keeps_nothing_upward():
    """The ideal checks and the enumeration read the downward cover
    lists: an order keeps its group, its dense limit, its cover lists,
    its down masks and its w0 gather, and no upper cover list or gather
    of them."""
    for spec in ("A3", "B3", "A2xA1", "D4"):
        g, o = make_order(spec)
        ideal = principal_ideal(o, g.order // 2)
        assert is_downward_closed(o, ideal.mask)
        orthogonal(o, ideal)
        minimal_generators(o, ideal)
        assert enumerate_balanced(o)
        assert set(vars(o)) <= {"g", "_dense_limit", "covers",
                                "_table_covers", "down", "_w0_gather"}, spec


def test_ideals_and_reports_compare_by_value():
    g, o = make_order("A3")
    m = o.down[5]
    assert bruhat.Ideal(g, m) == bruhat.Ideal(g=g, mask=m)
    assert bruhat.Ideal(g, m) == principal_ideal(o, 5)
    assert bruhat.Ideal(g, m) != bruhat.Ideal(g, o.down[6])
    assert classify(o, principal_ideal(o, 0)) == bruhat.IdealClass(
        slim=True, fat=False)
    report = verify_short_small(parse_type("A2xA1"), 1)
    assert report == verify_short_small(parse_type("a2xa1"), 1)
    assert report != verify_short_small(parse_type("A2xA1"), 2)
    space = {**vars(bruhat), **vars(cartan)}
    for rec in (classify(o, principal_ideal(o, 0)), report,
                report.cartan_type):
        check_record(rec, space)
    assert {parse_type("A2"): 1}[cartan.CartanType((("A", 2),))] == 1


def test_short_small_rejects_bad_length():
    with pytest.raises(InvalidInputError):
        verify_short_small(parse_type("A2"), 3)
