import itertools
import random

import pytest

from conftest import COVER_TYPES
from weylkit.bruhat import (build_order, classify, is_downward_closed, leq,
                            minimal_generators, principal_ideal)
from weylkit.cartan import parse_type
from weylkit.errors import InvalidInputError, VerificationError
from weylkit.families import (ascents, build_symmetric, check_permutation,
                              distinction_witness_mu,
                              incidence_generator_perm, incidence_ideal,
                              incidence_subgroup_indices, lower_half_ideal,
                              lower_half_with_selection, middle_level_pairs,
                              perm_length, perm_table, perm_to_element,
                              principal_generator_perm, principal_2n_ideal,
                              rank_leq, symmetric_n)
from weylkit.parabolic import build_parabolic, is_right_invariant
from weylkit.weyl import build_group

rng = random.Random(5511)


def test_check_permutation():
    assert check_permutation((2, 1, 3)) == 3
    for bad in [(), (0, 1), (1, 1), (1, 3), (2,)]:
        with pytest.raises(InvalidInputError):
            check_permutation(bad)


def test_perm_length_counts_inversions():
    assert perm_length((1, 2, 3)) == 0
    assert perm_length((3, 2, 1)) == 3
    assert perm_length((2, 6, 1, 5, 4, 3)) == 8
    for _ in range(50):
        n = rng.randrange(2, 8)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        p = tuple(p)
        brute = sum(1 for i in range(n) for j in range(i + 1, n)
                    if p[i] > p[j])
        assert perm_length(p) == brute


def test_ascents():
    assert ascents((1, 2, 3)) == [1, 2]
    assert ascents((3, 2, 1)) == []
    assert ascents((2, 1, 3)) == [2]


def test_symmetric_n_requires_single_a_factor():
    g, _ = build_symmetric(4)
    assert symmetric_n(g) == 4
    from weylkit.cartan import build_root_system, parse_type
    from weylkit.weyl import generate
    with pytest.raises(InvalidInputError):
        symmetric_n(generate(build_root_system(parse_type("B2"))))


def test_perm_table_is_the_regular_action():
    for n in range(2, 7):
        g, _ = build_symmetric(n)
        table = perm_table(g)
        assert len(set(table)) == g.order
        assert table[0] == tuple(range(1, n + 1))
        for _ in range(80):
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            px, py = table[x], table[y]
            composed = tuple(px[py[i] - 1] for i in range(n))
            assert table[g.multiply(x, y)] == composed
        for x in range(g.order):
            assert perm_length(table[x]) == g.length[x]
            assert perm_to_element(g, table[x]) == x


def test_rank_criterion_matches_order():
    g, o = build_symmetric(4)
    table = perm_table(g)
    for x in range(g.order):
        for y in range(g.order):
            assert rank_leq(table[x], table[y]) == leq(o, x, y)


def test_rank_criterion_sampled_s5_s6():
    for n in (5, 6):
        g, o = build_symmetric(n)
        table = perm_table(g)
        for _ in range(2000):
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            assert rank_leq(table[x], table[y]) == leq(o, x, y)


def test_lower_half_small_cases():
    g, o = build_symmetric(3)
    ideal = lower_half_ideal(o, verify=True)
    assert {g.reduced_word(x) for x in ideal.members()} == {(), (0,), (1,)}
    g6, o6 = build_symmetric(6)
    ideal6 = lower_half_ideal(o6, verify=True)
    assert 2 * ideal6.size == g6.order
    assert max(g6.length[x] for x in ideal6.members()) == 7


def test_length_levels_match_a_scan_in_every_type():
    """The readers that take a length level as an id range agree with a
    scan of every length, in every type of the cover sweep: w0, the
    lower half (l(w0) odd), the middle pairs and a selection ideal
    (l(w0) even).  test_ids_are_the_length_id_order does the same for
    the witnesses of verify_short_small."""
    for spec in COVER_TYPES:
        g = build_group(parse_type(spec))
        o = build_order(g)
        n, (k, odd) = g.order, divmod(g.n_positive, 2)
        assert [x for x in range(n) if g.length[x] == g.n_positive] \
            == [g.w0], spec
        if odd:
            want = sum(1 << x for x in range(n) if g.length[x] <= k)
            assert lower_half_ideal(o).mask == want, spec
        else:
            pairs = sorted({tuple(sorted((x, g.w0_left(x))))
                            for x in range(n) if g.length[x] == k})
            assert middle_level_pairs(g) == pairs, spec
            chosen = {pair[j % 2] for j, pair in enumerate(pairs)}
            want = sum(1 << x for x in range(n)
                       if g.length[x] < k or x in chosen)
            assert lower_half_with_selection(o, chosen).mask == want, spec


def test_lower_half_requires_odd_longest_length():
    _, o = build_symmetric(4)  # l(w0) = 6
    with pytest.raises(InvalidInputError):
        lower_half_ideal(o)


def test_middle_level_pairs_structure():
    g, o = build_symmetric(4)
    pairs = middle_level_pairs(g)
    k = g.n_positive // 2
    flat = [x for pair in pairs for x in pair]
    assert len(set(flat)) == len(flat)
    for a, b in pairs:
        assert g.length[a] == k and g.length[b] == k
        assert g.w0_left(a) == b


def test_every_middle_selection_is_balanced():
    g, o = build_symmetric(4)
    pairs = middle_level_pairs(g)
    for choice in itertools.product(range(2), repeat=len(pairs)):
        selection = [pair[c] for pair, c in zip(pairs, choice)]
        ideal = lower_half_with_selection(o, selection, verify=True)
        assert classify(o, ideal).balanced
        assert 2 * ideal.size == g.order


def test_selection_validation():
    g, o = build_symmetric(4)
    pairs = middle_level_pairs(g)
    with pytest.raises(InvalidInputError):
        lower_half_with_selection(o, [0])  # identity is not middle level
    both = [pairs[0][0], pairs[0][1]] + [p[0] for p in pairs[1:]]
    with pytest.raises(InvalidInputError):
        lower_half_with_selection(o, both)
    with pytest.raises(InvalidInputError):
        lower_half_with_selection(o, [p[0] for p in pairs[1:]])


def test_incidence_generator_perms():
    assert incidence_generator_perm(4, 1) == (1, 4, 3, 2)
    assert incidence_generator_perm(4, 2) == (2, 4, 1, 3)
    assert incidence_generator_perm(4, 3) == (3, 2, 1, 4)
    with pytest.raises(InvalidInputError):
        incidence_generator_perm(4, 4)
    for n in range(3, 8):
        for k in range(1, n):
            z = incidence_generator_perm(n, k)
            assert perm_length(z) == (n - 1) * (n - 2) // 2


def test_incidence_ideal_membership_and_generators():
    for n in range(3, 6):
        g, o = build_symmetric(n)
        ideal = incidence_ideal(o, verify=True)
        table = perm_table(g)
        for x in range(g.order):
            assert (x in ideal) == (table[x][0] < table[x][-1])
        assert classify(o, ideal).balanced
        gens = minimal_generators(o, ideal)
        want = {perm_to_element(g, incidence_generator_perm(n, k))
                for k in range(1, n)}
        assert set(gens) == want
        p = build_parabolic(g, incidence_subgroup_indices(n))
        assert is_right_invariant(ideal, p)
        assert g.order // p.order == n * (n - 1)


def test_incidence_subgroup_indices():
    assert incidence_subgroup_indices(4) == (1,)
    assert incidence_subgroup_indices(6) == (1, 2, 3)


def test_principal_ideal_family():
    for n in (1, 2, 3):
        g, o = build_symmetric(2 * n)
        ideal = principal_2n_ideal(o, verify=True)
        table = perm_table(g)
        for x in range(g.order):
            assert (x in ideal) == (table[x][-1] > n)
        lam = perm_to_element(g, principal_generator_perm(n))
        assert minimal_generators(o, ideal) == [lam]
        assert ideal.mask == principal_ideal(o, lam).mask
        assert g.length[lam] == g.n_positive - n
        assert classify(o, ideal).balanced


def test_principal_generator_perm():
    assert principal_generator_perm(2) == (4, 2, 1, 3)
    assert principal_generator_perm(3) == (6, 5, 3, 2, 1, 4)


def test_principal_requires_even_degree():
    _, o = build_symmetric(3)
    with pytest.raises(InvalidInputError):
        principal_2n_ideal(o)


def test_distinction_witness():
    mu = distinction_witness_mu(1, verify=False)
    assert mu == (2, 6, 1, 5, 4, 3)
    assert perm_length(mu) == 8
    mu2 = distinction_witness_mu(2, verify=False)
    assert mu2 == (4, 3, 10, 2, 1, 9, 8, 7, 6, 5)
    assert perm_length(mu2) == 23
    # the claimed inversion count j(4j+3) is off by one, so verification
    # must report a failure rather than silently accept the witness
    with pytest.raises(VerificationError):
        distinction_witness_mu(1, verify=True)


def test_downward_closure_of_families():
    for n in (3, 4):
        g, o = build_symmetric(n)
        if n == 3:
            ideal = lower_half_ideal(o)
        else:
            ideal = principal_2n_ideal(o)
        assert is_downward_closed(o, ideal.mask)
