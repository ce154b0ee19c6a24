import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COVER_TYPES, forge
from weylkit import weyl
from weylkit.cartan import CartanType, build_root_system, parse_type
from weylkit.errors import (BudgetExceededError, InvalidInputError,
                            VerificationError)
from weylkit.bbw import sheaf_cohomology_cases
from weylkit.bruhat import build_order, enumerate_balanced, verify_short_small
from weylkit.families import (check_permutation, distinction_witness_mu,
                               incidence_generator_perm,
                               incidence_subgroup_indices, perm_length,
                               principal_generator_perm)
from weylkit.weyl import bipartite_w0_word, default_bipartition, generate

rng = random.Random(411)


def grp(spec):
    return generate(build_root_system(parse_type(spec)))


SMALL = ["A1", "A2", "B2", "G2", "A3", "A1xB2"]


def test_order_matches_type():
    for spec in SMALL + ["B3", "D4"]:
        g = grp(spec)
        assert g.order == g.rs.cartan_type.weyl_order()


def test_identity_and_longest():
    for spec in SMALL:
        g = grp(spec)
        assert g.length[0] == 0
        longest = [x for x in range(g.order) if g.length[x] == g.n_positive]
        assert longest == [g.w0]


def test_length_histogram_is_palindromic():
    for spec in SMALL + ["B3"]:
        g = grp(spec)
        hist = [0] * (g.n_positive + 1)
        for l in g.length:
            hist[l] += 1
        assert hist == hist[::-1]
        assert sum(hist) == g.order


def test_length_counts_inverted_roots():
    for spec in SMALL:
        g = grp(spec)
        for x in range(g.order):
            assert g.length[x] == sum(1 for v in g.acts[x] if v < 0)


def test_multiplication_group_axioms():
    for spec in ["A2", "B2", "A3"]:
        g = grp(spec)
        for _ in range(200):
            x, y, z = (rng.randrange(g.order) for _ in range(3))
            assert g.multiply(g.multiply(x, y), z) == \
                g.multiply(x, g.multiply(y, z))
            assert g.multiply(x, 0) == x and g.multiply(0, x) == x
            assert g.multiply(x, g.inverse[x]) == 0


def test_reduced_words_evaluate_back():
    for spec in SMALL:
        g = grp(spec)
        for x in range(g.order):
            word = g.reduced_word(x)
            assert len(word) == g.length[x]
            assert g.word_to_id(word) == x


def test_reduced_word_walks_each_id_once(monkeypatch):
    """The words are kept as they are asked for: over two passes each
    id's BFS word is walked once, and ids out of range are refused
    whether or not the memo is full."""
    walk = weyl.WeylGroup.bfs_word
    walked = []

    def counting(self, x):
        walked.append(x)
        return walk(self, x)

    monkeypatch.setattr(weyl.WeylGroup, "bfs_word", counting)
    for spec in COVER_TYPES:
        g = grp(spec)
        walked.clear()
        for _ in range(2):
            for bad in (-1, g.order):
                with pytest.raises(InvalidInputError, match="out of range"):
                    g.reduced_word(bad)
            for x in range(g.order):
                assert g.reduced_word(x) == walk(g, x)
        assert walked == list(range(g.order)), spec
        assert len(g._words) == g.order


def test_reduced_word_refuses_ids_that_are_not_ints():
    """A float or bool id is refused before and after the memo holds
    the word of its int twin, which compares and hashes equal to it."""
    g = grp("A2")
    for _ in range(2):          # the second pass runs with the twins kept
        for bad in (1.0, True, 0.0, False):
            with pytest.raises(InvalidInputError, match="is not an int"):
                g.reduced_word(bad)
        assert g.reduced_word(1) == (0,) and g.reduced_word(0) == ()
    assert set(map(type, g._words)) == {int}
    with pytest.raises(InvalidInputError, match="is not an int"):
        g.reduced_word([1])             # unhashable: no memo lookup
    with pytest.raises(InvalidInputError, match="is not an int") as err:
        g.reduced_word("9" * 5000)
    assert len(str(err.value)) < 100    # the echo is clipped
    with pytest.raises(InvalidInputError, match="bit number out of range"):
        g.reduced_word(10**5000)        # past str()'s digit limit


def _order(spec):
    return build_order(grp(spec))


@pytest.mark.parametrize("call, message", [
    (lambda: CartanType((("A", 2.5),)), "rank 2.5 is not an int"),
    (lambda: CartanType((("A", True),)), "rank True is not an int"),
    (lambda: CartanType((("E", 6.0),)), "rank 6.0 is not an int"),
    (lambda: enumerate_balanced(_order("A2"), max_order=1.5),
     "max_order 1.5 is not an int"),
    (lambda: enumerate_balanced(_order("A2"), max_order="100"),
     "max_order '100' is not an int"),
    (lambda: verify_short_small(parse_type("A2"), True),
     "max_length True is not an int"),
    (lambda: verify_short_small(parse_type("A2"), 1.0),
     "max_length 1.0 is not an int"),
    (lambda: sheaf_cohomology_cases(grp("A2"), (1, 1), "3"),
     "k '3' is not an int"),
    (lambda: sheaf_cohomology_cases(grp("A2"), (1, 1), 2.5),
     "k 2.5 is not an int"),
    (lambda: sheaf_cohomology_cases(grp("A2"), (1, 1), 3, cd=0.5),
     "cd 0.5 is not an int"),
    (lambda: check_permutation((1.0, 2.0)),
     "permutation entry 1.0 is not an int"),
    (lambda: perm_length((True, 2)), "permutation entry True is not an int"),
    (lambda: distinction_witness_mu(True), "j True is not an int"),
    (lambda: distinction_witness_mu(2.5), "j 2.5 is not an int"),
    (lambda: distinction_witness_mu("1"), "j '1' is not an int"),
    (lambda: incidence_generator_perm(4, True), "k True is not an int"),
    (lambda: principal_generator_perm(True), "n True is not an int"),
    (lambda: incidence_subgroup_indices("4"), "n '4' is not an int"),
])
def test_integer_parameters_refuse_what_is_not_an_int(call, message):
    """One rule, errors.checked_int, for every integer parameter: a
    float, str or bool is refused, never read as the int it resembles."""
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message


def test_w0_left_reverses_length():
    for spec in ["A3", "B3"]:
        g = grp(spec)
        for x in range(g.order):
            px = g.w0_left(x)
            assert g.w0_left(px) == x
            assert g.length[px] == g.n_positive - g.length[x]


def test_copies_keep_their_own_memos():
    g = grp("A3")
    g.reduced_word(g.w0)
    assert g.w0_left(0) == g.w0
    copy = forge(g, w0=0)
    assert copy.w0_left(0) == 0 and g.w0_left(0) == g.w0


def test_acts_stays_unbuilt():
    """The table keeps no signed actions and no inverses: nothing on the
    query, order and enumeration paths builds them, and a copy builds
    its own."""
    from weylkit.bbw import (bbw_cohomology, sheaf_cohomology_cases,
                             weyl_dimension)
    from weylkit.bruhat import build_order, enumerate_balanced
    from weylkit.parabolic import build_parabolic
    g = grp("D5")
    assert "acts" not in vars(g) and "inverse" not in vars(g)
    build_order(g)
    g.reduced_word(g.w0)
    lam = (-1, 2, 0, 3, -2)
    bbw_cohomology(g, lam)
    sheaf_cohomology_cases(g, lam, 4, cd=1)
    weyl_dimension(g, (1, 0, 2, 0, 1))
    assert "acts" not in vars(g) and "inverse" not in vars(g)
    assert "acts" not in vars(forge(g))
    small = grp("A3")
    o = build_order(small)
    assert enumerate_balanced(o)
    assert enumerate_balanced(o, build_parabolic(small, (0,)))
    assert "inverse" not in vars(small)
    copy = forge(g)
    assert copy.inverse == g.inverse and copy.inverse is not g.inverse


def test_multiply_checks_both_ids():
    g = grp("A2")
    for x, y in [(0, -1), (0, 99), (-1, 0), (6, 0)]:
        with pytest.raises(InvalidInputError):
            g.multiply(x, y)


def test_inverse_and_w0_left_match_signed_actions():
    for spec in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2",
                 "F4", "A1xA1", "A2xA1", "B2xA2", "D5"]:
        g = grp(spec)
        id_of = {a: x for x, a in enumerate(g.acts)}
        w0_act = g.acts[g.w0]
        for x, a in enumerate(g.acts):
            inv = [0] * g.n_positive
            for j, v in enumerate(a):
                inv[abs(v) - 1] = j + 1 if v > 0 else -(j + 1)
            assert g.inverse[x] == id_of[tuple(inv)]
            w0x = tuple(w0_act[v - 1] if v > 0 else -w0_act[-v - 1]
                        for v in a)
            assert g.w0_left(x) == id_of[w0x]


def full_table_oracle(rs):
    """The group table by composing every product x s_i, descents too.

    Element identity is the signed root action; inverses walk the BFS
    letters back up the parent chain.
    """
    root_index = {r: k for k, r in enumerate(rs.positive_roots)}
    gen_acts = []
    for i in range(rs.rank):
        act = []
        for r in rs.positive_roots:
            img = rs.reflect(i, r)
            if img in root_index:
                act.append(root_index[img] + 1)
            else:
                act.append(-(root_index[tuple(-c for c in img)] + 1))
        gen_acts.append(act)
    ident = tuple(range(1, rs.n_positive + 1))
    acts, id_of = [ident], {ident: 0}
    length, parent, letter, rmult = [0], [0], [-1], []
    for x, ax in enumerate(acts):
        row = []
        for i, gen in enumerate(gen_acts):
            t = tuple(ax[v - 1] if v > 0 else -ax[-v - 1] for v in gen)
            if t not in id_of:
                id_of[t] = len(acts)
                acts.append(t)
                length.append(length[x] + 1)
                parent.append(x)
                letter.append(i)
            row.append(id_of[t])
        rmult.append(tuple(row))
    inverse = []
    for x in range(len(acts)):
        cur = 0
        while x:
            cur = rmult[cur][letter[x]]
            x = parent[x]
        inverse.append(cur)
    return dict(acts=acts, length=length, rmult=rmult, bfs_parent=parent,
                bfs_letter=letter, inverse=inverse,
                w0=length.index(rs.n_positive),
                generators=[id_of[tuple(a)] for a in gen_acts])


def single_types(max_rank):
    """Every simple type of rank <= max_rank, B1, C1, D2 and D3 included."""
    for fam in "ABCDEFG":
        for n in range(1, max_rank + 1):
            try:
                yield str(CartanType(((fam, n),)))
            except InvalidInputError:
                pass


ORACLE_SPECS = [*single_types(4), "B2xA1", "A2xA2", "B5", "D5", "G2xA1",
                "A1xA1xA1"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_ascent_only_table_matches_full_table(spec):
    rs = build_root_system(parse_type(spec))
    g = generate(rs)
    assert {name: getattr(g, name) for name in
            ["acts", "length", "rmult", "bfs_parent", "bfs_letter",
             "inverse", "w0", "generators"]} == full_table_oracle(rs)
    assert all(type(row) is tuple for row in g.rmult)
    for x in range(g.order):
        for i in range(g.rank):
            assert g.rmult[g.rmult[x][i]][i] == x


# sha256 of repr([rmult, length, bfs_parent, bfs_letter, w0, generators]),
# recorded from the table built with images of the simple roots as keys
TABLE_DIGESTS = {
    "D6": "aee8a77974177570867831ba0a924e15eec63316bf42b1767cf05d075d1ef617",
    "A7": "db94281dfd8611a4fc29f80f469c45750934ff8e210d411d7a1e576f841bb9d3",
    "E6": "fcca2ac392d97632fd6122daa60dffb70d4699b6729ccdbd9556cde5f46a3da5",
}


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_large_tables_match_recorded_digests(spec):
    g = grp(spec)
    fields = [getattr(g, name) for name in
              ["rmult", "length", "bfs_parent", "bfs_letter", "w0",
               "generators"]]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[spec]


def lex_first_word(g, x):
    """The greedy word: strip the smallest left descent first, which
    yields the lexicographically first reduced word.  s_i x is read as
    (x^-1 s_i)^-1."""
    inv, letters = g.inverse, []
    while x != 0:
        i = min(i for i in range(g.rank)
                if g.length[inv[g.rmult[inv[x]][i]]] < g.length[x])
        letters.append(i)
        x = inv[g.rmult[inv[x]][i]]
    return tuple(letters)


@pytest.mark.parametrize("spec", [*single_types(4), "A1xA1", "A2xA1",
                                  "B2xA1", "A1xB2", "D5"])
def test_reduced_word_is_lex_first(spec):
    g = grp(spec)
    assert [g.reduced_word(x) for x in range(g.order)] == \
        [lex_first_word(g, x) for x in range(g.order)]


def test_default_bipartition_is_proper():
    """The colour classes partition the nodes, no edge joins two nodes
    of one class, and each component's least node is in the first class,
    the convention the bipartite word relies on."""
    for spec in [*COVER_TYPES, "E6", "E7", "E8", "D2xA1"]:
        rs = build_root_system(parse_type(spec))
        part0, part1 = default_bipartition(rs)
        assert sorted(part0 + part1) == list(range(rs.rank)), spec
        for part in (part0, part1):
            for i in part:
                for j in part:
                    assert i == j or rs.cartan_matrix[i][j] == 0, spec
        assert all(comp[0] in part0 for comp in rs.components), spec


def test_bipartite_word_hits_w0():
    for spec in ["A2", "A3", "B2", "B3", "G2", "A1xB2"]:
        g = grp(spec)
        word = bipartite_w0_word(g)
        assert len(word) == g.n_positive
        assert g.word_to_id(word) == g.w0


def test_generation_budget():
    # 3628800 elements x (45 + 9) entries is over DEFAULT_MAX_TABLE_ENTRIES
    rs = build_root_system(parse_type("A9"))
    with pytest.raises(BudgetExceededError):
        generate(rs)


def test_root_codes_must_fit_in_a_byte(monkeypatch):
    """A16 has 136 positive roots, 272 signed codes: past the table
    budget, the build still refuses before it reads a simple action."""
    monkeypatch.setattr(weyl, "check_table_budget", lambda t: None)
    rs = build_root_system(parse_type("A16"))
    with pytest.raises(VerificationError, match="byte codes"):
        generate(rs)
    assert "simple_actions" not in vars(rs)


def test_build_stops_past_the_order_formula():
    """B5's actions on A1xF4's roots (both rank 5, 25 positive roots)
    generate 3840 elements; the build stops at the 2305th."""
    rs = build_root_system(parse_type("A1xF4"))
    rs.simple_actions = build_root_system(parse_type("B5")).simple_actions
    with pytest.raises(VerificationError, match="more than 2304 elements"):
        generate(rs)


@st.composite
def forged_actions(draw):
    """A small type and simple actions for it: mostly signed
    permutations of its positive roots, sometimes any small integers."""
    rs = build_root_system(parse_type(draw(st.sampled_from(
        ["A2", "B2", "G2", "A1xA1", "A3"]))))
    n = rs.n_positive
    rows = []
    for _ in range(rs.rank):
        if draw(st.integers(0, 3)):
            perm = draw(st.permutations(range(1, n + 1)))
            signs = draw(st.lists(st.sampled_from([1, -1]),
                                  min_size=n, max_size=n))
            rows.append(tuple(s * v for s, v in zip(signs, perm)))
        else:
            rows.append(tuple(draw(st.lists(st.integers(-n - 2, n + 2),
                                            min_size=n, max_size=n))))
    return rs, tuple(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=forged_actions())
def test_forged_simple_actions_build_a_checked_table_or_refuse(case):
    rs, actions = case
    rs.simple_actions = actions
    try:
        g = generate(rs)
    except VerificationError:
        return
    assert g.order == rs.cartan_type.weyl_order()
    assert g.length[g.w0] == g.n_positive
