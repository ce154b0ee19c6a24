import itertools
import json
import random

import pytest

from conftest import check_record
from weylkit import bbw, topology
from weylkit.bbw import BBWReport, bbw_cohomology
from weylkit.bruhat import (build_order, classify, enumerate_balanced,
                            ideal_from_elements, ideal_to_json_dict,
                            minimal_generators, orthogonal,
                            verify_short_small)
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import InvalidInputError, Record, VerificationError
from weylkit.families import build_symmetric, lower_half_ideal
from weylkit.parabolic import (ParabolicSubset, build_parabolic,
                               is_right_invariant, quotient_ideal)
from weylkit.topology import (GradedRanks, euler_omega, flag_poincare,
                              hausdorff_bound, homotopy_distinction,
                              incidence_betti, omega_betti,
                              omega2n_closed_form, quotient_homology,
                              splitting_check, thickening_ranks)
from weylkit.weyl import generate

rng = random.Random(90125)


def make_order(spec):
    g = generate(build_root_system(parse_type(spec)))
    return g, build_order(g)


def test_graded_ranks_basics():
    r = GradedRanks.from_even((1, 4, 1))
    assert r.ranks == (1, 0, 4, 0, 1)
    assert r.even() == (1, 4, 1)
    assert r.total == 6
    assert r.euler == 6
    assert r.get(2) == 4 and r.get(99) == 0
    with pytest.raises(InvalidInputError):
        GradedRanks((1, -1))


def test_records_compare_by_value():
    assert GradedRanks((1, 0, 2)) == GradedRanks(ranks=(1, 0, 2))
    assert GradedRanks((1, 0, 2)) != GradedRanks((1, 0, 3))
    assert GradedRanks.from_even((1, 1)) == flag_poincare(2)
    with pytest.raises(InvalidInputError):
        GradedRanks(ranks=(0, -2))
    g = generate(build_root_system(parse_type("A2")))
    report = bbw_cohomology(g, (-1, 2))
    assert report == bbw_cohomology(g, (-1, 2))
    assert report != bbw_cohomology(g, (2, -1))
    assert bbw_cohomology(g, (0, 1)) == BBWReport(
        lam=(0, 1), all_vanish=True, degree=None, highest_weight=None,
        dimension=None)
    o = build_order(g)
    records = [GradedRanks((1, 0, 2)), report,
               bbw.classify_weight(g, (-1, 2)),
               bbw.sheaf_cohomology_cases(g, (-1, 2), 4, cd=1),
               hausdorff_bound(o, lower_half_ideal(o), build_parabolic(g, ())),
               topology.DistinctionReport(j=1, n=3, k=7, b_lower_half=202,
                                          b_principal=114, strict=True)]
    space = {**vars(bbw), **vars(topology)}
    for rec in records:
        check_record(rec, space)

    # the two fields published under another name
    weight = report.to_json()
    assert weight["weight"] == [-1, 2] and "lam" not in weight
    assert isinstance(weight["highest_weight"], list)
    haus = records[4].to_json()
    assert haus["complex_dim"] == 3 and "n" not in haus
    assert GradedRanks((1, 0, 2)).to_json() == [1, 0, 2]


def test_every_record_to_json_is_json():
    """to_json of every value record gives JSON values all the way down:
    a nested record and tuples of tuples come out as objects and lists."""
    g, o = make_order("A2")
    half = lower_half_ideal(o)
    small = verify_short_small(parse_type("A2xA1"), 2)
    records = [parse_type("A2xA1"), small, classify(o, half),
               bbw.classify_weight(g, (-1, 2)), bbw_cohomology(g, (-1, 2)),
               bbw.sheaf_cohomology_cases(g, (-1, 2), 4, cd=1),
               GradedRanks((1, 0, 2)),
               hausdorff_bound(o, half, build_parabolic(g, ())),
               topology.DistinctionReport(j=1, n=3, k=7, b_lower_half=202,
                                          b_principal=114, strict=True)]
    assert {type(r) for r in records} == {
        cls for cls in Record.__subclasses__()
        if cls.__module__.startswith("weylkit.")}
    for rec in records:
        assert json.loads(json.dumps(rec.to_json())) == rec.to_json(), rec
    doc = small.to_json()
    assert doc["cartan_type"] == {"factors": [["A", 2], ["A", 1]]}
    assert doc["witnesses"] and all(type(w) is list for w in doc["witnesses"])


def test_a2_lower_half_chain():
    g, o = make_order("A2")
    ideal = lower_half_ideal(o)
    p = build_parabolic(g, ())
    assert thickening_ranks(ideal, p).even() == (1, 2)
    omega = omega_betti(o, ideal, p)
    assert omega.even() == (1, 4, 1)
    assert euler_omega(o, ideal, p) == 6
    quot = quotient_homology(omega, 2)
    assert quot.ranks == (1, 4, 5, 16, 5, 4, 1)
    assert quot.euler == -2 * 6


def test_omega_betti_symmetric_for_balanced():
    for spec in ["A2", "B2", "A3", "B3"]:
        g, o = make_order(spec)
        p = build_parabolic(g, ())
        for ideal in enumerate_balanced(o):
            omega = omega_betti(o, ideal, p)
            assert omega.ranks == omega.ranks[::-1]
            assert euler_omega(o, ideal, p) == g.order
            for genus in (2, 3):
                quot = quotient_homology(omega, genus)
                assert quot.euler == (2 - 2 * genus) * g.order


def test_omega_betti_requires_slim():
    g, o = make_order("A2")
    p = build_parabolic(g, ())
    with pytest.raises(InvalidInputError):
        omega_betti(o, ideal_from_elements(o, [g.w0]), p)


def test_euler_omega_requires_balanced():
    g, o = make_order("A2")
    p = build_parabolic(g, ())
    slim_not_balanced = ideal_from_elements(o, [0])
    with pytest.raises(InvalidInputError):
        euler_omega(o, slim_not_balanced, p)


def test_euler_omega_does_not_call_omega_betti(monkeypatch):
    """euler_omega reads the even Betti numbers once, through the helper
    it shares with omega_betti, and keeps its three refusals and its
    check that the Betti numbers sum to the coset count."""
    def refuse(*args, **kwargs):
        pytest.fail("euler_omega called omega_betti")

    monkeypatch.setattr(topology, "omega_betti", refuse)
    for spec, theta in (("D4", (0,)), ("A4", ())):
        g, o = make_order(spec)
        p = build_parabolic(g, theta)
        ideals = enumerate_balanced(o, invariance=p if theta else None)
        assert ideals
        assert all(euler_omega(o, i, p) == p.n_cosets for i in ideals)

    g, o = make_order("A2")
    p, p1 = build_parabolic(g, ()), build_parabolic(g, (0,))
    (balanced,) = enumerate_balanced(o)
    with pytest.raises(InvalidInputError, match="^ideal is not slim$"):
        euler_omega(o, ideal_from_elements(o, [g.w0]), p)
    with pytest.raises(InvalidInputError, match="^ideal is not balanced$"):
        euler_omega(o, ideal_from_elements(o, [0]), p)
    with pytest.raises(InvalidInputError,
                       match="^ideal is not right-invariant under W_P$"):
        euler_omega(o, balanced, p1)
    forged = ParabolicSubset(g, p.theta, p.subgroup, p.min_reps, p.coset_of)
    forged.length_masks = [0] + p.length_masks[1:]
    with pytest.raises(VerificationError, match="do not sum to"):
        euler_omega(o, balanced, forged)


SHARED_GROUP_CALLS = {
    "thickening_ranks": lambda o, ideal, p: thickening_ranks(ideal, p),
    "omega_betti": omega_betti,
    "euler_omega": euler_omega,
    "splitting_check": splitting_check,
    "hausdorff_bound": hausdorff_bound,
}


@pytest.mark.parametrize("name", sorted(SHARED_GROUP_CALLS))
def test_parts_of_another_group_are_refused(name):
    """An A2 ideal with a B3 parabolic, or with a B3 order, is refused
    before any count is made of it."""
    call = SHARED_GROUP_CALLS[name]
    g, o = make_order("A2")
    (ideal,) = enumerate_balanced(o)
    g3, o3 = make_order("B3")
    with pytest.raises(InvalidInputError, match="share a group"):
        call(o, ideal, build_parabolic(g3, ()))
    if name != "thickening_ranks":     # it takes no order
        with pytest.raises(InvalidInputError, match="share a group"):
            call(o3, ideal, build_parabolic(g, ()))
    call(o, ideal, build_parabolic(g, ()))


IDEAL_CALLS = {
    "orthogonal": lambda o, ideal, p: orthogonal(o, ideal),
    "classify": lambda o, ideal, p: classify(o, ideal),
    "minimal_generators": lambda o, ideal, p: minimal_generators(o, ideal),
    "ideal_to_json_dict": lambda o, ideal, p: ideal_to_json_dict(o, ideal),
    "is_right_invariant": lambda o, ideal, p: is_right_invariant(ideal, p),
    "quotient_ideal": lambda o, ideal, p: quotient_ideal(ideal, p),
}


@pytest.mark.parametrize("own, other", [("A2xA1", "G2"), ("A2", "B3")])
@pytest.mark.parametrize("name", sorted(IDEAL_CALLS))
def test_every_ideal_function_refuses_another_group(name, own, other):
    """A balanced ideal read with an order or parabolic of another group
    is refused, also when the two groups have the same order (A2xA1 and
    G2 both have 12 elements)."""
    call = IDEAL_CALLS[name]
    g, o = make_order(own)
    ideal = enumerate_balanced(o)[0]
    g2, o2 = make_order(other)
    with pytest.raises(InvalidInputError, match="share a group"):
        call(o2, ideal, build_parabolic(g2, ()))
    call(o, ideal, build_parabolic(g, ()))


def test_splitting_exhaustive_small_types():
    # every downward-closed subset of A2 and B2, every compatible domain
    from weylkit.bruhat import is_downward_closed, make_ideal
    for spec in ["A2", "B2"]:
        g, o = make_order(spec)
        parabolics = [build_parabolic(g, theta)
                      for r in range(g.rank + 1)
                      for theta in itertools.combinations(range(g.rank), r)]
        count = 0
        for mask in range(1 << g.order):
            if not is_downward_closed(o, mask):
                continue
            ideal = make_ideal(o, mask)
            count += 1
            for p in parabolics:
                if is_right_invariant(ideal, p):
                    assert splitting_check(o, ideal, p)
        assert count > g.order  # the ideal lattice is non-trivial


def test_splitting_random_ideals():
    for n in (4, 5):
        g, o = make_order(f"A{n - 1}")
        p = build_parabolic(g, ())
        for _ in range(300):
            seeds = [rng.randrange(g.order)
                     for _ in range(rng.randrange(1, 4))]
            ideal = ideal_from_elements(o, seeds)
            assert splitting_check(o, ideal, p)


def test_quotient_homology_validates_genus():
    omega = GradedRanks.from_even((1, 4, 1))
    with pytest.raises(InvalidInputError):
        quotient_homology(omega, 1)


def test_hausdorff_bound_a2():
    g, o = make_order("A2")
    ideal = lower_half_ideal(o)
    p = build_parabolic(g, ())
    rep = hausdorff_bound(o, ideal, p, limit_curve_dim=1.0)
    assert rep.bound == 3.0
    assert rep.n == 3
    assert rep.domain_nonempty  # 3 < 6
    assert rep.max_quotient_length == 1
    with pytest.raises(InvalidInputError):
        hausdorff_bound(o, ideal, p, limit_curve_dim=2.5)


def test_flag_poincare_matches_length_histogram():
    for m in range(2, 8):
        g, _ = build_symmetric(m)
        hist = [0] * (g.n_positive + 1)
        for l in g.length:
            hist[l] += 1
        assert flag_poincare(m).even() == tuple(hist)
        assert flag_poincare(m).total == g.order


def test_omega2n_closed_form_matches_direct():
    for n in (1, 2, 3):
        g, o = make_order(f"A{2 * n - 1}")
        from weylkit.families import principal_2n_ideal
        ideal = principal_2n_ideal(o)
        p = build_parabolic(g, ())
        assert omega2n_closed_form(n).ranks == \
            omega_betti(o, ideal, p).ranks
    assert omega2n_closed_form(2).even() == (1, 4, 7, 7, 4, 1)
    assert omega2n_closed_form(2).total == 24


# Reference: the closed forms as numerator over (1 - t^2)^k, divided
# exactly, the way they were computed before the t^2-integer products.

def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polydivexact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        q[i] = c
        for j, y in enumerate(den):
            num[i + j] -= c * y
    assert not any(num)
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


def _one_minus_t_pow(k):
    return [1] + [0] * (k - 1) + [-1]


def _quotient_reference(num, factors):
    for k in factors:
        num = _polymul(num, _one_minus_t_pow(2 * k))
    den = [1]
    for _ in factors:
        den = _polymul(den, _one_minus_t_pow(2))
    return _polydivexact(num, den)


def test_closed_forms_match_quotient_reference():
    for m in range(1, 31):
        assert flag_poincare(m).ranks == \
            _quotient_reference([1], range(2, m + 1))
    for n in range(1, 16):
        first = [1] + [0] * (2 * n - 3) + [1] if n > 1 else [2]
        assert omega2n_closed_form(n).ranks == \
            _quotient_reference(first, [n, *range(2, 2 * n)])


def test_incidence_betti_closed_form():
    from weylkit.families import incidence_ideal, incidence_subgroup_indices
    for n in range(3, 6):
        g, o = make_order(f"A{n - 1}")
        ideal = incidence_ideal(o)
        p = build_parabolic(g, incidence_subgroup_indices(n))
        omega = omega_betti(o, ideal, p)
        top = p.max_quotient_length
        for k in range(top + 2):
            assert omega.get(2 * k) == incidence_betti(n, k)


def test_homotopy_distinction_j1():
    rep = homotopy_distinction(1)
    assert (rep.j, rep.n, rep.k) == (1, 3, 7)
    assert rep.b_lower_half == 202
    assert rep.b_principal == 114
    assert rep.strict


def test_thickening_with_nontrivial_domain():
    g, o = make_order("A3")
    from weylkit.families import incidence_ideal, incidence_subgroup_indices
    ideal = incidence_ideal(o)
    p = build_parabolic(g, incidence_subgroup_indices(4))
    ranks = thickening_ranks(ideal, p)
    assert ranks.total == len({p.coset_of[x] for x in ideal.members()})
    perp = orthogonal(o, ideal)
    assert thickening_ranks(perp, p).total + ranks.total == p.n_cosets
