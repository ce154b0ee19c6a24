import itertools

import pytest

from conftest import forge
from weylkit.bruhat import build_order, principal_ideal
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import InvalidInputError, VerificationError
from weylkit.parabolic import (build_parabolic, is_right_invariant,
                               quotient_ideal)
from weylkit.weyl import generate

TYPES = ["A2", "B2", "A3"]
# every simple type of rank <= 4, and two products
REFERENCE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                   "D4", "F4", "G2", "A2xA2", "B2xA1"]


def grp(spec):
    return generate(build_root_system(parse_type(spec)))


def all_thetas(rank):
    for r in range(rank + 1):
        yield from itertools.combinations(range(rank), r)


def test_subgroup_and_cosets_exhaustive():
    for spec in TYPES:
        g = grp(spec)
        for theta in all_thetas(g.rank):
            p = build_parabolic(g, theta)
            sub = set(p.subgroup)
            # subgroup is generated by theta and closed
            for x in p.subgroup:
                for i in theta:
                    assert g.rmult[x][i] in sub
            assert p.n_cosets * p.order == g.order
            # each element factors as rep * subgroup element, lengths add
            for x in range(g.order):
                rep = p.coset_of[x]
                u = g.multiply(g.inverse[rep], x)
                assert u in sub
                assert g.length[x] == g.length[rep] + g.length[u]
                # rep is the unique length minimum of its coset
                coset = [g.multiply(rep, v) for v in p.subgroup]
                best = min(coset, key=lambda z: g.length[z])
                assert g.length[best] == g.length[rep]
                assert sum(1 for z in coset
                           if g.length[z] == g.length[rep]) == 1


def stripped_cosets(g, theta):
    """(subgroup, min_reps, coset_of) by closure and descent stripping.

    A reference that reads the root action, not the length table: s_i
    is a right descent of y when y sends the simple root i negative.
    """
    sub, queue = {0}, [0]
    while queue:
        x = queue.pop()
        for i in theta:
            y = g.rmult[x][i]
            if y not in sub:
                sub.add(y)
                queue.append(y)
    coset_of = []
    for x in range(g.order):
        y = x
        while (i := next((i for i in theta if g.acts[y][i] < 0),
                         None)) is not None:
            y = g.rmult[y][i]
        coset_of.append(y)
    return sorted(sub), sorted(set(coset_of)), coset_of


@pytest.mark.parametrize("spec", REFERENCE_TYPES)
def test_orbit_cosets_match_descent_stripping(spec):
    g = grp(spec)
    for theta in all_thetas(g.rank):
        p = build_parabolic(g, theta)
        assert (p.subgroup, p.min_reps, p.coset_of) == \
            stripped_cosets(g, theta)


def test_tampered_length_is_caught():
    """Raising any one length by 1 breaks the orbit checks."""
    g = grp("A3")
    for theta in ((0,), (0, 2), (1, 2)):
        build_parabolic(g, theta)
        for x in range(g.order):
            length = list(g.length)
            length[x] += 1
            bad = forge(g, length=length)
            with pytest.raises(VerificationError):
                build_parabolic(bad, theta).coset_of


def test_tampered_rmult_is_caught():
    """y s sent into another coset, with lengths still adding: the two
    orbits overlap, and one coset is left out."""
    g = grp("A3")
    for i in range(g.rank):
        p = build_parabolic(g, (i,))
        for y in p.min_reps:
            for z in p.min_reps:
                if g.length[z] != g.length[y] + 1:
                    continue
                rmult = list(g.rmult)
                rmult[y] = rmult[y][:i] + (z,) + rmult[y][i + 1:]
                bad = forge(g, rmult=rmult)
                with pytest.raises(VerificationError):
                    build_parabolic(bad, (i,)).coset_of


def test_forged_descent_slot_is_caught():
    """x s < x sent to another coset, one length down so lengths still
    add: the label check refuses it, at x when s is not the descent the
    pass strips, else at x's true partner, whose unforged slot leads to
    x, now wrongly labelled."""
    for spec in ("A3", "B3"):
        g = grp(spec)
        for theta in ((0,), (1,), (0, 2), (1, 2)):
            coset_of = build_parabolic(g, theta).coset_of
            forged = 0
            for x in range(g.order):
                for i in theta:
                    if g.rmult[x][i] > x:
                        continue
                    for w in range(x):
                        if (g.length[w] != g.length[x] - 1
                                or coset_of[w] == coset_of[x]):
                            continue
                        rmult = list(g.rmult)
                        rmult[x] = rmult[x][:i] + (w,) + rmult[x][i + 1:]
                        bad = forge(g, rmult=rmult)
                        with pytest.raises(VerificationError,
                                           match="another coset"):
                            build_parabolic(bad, theta).coset_of
                        forged += 1
            assert forged, (spec, theta)


def test_min_reps_have_no_theta_descent():
    g = grp("A3")
    for theta in all_thetas(g.rank):
        p = build_parabolic(g, theta)
        for rep in p.min_reps:
            assert all(g.length[g.rmult[rep][i]] > g.length[rep]
                       for i in theta)
        # sorted by (length, id) and graded: counts form the quotient
        lengths = [g.length[r] for r in p.min_reps]
        assert lengths == sorted(lengths)
        assert p.max_quotient_length == lengths[-1]
        hist = [0] * (p.max_quotient_length + 1)
        for l in lengths:
            hist[l] += 1
        assert hist == hist[::-1]  # quotient Poincare is palindromic


def test_trivial_and_full_parabolic():
    g = grp("B2")
    p0 = build_parabolic(g, ())
    assert p0.order == 1 and p0.n_cosets == g.order
    pfull = build_parabolic(g, tuple(range(g.rank)))
    assert pfull.order == g.order and pfull.n_cosets == 1
    assert pfull.subgroup[-1] == g.w0


def test_build_parabolic_validates_input():
    g = grp("A2")
    with pytest.raises(InvalidInputError):
        build_parabolic(g, (5,))
    with pytest.raises(InvalidInputError):
        build_parabolic(g, (-1,))
    for theta in (0, 1.0, None):
        with pytest.raises(InvalidInputError, match="not an iterable"):
            build_parabolic(g, theta)
    with pytest.raises(InvalidInputError, match="not an int"):
        build_parabolic(g, [0.0])


def test_invariance_predicates():
    for spec in TYPES:
        g = grp(spec)
        o = build_order(g)
        for theta in all_thetas(g.rank):
            p = build_parabolic(g, theta)
            for x in range(g.order):
                ideal = principal_ideal(o, x)
                want_right = all(
                    (ideal.mask >> g.rmult[y][i] & 1)
                    for y in ideal.members() for i in theta)
                assert is_right_invariant(ideal, p) == want_right


def test_trivial_parabolic_builds_no_gather_and_no_inverse():
    """With theta empty every set is invariant: the answer is True with
    neither the coset gather nor the inverses built, after the group
    check."""
    g = grp("B3")
    o = build_order(g)
    p = build_parabolic(g, ())
    for x in (0, 7, g.w0):
        ideal = principal_ideal(o, x)
        assert is_right_invariant(ideal, p)
    assert "_right_gather" not in vars(p) and "inverse" not in vars(g)
    other = build_parabolic(grp("B3"), ())
    with pytest.raises(InvalidInputError, match="share a group"):
        is_right_invariant(ideal, other)


def test_quotient_ideal_requires_invariance():
    g = grp("A2")
    o = build_order(g)
    p = build_parabolic(g, (0,))
    ideal = principal_ideal(o, g.generators[1])  # {e, s2}: not invariant
    with pytest.raises(InvalidInputError):
        quotient_ideal(ideal, p)
    good = principal_ideal(o, g.w0)
    pairs = quotient_ideal(good, p)
    assert len(pairs) == p.n_cosets
    assert sorted(l for _, l in pairs) == [0, 1, 2]
