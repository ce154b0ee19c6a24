import itertools
import random

import pytest

from weylkit.bbw import (bbw_cohomology, classify_weight, reflect_weight,
                         sheaf_cohomology_cases, weyl_act, weyl_dimension)
from weylkit import cartan
from weylkit.cartan import build_root_system, parse_type
from weylkit.errors import InvalidInputError
from weylkit.weyl import generate

rng = random.Random(60302)


def grp(spec):
    return generate(build_root_system(parse_type(spec)))


def test_weyl_act_is_a_group_action():
    for spec in ["A1", "A2", "B2", "A3", "G2"]:
        g = grp(spec)
        for _ in range(50):
            lam = tuple(rng.randint(-4, 4) for _ in range(g.rank))
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            assert weyl_act(g, g.multiply(x, y), lam) == \
                weyl_act(g, x, weyl_act(g, y, lam))
        assert weyl_act(g, 0, lam) == lam
        # w0 negates the dominant chamber: delta goes to -delta
        ones = tuple([1] * g.rank)
        assert weyl_act(g, g.w0, ones) == tuple([-1] * g.rank)


def test_reflect_weight_is_an_involution():
    g = grp("B2")
    for lam in itertools.product(range(-2, 3), repeat=2):
        for i in range(g.rank):
            assert reflect_weight(g, i, reflect_weight(g, i, lam)) == lam


def test_classify_against_exhaustive_orbit():
    for spec in ["A1", "A2", "B2", "A1xA1"]:
        g = grp(spec)
        for lam in itertools.product(range(-3, 4), repeat=g.rank):
            cls = classify_weight(g, lam)
            orbit = {weyl_act(g, w, lam) for w in range(g.order)}
            strictly_dominant = [v for v in orbit if all(c > 0 for c in v)]
            if cls.regular:
                assert strictly_dominant == [cls.dominant_form]
                hits = [w for w in range(g.order)
                        if weyl_act(g, w, lam) == cls.dominant_form]
                assert hits == [cls.w]
            else:
                assert not strictly_dominant
                assert any(c == 0 for c in cls.dominant_form)


def test_weyl_dimension_known_values():
    g2 = grp("A2")
    assert weyl_dimension(g2, (0, 0)) == 1
    assert weyl_dimension(g2, (1, 0)) == 3
    assert weyl_dimension(g2, (0, 1)) == 3
    assert weyl_dimension(g2, (1, 1)) == 8
    assert weyl_dimension(g2, (2, 0)) == 6
    gb = grp("B2")
    assert weyl_dimension(gb, (1, 0)) == 5   # vector of so(5)
    assert weyl_dimension(gb, (0, 1)) == 4   # spinor
    assert weyl_dimension(gb, (0, 2)) == 10  # adjoint
    assert {weyl_dimension(grp("G2"), (1, 0)),
            weyl_dimension(grp("G2"), (0, 1))} == {7, 14}
    for n in range(2, 7):
        g = grp(f"A{n - 1}")
        e1 = tuple([1] + [0] * (g.rank - 1))
        assert weyl_dimension(g, e1) == n
    for spec in ["A3", "B3", "C3", "F4"]:
        g = grp(spec)
        assert weyl_dimension(g, tuple([0] * g.rank)) == 1


def test_weyl_dimension_rejects_non_dominant():
    g = grp("A2")
    with pytest.raises(InvalidInputError):
        weyl_dimension(g, (-1, 0))
    with pytest.raises(InvalidInputError):
        weyl_dimension(g, (1,))


def test_bbw_rank_one():
    g = grp("A1")
    rep = bbw_cohomology(g, (0,))
    assert rep.all_vanish and rep.degree is None
    rep = bbw_cohomology(g, (1,))
    assert (rep.degree, rep.highest_weight, rep.dimension) == (0, (0,), 1)
    rep = bbw_cohomology(g, (-1,))
    assert (rep.degree, rep.highest_weight, rep.dimension) == (1, (0,), 1)
    for a in range(1, 6):
        plus = bbw_cohomology(g, (a,))
        minus = bbw_cohomology(g, (-a,))
        assert plus.degree + minus.degree == 1
        assert plus.dimension == minus.dimension == a


def test_bbw_a2_values():
    g = grp("A2")
    rep = bbw_cohomology(g, (2, 2))
    assert (rep.degree, rep.highest_weight, rep.dimension) == (0, (1, 1), 8)
    rep = bbw_cohomology(g, (1, 1))
    assert (rep.degree, rep.highest_weight, rep.dimension) == (0, (0, 0), 1)
    rep = bbw_cohomology(g, (-1, -1))
    assert (rep.degree, rep.highest_weight, rep.dimension) == (3, (0, 0), 1)
    # a wall weight vanishes entirely
    assert bbw_cohomology(g, (0, 2)).all_vanish


def test_bbw_orbit_sweeps_all_degrees():
    for spec in ["A2", "B2"]:
        g = grp(spec)
        lam0 = tuple(rng.randint(1, 3) for _ in range(g.rank))
        degrees = []
        dims = set()
        for w in range(g.order):
            rep = bbw_cohomology(g, weyl_act(g, w, lam0))
            assert not rep.all_vanish
            degrees.append(rep.degree)
            dims.add(rep.dimension)
        assert sorted(degrees) == sorted(g.length)
        assert len(dims) == 1


def test_sheaf_cases():
    g = grp("A2")
    rep = sheaf_cohomology_cases(g, (0, 2), k=3)
    assert rep.case == "i" and rep.zero_below == 3
    assert rep.group_window is None
    rep = sheaf_cohomology_cases(g, (-1, -1), k=2)
    assert rep.case == "ii" and rep.degree == 3 and rep.zero_below == 2
    # the boundary degree == k carries the same vanishing conclusion
    boundary = bbw_cohomology(g, (-1, 2)).degree
    assert sheaf_cohomology_cases(g, (-1, 2), k=boundary).case == "ii"
    rep = sheaf_cohomology_cases(g, (-1, 2), k=3)
    assert rep.case == "iii" and rep.degree == 1
    assert rep.zero_below == 1 and rep.group_window == (1, 3)
    assert rep.vanishing_window is None
    rep = sheaf_cohomology_cases(g, (-1, 2), k=5, cd=1)
    assert rep.group_window == (1, 5) and rep.vanishing_window == (3, 5)
    rep = sheaf_cohomology_cases(g, (1, 1), k=3, cd=1)
    assert rep.case == "iv" and rep.zero_below == 0
    assert rep.group_window == (0, 3) and rep.vanishing_window == (2, 3)


def test_sheaf_case_windows_are_consistent():
    g = grp("B2")
    for _ in range(300):
        lam = tuple(rng.randint(-4, 4) for _ in range(g.rank))
        k = rng.randrange(1, 8)
        cd = rng.choice([None, 0, 1, 2, 3])
        rep = sheaf_cohomology_cases(g, lam, k, cd=cd)
        assert 0 <= rep.zero_below <= k
        cls = classify_weight(g, lam)
        if not cls.regular:
            assert rep.case == "i" and rep.zero_below == k
            continue
        lw = g.length[cls.w]
        if lw >= k:
            assert rep.case == "ii" and rep.zero_below == k
            continue
        assert rep.case == ("iv" if lw == 0 else "iii")
        assert rep.zero_below == lw
        assert rep.group_window == (lw, k)
        if rep.vanishing_window is not None:
            a, b = rep.vanishing_window
            assert cd is not None and a == cd + lw + 1 and b == k
            assert rep.group_window[0] <= a < b <= rep.group_window[1]
        else:
            assert cd is None or cd + lw + 1 >= k


def test_sheaf_cases_validates_input():
    g = grp("A2")
    with pytest.raises(InvalidInputError):
        sheaf_cohomology_cases(g, (1, 1), k=0)
    with pytest.raises(InvalidInputError):
        sheaf_cohomology_cases(g, (1, 1), k=2, cd=-1)
    with pytest.raises(InvalidInputError):
        bbw_cohomology(g, (1,))
    with pytest.raises(InvalidInputError):
        bbw_cohomology(g, (True, 1))


def test_weyl_dimension_closes_coroots_once(monkeypatch):
    """The positive coroots are one closure per root system, not one per
    weyl_dimension call."""
    calls = []
    real = cartan._positive_roots

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)
    g = grp("B4")
    monkeypatch.setattr(cartan, "_positive_roots", counted)
    dims = [weyl_dimension(g, (a % 2, 0, a % 3, 0)) for a in range(50)]
    assert len(calls) <= 1
    # so(9): the trivial and the vector representation
    assert dims[0] == 1 and weyl_dimension(g, (1, 0, 0, 0)) == 9
