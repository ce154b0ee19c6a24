import pytest

from weylkit.cartan import (CartanType, RootSystem, build_root_system,
                            component_coxeter_number, parse_type,
                            positive_coroots)
from weylkit.errors import InvalidInputError


def test_parse_and_str_round_trip():
    for spec in ["A1", "A2", "B2", "G2", "A3", "C3", "D4", "F4", "A1xB2",
                 "A2xA2", "a2 x b2"]:
        t = parse_type(spec)
        assert parse_type(str(t)) == t


def test_parse_keeps_factor_order():
    assert str(parse_type("B2xA1")) == "B2xA1"


def test_cartan_type_is_a_value():
    t = parse_type("A2xB3")
    assert t == parse_type("a2 x b3") and t is not parse_type("A2xB3")
    assert hash(t) == hash(parse_type("A2xB3"))
    assert {t: 1}[parse_type("A2xB3")] == 1
    assert t != parse_type("B3xA2") and t != "A2xB3"
    assert CartanType(factors=(("A", 2), ("B", 3))) == t


def test_cartan_type_checks_its_factors():
    for factors in [(), (("H", 3),), (("A", 0),), (("D", 1),), (("E", 9),)]:
        with pytest.raises(InvalidInputError):
            CartanType(factors)


def test_parse_rejects_garbage():
    for bad in ["", "Z9", "A0", "D1", "F5", "G3", "E5", "A2x", "H3"]:
        with pytest.raises(InvalidInputError):
            parse_type(bad)


def test_weyl_orders():
    expected = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
                "B4": 384, "C3": 48, "D4": 192, "F4": 1152, "G2": 12,
                "A1xB2": 16, "A2xA2": 36}
    for spec, order in expected.items():
        assert parse_type(spec).weyl_order() == order


def test_positive_root_counts():
    # A_n: n(n+1)/2; B_n/C_n: n^2; D4: 12; F4: 24; G2: 6
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
                "C3": 9, "B4": 16, "D4": 12, "F4": 24, "G2": 6,
                "A1xB2": 5}
    for spec, count in expected.items():
        rs = build_root_system(parse_type(spec))
        assert rs.n_positive == count
        assert len(positive_coroots(rs)) == count


def test_known_cartan_matrices():
    assert build_root_system(parse_type("A2")).cartan_matrix == \
        ((2, -1), (-1, 2))
    b2 = build_root_system(parse_type("B2")).cartan_matrix
    # one long and one short root; orientation is fixed by convention
    assert sorted([b2[0][1], b2[1][0]]) == [-2, -1]
    g2 = build_root_system(parse_type("G2")).cartan_matrix
    assert sorted([g2[0][1], g2[1][0]]) == [-3, -1]


def test_coxeter_numbers():
    expected = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 4, "B3": 6,
                "C3": 6, "B4": 8, "D4": 6, "F4": 12, "G2": 6}
    for spec, h in expected.items():
        rs = build_root_system(parse_type(spec))
        assert rs.coxeter_numbers == (h,)
        assert component_coxeter_number(rs, rs.components[0]) == h
        # n_positive = rank * h / 2 for a connected system
        assert 2 * rs.n_positive == rs.rank * h
    # h = 2n grows with the rank; no fixed cap on the element order holds
    assert build_root_system(parse_type("B33")).coxeter_numbers == (66,)


def _root_count_h(rs, comp):
    """2|S+_c|/|c| over the positive roots supported on comp."""
    inside = set(comp)
    n = sum(all(i in inside for i, c in enumerate(r) if c)
            for r in rs.positive_roots)
    assert 2 * n % len(comp) == 0
    return 2 * n // len(comp)


def test_coxeter_numbers_read_only_the_roots(monkeypatch):
    """With reflect refusing, h still comes out, and equals 2|S+_c|/|c|
    on each component c, a root count that reads no heights."""
    def refuse(self, i, v):
        raise AssertionError("reflect called")

    monkeypatch.setattr(RootSystem, "reflect", refuse)
    specs = [f"{fam}{n}" for fam in "ABC" for n in range(1, 9)]
    specs += [f"D{n}" for n in range(2, 9)]
    specs += ["E6", "E7", "E8", "F4", "G2", "B33", "D30", "A40", "A2xB2",
              "D2xA1", "B2xG2xA1"]
    for spec in specs:
        rs = build_root_system(parse_type(spec))
        for comp in rs.components:
            assert component_coxeter_number(rs, comp) == \
                _root_count_h(rs, comp), spec
        factors, offset = [], 0
        for _, n in rs.cartan_type.factors:
            factors.append(tuple(range(offset, offset + n)))
            offset += n
        assert rs.coxeter_numbers == \
            tuple(_root_count_h(rs, f) for f in factors), spec


def test_e_types():
    from weylkit.bbw import weyl_dimension
    from weylkit.weyl import build_group
    for spec, npos, h in [("E6", 36, 12), ("E7", 63, 18), ("E8", 120, 30)]:
        t = parse_type(spec)
        rs = build_root_system(t)
        assert len(rs.positive_roots) == t.n_positive == npos
        assert rs.coxeter_numbers == (h,)
    # Bourbaki numbering: omega_1 is the 27-dimensional minuscule
    # representation, omega_2 the adjoint one
    g = build_group(parse_type("E6"))
    assert weyl_dimension(g, (1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dimension(g, (0, 1, 0, 0, 0, 0)) == 78


def test_components_partition_generators():
    rs = build_root_system(parse_type("A1xB2xA2"))
    seen = sorted(i for comp in rs.components for i in comp)
    assert seen == list(range(rs.rank))
    assert len(rs.components) == 3


def test_delta_is_all_ones():
    # delta, half the sum of the positive roots, pairs to 1 with every
    # simple coroot: it is all ones in fundamental-weight coordinates
    for spec in ["B3", "G2", "F4", "A1xC3"]:
        rs = build_root_system(parse_type(spec))
        two_delta = [sum(r[j] for r in rs.positive_roots)
                     for j in range(rs.rank)]
        assert [sum(c * v for c, v in zip(row, two_delta))
                for row in rs.cartan_matrix] == [2] * rs.rank


def test_simple_reflection_permutes_other_positives():
    """s_i negates alpha_i and sends every other positive root to a
    positive root; each simple_actions entry decodes to that image."""
    for spec in ["A2", "B2", "G2", "A3", "B3", "E6", "E7", "E8", "F4",
                 "B33"]:
        rs = build_root_system(parse_type(spec))
        roots = set(rs.positive_roots)
        for i, row in enumerate(rs.simple_actions):
            alpha_i = rs.positive_roots[i]  # the simple roots come first
            for r, code in zip(rs.positive_roots, row):
                image = rs.reflect(i, r)
                if r == alpha_i:
                    assert image == tuple(-c for c in r)
                else:
                    assert image in roots
                sign = 1 if code > 0 else -1
                assert tuple(sign * c for c in
                             rs.positive_roots[abs(code) - 1]) == image, spec


def test_simply_laced_self_dual():
    # transposing the Cartan matrix of A_n or D_n changes nothing
    for spec in ["A2", "A3", "A4", "D4"]:
        rs = build_root_system(parse_type(spec))
        assert set(positive_coroots(rs)) == set(rs.positive_roots)


def test_b2_coroots_are_c2_roots():
    b2 = build_root_system(parse_type("B2"))
    heights = sorted(sum(r) for r in positive_coroots(b2))
    assert heights == sorted(sum(r) for r in b2.positive_roots)
    assert set(positive_coroots(b2)) != set(b2.positive_roots)


def test_root_coordinates_nonnegative():
    for spec in ["B3", "F4", "G2"]:
        rs = build_root_system(parse_type(spec))
        for r in rs.positive_roots:
            assert all(c >= 0 for c in r) and any(c > 0 for c in r)
        # highest root has full support in a connected system
        top = max(rs.positive_roots, key=sum)
        assert all(c > 0 for c in top)
