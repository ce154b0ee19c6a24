import hashlib
import json
import subprocess
import sys
import time

import pytest

from weylkit import bruhat, cartan, cli, families, parabolic, topology, weyl
from weylkit.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


def test_group_json(capsys):
    doc = run_json(capsys, ["group", "A2"])
    assert doc["command"] == "group"
    assert doc["outputs"]["order"] == 6
    assert doc["outputs"]["l_w0"] == 3
    assert doc["outputs"]["lengths"] == [1, 2, 2, 1]


def test_group_human(capsys):
    code, out, err = run(capsys, ["group", "B2"])
    assert code == 0
    assert "order 8" in out and "wall time" in out


def test_balanced_a2(capsys):
    doc = run_json(capsys, ["balanced", "A2"])
    assert doc["outputs"]["count"] == 1
    (ideal,) = doc["outputs"]["ideals"]
    assert ideal["generators"] == [[0], [1]]
    assert ideal["size"] == 3


def test_balanced_deterministic_output(capsys):
    first = run(capsys, ["balanced", "B3", "--json"])
    second = run(capsys, ["balanced", "B3", "--json"])
    assert first == second
    assert json.loads(first[1])["outputs"]["count"] == 29


def test_balanced_right_invariant(capsys):
    doc = run_json(capsys, ["balanced", "A3", "--right-invariant", "1"])
    plain = run_json(capsys, ["balanced", "A3"])
    assert 0 < doc["outputs"]["count"] < plain["outputs"]["count"]
    code, out, _ = run(capsys, ["balanced", "A3", "--right-invariant", "1"])
    assert code == 0
    assert (f"type A3: {doc['outputs']['count']} balanced ideal(s) "
            "invariant under <1>") in out


def test_balanced_listing_budget(capsys, monkeypatch):
    """A listing larger than LIST_BUDGET is refused before certification."""
    def refuse(*args, **kwargs):
        pytest.fail("certified past the listing budget")

    monkeypatch.setattr(bruhat, "_certify_all", refuse)
    monkeypatch.setattr(bruhat, "LIST_BUDGET", 9)
    code, out, err = run(capsys, ["balanced", "A3"])
    assert code == 3, err
    assert "more than 9 balanced ideals to list" in err
    monkeypatch.undo()
    monkeypatch.setattr(bruhat, "LIST_BUDGET", 10)
    assert run_json(capsys, ["balanced", "A3"])["outputs"]["count"] == 10
    monkeypatch.undo()
    # 49,404,510 ideals; |W| = 384 passes the enumeration budget
    code, out, err = run(capsys, ["balanced", "B4"])
    assert code == 3, err
    assert "more than 250000 balanced ideals to list" in err


def test_family_round_trip_through_file(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    code, out, _ = run(capsys, ["family", "lower-half", "3", "--verify",
                                "--out", str(path)])
    assert code == 0
    doc = run_json(capsys, ["betti", "A2", "--ideal", str(path),
                            "--domain", "", "--genus", "2"])
    assert doc["outputs"]["omega_betti"] == [1, 0, 4, 0, 1]
    assert doc["outputs"]["euler"] == 6
    assert doc["outputs"]["quotient_homology"] == [1, 4, 5, 16, 5, 4, 1]


def test_family_lower_half_j_default_selection(capsys):
    doc = run_json(capsys, ["family", "lower-half-J", "4", "--verify"])
    assert doc["outputs"]["size"] == 12
    # the same selection, given explicitly
    g, _ = families.build_symmetric(4)
    table = families.perm_table(g)
    select = ";".join(",".join(map(str, table[a]))
                      for a, _ in families.middle_level_pairs(g))
    chosen = run_json(capsys, ["family", "lower-half-J", "4", "--verify",
                               "--select", select])
    assert chosen["outputs"] == doc["outputs"]


def test_family_principal(capsys):
    doc = run_json(capsys, ["family", "principal-2n", "2", "--verify"])
    assert doc["outputs"]["group_order"] == 24
    assert doc["outputs"]["ideal"]["generators"] == [[0, 1, 2, 1]] or \
        len(doc["outputs"]["ideal"]["generators"]) == 1


def test_betti_family_spec(capsys):
    doc = run_json(capsys, ["betti", "A2", "--ideal", "family:lower-half",
                            "--domain", ""])
    assert doc["outputs"]["omega_betti"] == [1, 0, 4, 0, 1]
    assert doc["outputs"]["euler"] == 6
    assert doc["verification"]["splitting"] is True


def test_betti_and_balanced_do_not_redo_work(capsys, monkeypatch):
    """betti computes I^perp (its w0 gather) once; balanced reuses the
    certified generators instead of recomputing them per ideal."""
    calls = {"_w0_image": 0, "minimal_generators": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        orig = getattr(bruhat, name)
        for mod in (bruhat, topology, cli):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counting(name, orig))
    doc = run_json(capsys, ["betti", "A4", "--ideal", "family:incidence",
                            "--domain", "2,3", "--genus", "2"])
    assert doc["outputs"]["euler"] == 20
    assert calls == {"_w0_image": 1, "minimal_generators": 0}
    doc = run_json(capsys, ["balanced", "B3"])
    assert doc["outputs"]["count"] == 29
    assert calls == {"_w0_image": 1, "minimal_generators": 0}


def test_poincare(capsys):
    doc = run_json(capsys, ["poincare", "omega2n", "2"])
    assert doc["outputs"]["coefficients"] == [1, 0, 4, 0, 7, 0, 7, 0, 4, 0, 1]
    assert doc["outputs"]["total"] == 24
    doc = run_json(capsys, ["poincare", "flag", "3"])
    assert doc["outputs"]["coefficients"] == [1, 0, 2, 0, 2, 0, 1]


def test_bbw_command(capsys):
    doc = run_json(capsys, ["bbw", "A2", "--weight", "2,2"])
    assert doc["outputs"]["degree"] == 0
    assert doc["outputs"]["dimension"] == 8
    assert doc["outputs"]["highest_weight"] == [1, 1]
    doc = run_json(capsys, ["bbw", "A2", "--weight", "0,2", "--k", "3"])
    assert doc["outputs"]["all_vanish"] is True
    assert doc["outputs"]["sheaf"]["case"] == "i"


def test_small_exit_codes(capsys):
    code, out, err = run(capsys, ["small", "A2", "--max-len", "2"])
    assert code == 0 and "s1*s2" in out
    code, out, err = run(capsys, ["small", "A2", "--max-len", "2",
                                  "--expect-all-small"])
    assert code == 2
    assert "s1*s2" in err
    code, out, err = run(capsys, ["small", "B3", "--max-len", "2",
                                  "--expect-all-small"])
    assert code == 0


def test_hausdorff_command(capsys):
    doc = run_json(capsys, ["hausdorff", "A2", "--ideal",
                            "family:lower-half", "--curve-dim", "1.0"])
    assert doc["outputs"]["bound"] == 3.0
    assert doc["outputs"]["domain_nonempty"] is True


def test_distinct_default_and_verify(capsys):
    doc = run_json(capsys, ["distinct", "1"])
    assert doc["outputs"]["b_lower_half"] == 202
    assert doc["outputs"]["b_principal"] == 114
    assert doc["outputs"]["strict"] is True
    assert doc["outputs"]["witness"] == [2, 6, 1, 5, 4, 3]
    assert doc["outputs"]["witness_length"] == 8
    code, out, err = run(capsys, ["distinct", "1", "--verify"])
    assert code == 2
    assert "verification failed" in err


def test_usage_errors_exit_1(capsys, tmp_path):
    bad_ideals = []
    for name, text in [("no_generators", '{"type":"A2"}'),
                       ("list", "[1,2]"),
                       ("string_letters", '{"type":"A2","generators":["01"]}'),
                       ("bool_letters", '{"type":"A2","generators":[[true]]}')]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        bad_ideals.append(["betti", "A2", "--ideal", str(path)])
    # not UTF-8, and nested past the decoder's recursion limit
    for name, data in [("bom", b"\xff\xfe"),
                       ("deep", b"[" * 200000 + b"]" * 200000)]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        bad_ideals.append(["betti", "A2", "--ideal", str(path)])
    for argv in bad_ideals + [["group", "Z9"],
                 ["group", "A" + "9" * 4400],
                 ["family", "lower-half", "3",
                  "--out", str(tmp_path / "missing" / "x.json")],
                 ["balanced", "A2", "--right-invariant", "7"],
                 ["betti", "A2", "--ideal", "family:nope"],
                 ["betti", "A2", "--ideal", "/no/such/file.json"],
                 ["bbw", "A2", "--weight", "1"],
                 ["bbw", "A2", "--weight", "x,y"],
                 ["family", "lower-half", "4"],
                 ["poincare", "flag", "0"],
                 ["nonsense"]]:
        code, out, err = run(capsys, argv)
        assert code == 1, (argv, err)
        assert err.startswith("error:"), (argv, err)
    code, out, err = run(capsys, ["balanced", "A2", "--right-invariant", "1,x"])
    assert (code, err) == (1, "error: bad generator list '1,x'\n")


def test_budget_exit_3(capsys, monkeypatch):
    # every budget is checked from the type alone: nothing may be built
    def refuse(*args, **kwargs):
        pytest.fail("built before the budget was checked")

    for mod in (cartan, weyl, bruhat, families, cli):
        for name in ("build_root_system", "generate", "build_order"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for argv in [["group", "A2000"],
                 ["balanced", "A2000"],
                 ["small", "B3000", "--max-len", "1"],
                 ["bbw", "A2000", "--weight", "1"],
                 ["family", "incidence", "3000"],
                 ["distinct", "1000"],
                 ["group", "A99999999999999999999"],
                 ["balanced", "A300000"],
                 ["poincare", "flag", "1" + "0" * 4000],
                 ["balanced", "F4", "--max-order", "100"],
                 ["balanced", "E6"],
                 ["balanced", "A7"],
                 ["group", "A12"],
                 ["group", "B13"],
                 ["group", "A80"],
                 ["group", "D70"],
                 ["bbw", "A80", "--weight", "1"],
                 ["small", "A80", "--max-len", "2"],
                 ["family", "incidence", "13"],
                 ["poincare", "flag", "201"],
                 ["poincare", "omega2n", "101"],
                 ["poincare", "flag", "1000000"]]:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        # refused from a bound on the rank, not from |W| itself
        assert time.perf_counter() - start < 0.5, argv
        assert code == 3, (argv, err)
        assert "budget" in err


def test_balanced_refuses_without_dense_masks_before_building(
        capsys, monkeypatch):
    # |W(E6)| = 51840 is above the dense limit: refused from the type
    def refuse(*args, **kwargs):
        pytest.fail("built before the dense limit was checked")

    for mod in (cartan, weyl, bruhat, cli):
        for name in ("build_root_system", "generate", "build_order"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    code, out, err = run(capsys, ["balanced", "E6", "--max-order", "51840"])
    assert code == 1, err
    assert "dense order masks" in err


def test_console_script_byte_identical():
    cmd = [sys.executable, "-m", "weylkit.cli", "balanced", "B2", "--json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_betti_checks_invariance_once_per_ideal(capsys, monkeypatch,
                                                tmp_path):
    """<s1> in A3 is slim, not balanced, and invariant under s1: the
    command gathers once for it and once for its orthogonal."""
    calls = []
    real = parabolic.is_right_invariant

    def counted(ideal, p):
        calls.append(ideal.mask)
        return real(ideal, p)
    for module in (cli, topology, parabolic):
        monkeypatch.setattr(module, "is_right_invariant", counted,
                            raising=False)
    path = tmp_path / "s1.json"
    path.write_text(json.dumps({"type": "A3", "generators": [[0]]}))
    doc = run_json(capsys, ["betti", "A3", "--ideal", str(path),
                            "--domain", "1"])
    assert doc["outputs"]["slim"] and not doc["outputs"]["balanced"]
    assert len(calls) == 2 and calls[0] != calls[1]


def test_ideal_not_invariant_is_usage_error(capsys):
    code, out, err = run(capsys, ["betti", "A3", "--ideal",
                                  "family:incidence", "--domain", "1"])
    assert code == 1
    assert "invariant" in err


# sha256 of the --json stdout of each argv, recorded with the earlier
# implementation that stored the Bruhat order downward and upward; the
# balanced search, topology and budget checks must keep every byte
GOLDEN = [
    (["balanced", "A2"],
     "23aac8a199dd81ea31e76346c586b6d74bf0449435f82894d15be59208c97849"),
    (["balanced", "A3"],
     "7747327871496ef8019282c5a3b7c9356df5cd7eda40d736aa4601c9ae3b0a44"),
    (["balanced", "A4"],
     "aceb798bca2eb07ac0f04c0722cf519e9fa535a02b90bf15fe89a1ab3e2a24bb"),
    (["balanced", "B2xA2"],
     "743ccf3f77b08f6d3a2a7af947e0504f54a67d12b5e5d9df76eecc3ab3b3c145"),
    (["balanced", "D4", "--right-invariant", "1"],
     "9f9882de708eac33d7bbc80a758dc118bc68084f26bf71e00abfbf93a28be31a"),
    (["balanced", "B4", "--right-invariant", "1,2"],
     "1edc83658dfab7554de962120636a97e9decaed1c6c09d597e2c0f9cab2b65ce"),
    (["balanced", "C4", "--right-invariant", "1,2"],
     "8e05181da0aaa6b1baa577daf77af2bce293148360f755ec331f9443e69363e7"),
    (["balanced", "A5", "--right-invariant", "1,2,3"],
     "f2c93b73f3a4969ad9f77a303ffeff2c5fc1d6eecc736fd68ffbba2332e4244e"),
    (["balanced", "A6", "--right-invariant", "1,2,3,4,5",
      "--max-order", "5040"],
     "2fef85c12bbfc96b437177d062653513b732f846e8b6fdc41093a5e201f026d3"),
    (["balanced", "F4", "--right-invariant", "1,2,3", "--max-order", "1152"],
     "a7d2ac87e6cdac2d5392415f68d9092824326c1542717cb5ec59bfd35d7bd373"),
    (["betti", "A2", "--ideal", "family:lower-half", "--domain", ""],
     "9ad3a398400599e05879217c0f3068382d07c7328aaf1a239b02e98aa7529fcd"),
    (["betti", "A3", "--ideal", "family:principal-2n",
      "--domain", "", "--genus", "3"],
     "0f2084ee92e4454facf804ec760e4041ca504b24b4b6e153aa22f2e44d6825b5"),
    (["betti", "A3", "--ideal", "family:incidence", "--domain", "2"],
     "2c2a5e2062ee888a2acf10bfcafb6dacb2913be04dde1b0f237f7ee5b2840b41"),
    (["betti", "A4", "--ideal", "family:incidence",
      "--domain", "2,3", "--genus", "2"],
     "40632fdccd4a3df74b92baff1e424e89e3fe32076d55d15d33aeda44a9a93537"),
    (["hausdorff", "A2", "--ideal", "family:lower-half",
      "--domain", "", "--curve-dim", "0.25"],
     "a5b87d42a7a7ecc3feea4cc22cf82e548fa21c9d131c0e8aecf4b99cbbc00de9"),
    (["hausdorff", "A3", "--ideal", "family:principal-2n",
      "--domain", "", "--curve-dim", "1.0"],
     "204260678f45c67f1e4a08a30f14a06c5a6f4d0daa93748b1e6d46b2fcbebf92"),
    (["hausdorff", "A3", "--ideal", "family:incidence",
      "--domain", "2", "--curve-dim", "2.0"],
     "0167f4eac4eb970540904c6c32f8f5f96274b3fb7d482c0f404f8977cb8508f0"),
    (["hausdorff", "A4", "--ideal", "family:incidence",
      "--domain", "2,3", "--curve-dim", "1.5"],
     "3755d25654d70136bcbbd9594d9e56f13435629397606d52ba9c5afb25d958d4"),
    (["family", "incidence", "5", "--verify"],
     "5d2e8346eb124e2ffae343a3ac2a80df6532ba8bf60f9fee67c714d0060348e3"),
    (["small", "B5", "--max-len", "2"],
     "9dea14d541f4984efa868d6eaa7bd766de60a325e93f01ef5a256cab91fb6b28"),
    (["distinct", "1"],
     "77f7711adf9a24d72769161b0dcbc92bc4add701c640d71478054b0b561c83d7"),
    # 17,221 ideals, 3.9 MB; recorded while the search still pushed each
    # invariant coset through its longest member
    (["balanced", "B4", "--right-invariant", "2"],
     "6abe4df1053e8b22a3733ab3ad72811c9de4fb386ff6a7ff9995328aae99cc0a"),
]


def test_json_output_matches_golden_hashes(capsys):
    for argv, digest in GOLDEN:
        code, out, err = run(capsys, argv + ["--json"])
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
