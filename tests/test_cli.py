import json
import subprocess
import sys

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
    for argv in bad_ideals + [["group", "Z9"],
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


def test_budget_exit_3(capsys):
    for argv in [["balanced", "F4", "--max-order", "100"],
                 ["group", "A12"],
                 ["group", "B13"]]:
        code, out, err = run(capsys, argv)
        assert code == 3, (argv, err)
        assert "budget" in err


def test_console_script_byte_identical():
    cmd = [sys.executable, "-m", "weylkit.cli", "balanced", "B2", "--json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_ideal_not_invariant_is_usage_error(capsys):
    code, out, err = run(capsys, ["betti", "A3", "--ideal",
                                  "family:incidence", "--domain", "1"])
    assert code == 1
    assert "invariant" in err
