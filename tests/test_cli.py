import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # a leading minus needs the = form, or argparse reads an option
    doc = run_json(capsys, ["bbw", "A2", "--weight=-1,2"])
    assert doc["outputs"]["degree"] == 1
    assert doc["outputs"]["highest_weight"] == [0, 0]


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


def test_usage_errors_exit_1(capsys, tmp_path, monkeypatch):
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
                 ["balanced", "A2", "--max-order", "-5"],
                 ["balanced", "A2", "--max-order", "0"],
                 ["family", "lower-half", "4"],
                 ["family", "lower-half", "3", "--select", "2,1,3"],
                 ["family", "incidence", "3", "--select", ""],
                 ["family", "lower-half-J", "4", "--select", ""],
                 ["bbw", "A2", "--weight", "1,1", "--cd", "1"],
                 ["poincare", "flag", "0"],
                 ["nonsense"]]:
        code, out, err = run(capsys, argv)
        assert code == 1, (argv, err)
        assert err.startswith("error:"), (argv, err)
    code, out, err = run(capsys, ["balanced", "A2", "--right-invariant", "1,x"])
    assert (code, err) == (1, "error: bad generator list '1,x'\n")
    code, out, err = run(capsys, ["bbw", "A2", "--weight", "-1,2"])
    assert (code, out, err) == (
        1, "", "error: argument --weight: expected one argument; a leading "
        "minus needs the = form, --weight=-1,2\n")
    code, out, err = run(capsys, ["family", "principal-2n", "2",
                                  "--select", "2,1,3,4"])
    assert (code, out, err) == (
        1, "", "error: --select applies only to lower-half-J\n")
    code, out, err = run(capsys, ["bbw", "A2", "--weight=-1,2", "--cd", "0"])
    assert (code, out, err) == (1, "", "error: --cd needs --k\n")
    code, out, err = run(capsys, ["balanced", "A2", "--max-order", "0"])
    assert (code, err) == (
        1, "error: enumeration budget must be at least 1, got 0\n")
    # the budget is read from --max-order alone, not from the environment
    want = run(capsys, ["balanced", "A2", "--json"])
    monkeypatch.setenv("WEYLKIT_MAX_ORDER", "0")
    assert run(capsys, ["balanced", "A2", "--json"]) == want


def test_foreign_type_echo_is_clipped(capsys, tmp_path):
    path = tmp_path / "huge_type.json"
    path.write_text(json.dumps({"type": list(range(200000)),
                                "generators": []}))
    code, out, err = run(capsys, ["betti", "A2", "--ideal", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ideal is for type [0, 1, 2, ")
    assert err.endswith("..., order is for A2\n") and len(err) < 200
    path.write_text('{"type": "A3", "generators": []}')
    code, out, err = run(capsys, ["betti", "A2", "--ideal", str(path)])
    assert (code, err) == (1, "error: ideal is for type A3, order is for A2\n")


def _ideal_file(tmp_path, letter):
    path = tmp_path / "long_letter.json"
    path.write_text(json.dumps({"type": "A2", "generators": [[letter]]}))
    return str(path)


CLIPPED_ECHOES = {
    "weight-count": (1, lambda tmp: ["bbw", "A2",
                                     "--weight=" + ",".join(["1"] * 20000)]),
    "weight-token": (1, lambda tmp: ["bbw", "A2",
                                     "--weight=1,x" + "1" * 100000]),
    "generator-index": (1, lambda tmp: ["balanced", "A2", "--right-invariant",
                                        "1," + "9" * 4000]),
    "type-factor": (1, lambda tmp: ["group", "A2x" * 10000 + "Z"]),
    "type-string": (1, lambda tmp: ["group", "Q" * 30000]),
    "type-rank": (1, lambda tmp: ["group", "E" + "9" * 4000]),
    "permutation": (1, lambda tmp: ["family", "lower-half-J", "4", "--select",
                                    ",".join(["1"] * 20000)]),
    "family-spec": (1, lambda tmp: ["betti", "A2", "--ideal",
                                    "family:" + "x" * 50000]),
    "argparse-choice": (1, lambda tmp: ["family", "x" * 50000, "3"]),
    "file-letter": (1, lambda tmp: ["betti", "A2", "--ideal",
                                    _ideal_file(tmp, 10**3999)]),
    "max-order-below-1": (1, lambda tmp: ["balanced", "A2", "--max-order",
                                          "-" + "9" * 4000]),
    "budget-type": (3, lambda tmp: ["balanced", "x".join(["A1"] * 3000)]),
    "budget-value": (3, lambda tmp: ["balanced", "A20000", "--max-order",
                                     "9" * 4000]),
    # results past the fixed 4300-digit budget: the dimension has about
    # 4500 digits, and the quotient's total rank about 4301
    "budget-dimension-digits": (3, lambda tmp: ["bbw", "A2", "--weight="
                                                + ",".join(["9" * 1500] * 2)]),
    "budget-genus-digits": (3, lambda tmp: ["betti", "A2", "--ideal",
                                            "family:lower-half", "--genus",
                                            "9" * 4299]),
    # |W| fits the budget, but its mask estimate has too many digits to print
    "budget-masks": (3, lambda tmp: ["balanced", "x".join(["A1"] * 7500),
                                     "--max-order", "9" * 4000]),
}


@pytest.mark.parametrize("site", sorted(CLIPPED_ECHOES))
def test_error_lines_clip_echoed_input(capsys, tmp_path, site):
    """An error that echoes a huge argument, type, permutation, letter or
    family name prints one short line, not the input."""
    code, argv = CLIPPED_ECHOES[site]
    got, out, err = run(capsys, argv(tmp_path))
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and len(err) < 250, err[:300]
    assert "..." in err


@pytest.mark.parametrize("argv", [
    ["betti", "A2", "--ideal", "x" * 50000],
    ["family", "lower-half", "3", "--out", "/no/such/dir/" + "x" * 50000],
])
def test_file_errors_name_the_path_once_clipped(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) < 200, err[:300]
    assert "x...: " in err


def test_file_errors_keep_the_reason(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, ["betti", "A2", "--ideal", str(missing)])
    assert (code, err) == (1, f"error: cannot read ideal file "
                              f"{str(missing)!r}: No such file or directory\n")
    code, out, err = run(capsys, ["family", "lower-half", "3",
                                  "--out", str(tmp_path)])
    assert (code, err) == (1, f"error: cannot write {str(tmp_path)!r}: "
                              "Is a directory\n")


def test_betti_refuses_an_even_lower_half_without_masks(capsys, monkeypatch):
    """l(w0) = 28 on A7, so the lower half is refused before anything
    reads the order's masks."""
    def refuse(*args, **kwargs):
        pytest.fail("built the dense masks")

    monkeypatch.setattr(bruhat, "_down_masks", refuse)
    code, out, err = run(capsys, ["betti", "A7", "--ideal",
                                  "family:lower-half"])
    assert (code, out) == (1, "")
    assert err == ("error: l(w0) = 28 is even; use "
                   "lower_half_with_selection\n")


def test_ideal_generation_builds_no_masks(capsys, monkeypatch, tmp_path):
    """The families, their checks and ideal files generate ideals
    without the dense masks; enumeration, which needs them, builds them."""
    path = str(tmp_path / "incidence4.json")
    argvs = [["family", "incidence", "4", "--out", path],
             ["family", "incidence", "5", "--verify"],
             ["family", "principal-2n", "3", "--verify"],
             ["family", "lower-half-J", "4", "--verify"],
             ["betti", "A3", "--ideal", path, "--domain", "2"],
             ["hausdorff", "A3", "--ideal", path, "--domain", "2"]]
    want = [run(capsys, argv + ["--json"]) for argv in argvs]

    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(bruhat, "_down_masks", refuse)
    for argv, expected in zip(argvs, want):
        assert expected[0] == 0, (argv, expected)
        assert run(capsys, argv + ["--json"]) == expected, argv
    with pytest.raises(Built):
        main(["balanced", "A3", "--json"])


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
                 ["distinct", "50"],
                 ["group", "A99999999999999999999"],
                 ["balanced", "A300000"],
                 ["poincare", "flag", "1" + "0" * 4000],
                 ["balanced", "F4", "--max-order", "100"],
                 ["balanced", "E6"],
                 ["balanced", "E6", "--max-order", "51840"],
                 ["balanced", "A7"],
                 ["group", "A12"],
                 ["group", "B13"],
                 ["group", "A80"],
                 ["group", "D70"],
                 ["bbw", "A80", "--weight", "1"],
                 ["small", "A80", "--max-len", "2"],
                 ["small", "E7", "--max-len", "2"],
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
    # the order masks of W(E6) exceed the mask budget: refused from the type
    def refuse(*args, **kwargs):
        pytest.fail("built before the mask budget was checked")

    for mod in (cartan, weyl, bruhat, cli):
        for name in ("build_root_system", "generate", "build_order"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    code, out, err = run(capsys, ["balanced", "E6", "--max-order", "51840"])
    assert code == 3, err
    assert "order masks" in err


def test_console_script_byte_identical():
    cmd = [sys.executable, "-m", "weylkit.cli", "balanced", "B2", "--json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


# Runs the CLI as `python -m` would, then names the start-up modules it
# pulled in on stderr.
CLEAN_RUN = """
import runpy, sys
try:
    runpy.run_module("weylkit.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, sorted({"dataclasses", "inspect"} & set(sys.modules)),
          file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["group", "A3", "--json"],
    ["betti", "A3", "--ideal", "family:incidence", "--domain", "2", "--json"],
])
def test_cli_process_imports_no_dataclasses(capsys, argv):
    """Cold start: a CLI process imports neither dataclasses nor inspect.
    -S and a bare environment keep site's .pth imports from hiding one."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", CLEAN_RUN, *argv],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)})
    assert proc.stderr == "0 []\n"
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and proc.stdout == out


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
# integer lists most of the time, so that some runs get past parsing
TOKENS = (st.lists(st.integers(-2, 4), max_size=4).map(
    lambda xs: ",".join(map(str, xs))) | st.text("0123456789,- x", max_size=6))


@st.composite
def fuzzed_run(draw):
    """argv with the ideal file as "@", and the bytes of that file."""
    kind = draw(st.sampled_from(["betti", "hausdorff", "bbw", "balanced"]))
    t = "A2" if kind == "hausdorff" else draw(st.sampled_from(["A2", "A3"]))
    if kind == "bbw":
        return [kind, t, "--weight=" + draw(TOKENS)], b""
    if kind == "balanced":
        return [kind, t, "--right-invariant", draw(TOKENS)], b""
    argv = [kind, t, "--ideal", "@"]
    if draw(st.booleans()):
        argv += ["--domain", draw(TOKENS)]
    # mostly well-formed files of the right type, so some runs pass
    shape = draw(st.sampled_from(["ideal"] * 4 + ["json", "bytes"]))
    if shape == "bytes":
        return argv, draw(st.binary(max_size=40))
    value = draw(JSON_VALUES) if shape == "json" else {
        "type": draw(st.sampled_from([t] * 4 + ["B2", "a2"]) | JSON_VALUES),
        "generators": draw(st.lists(st.lists(st.integers(-1, 3), max_size=4),
                                    max_size=3) | JSON_VALUES)}
    return argv, json.dumps(value).encode()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(run=fuzzed_run())
def test_fuzzed_ideal_files_and_arguments_exit_with_a_code(tmp_path_factory,
                                                           run):
    """Any ideal file and any argument token ends in exit 0-3, never a
    traceback; exit 0 prints one JSON document, any other one line."""
    argv, content = run
    path = tmp_path_factory.getbasetemp() / "fuzzed_ideal.json"
    path.write_bytes(content)
    argv = [str(path) if a == "@" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert json.loads(out.getvalue())["schema"] == 1
    else:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        # echoed input is clipped: only the file's own path may be long
        assert len(err.getvalue().replace(str(path), "@")) < 250, argv
