"""One verification policy: every check goes through errors.require().

Bare assert statements and __debug__ tests vanish under ``python -O``,
which would make the optimized interpreter run a second, unchecked
program; the package uses neither.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _policy_breaches(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield f"{path.name}:{node.lineno}: __debug__"


def test_package_has_no_assert_or_debug():
    paths = sorted((SRC / "weylkit").glob("*.py"))
    assert paths
    breaches = [b for path in paths for b in _policy_breaches(path)]
    assert breaches == []


# Runs under -O, so it reports through stdout rather than assert.
OPTIMIZED = """
import dataclasses
from weylkit import (VerificationError, build_order, build_root_system,
                     distinction_witness_mu, enumerate_balanced, generate,
                     minimal_generators, parse_type)


def outcome(fn):
    try:
        fn()
    except VerificationError:
        return "VerificationError"
    return "returned"


o = build_order(generate(build_root_system(parse_type("A2"))))
(ideal,) = enumerate_balanced(o)
# one tampered cover list: the identity claims to cover a generator
covers = list(o.covers)
covers[0] = [minimal_generators(o, ideal)[0]]
forged = dataclasses.replace(o, covers=covers)
print(__debug__, outcome(lambda: enumerate_balanced(forged)),
      outcome(lambda: distinction_witness_mu(1)))
"""


# Every per-ideal fact is computed first on the true order; the forged
# copy must still fail orthogonal's check of its result.
OPTIMIZED_MEMO = """
import dataclasses
from weylkit import (VerificationError, build_order, build_parabolic,
                     build_root_system, generate, hausdorff_bound,
                     ideal_from_elements, ideal_to_json_dict,
                     minimal_generators, omega_betti, orthogonal, parse_type,
                     splitting_check)


def outcome(fn):
    try:
        fn()
    except VerificationError:
        return "VerificationError"
    return "returned"


o = build_order(generate(build_root_system(parse_type("A2"))))
g = o.g
p = build_parabolic(g, ())
ideal = ideal_from_elements(o, [0])     # {e}; its orthogonal is W minus w0
for fn in (omega_betti, splitting_check, hausdorff_bound):
    fn(o, ideal, p)
orthogonal(o, ideal)
minimal_generators(o, ideal)
ideal_to_json_dict(o, ideal)
# one tampered cover list: a generator claims to cover w0
covers = [list(c) for c in o.covers]
covers[g.generators[0]].append(g.w0)
forged = dataclasses.replace(o, covers=covers)
print(__debug__, outcome(lambda: orthogonal(forged, ideal)),
      outcome(lambda: orthogonal(o, ideal)))
"""


# A mask that lacks its own element never decides that branch; the
# search must refuse it instead of pushing the same state forever.
OPTIMIZED_DOWN = """
import dataclasses
from weylkit import (VerificationError, build_order, build_root_system,
                     enumerate_balanced, generate, parse_type)

o = build_order(generate(build_root_system(parse_type("A2"))))
down = list(o.down)
down[1] &= ~(1 << 1)
try:
    enumerate_balanced(dataclasses.replace(o, down=down))
    print(__debug__, "returned")
except VerificationError:
    print(__debug__, "VerificationError")
"""


def _run_optimized(script, timeout=120):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_checks_run_under_python_O():
    assert _run_optimized(OPTIMIZED) == ["False", "VerificationError",
                                         "VerificationError"]


def test_memo_checks_a_forged_order_under_python_O():
    assert _run_optimized(OPTIMIZED_MEMO) == ["False", "VerificationError",
                                              "returned"]


def test_forged_down_without_its_element_is_refused_under_python_O():
    assert _run_optimized(OPTIMIZED_DOWN, timeout=30) == [
        "False", "VerificationError"]
