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
from weylkit import (BruhatOrder, VerificationError, build_order,
                     build_root_system, distinction_witness_mu,
                     enumerate_balanced, generate, minimal_generators,
                     parse_type)


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
forged = BruhatOrder(g=o.g, covers=covers, down=o.down)
print(__debug__, outcome(lambda: enumerate_balanced(forged)),
      outcome(lambda: distinction_witness_mu(1)))
"""


# Every per-ideal fact is computed first on the true order; the forged
# copy must still fail orthogonal's check of its result.
OPTIMIZED_MEMO = """
from weylkit import (BruhatOrder, VerificationError, build_order,
                     build_parabolic, build_root_system, generate,
                     hausdorff_bound, ideal_from_elements,
                     ideal_to_json_dict, minimal_generators, omega_betti,
                     orthogonal, parse_type, splitting_check)


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
forged = BruhatOrder(g=g, covers=covers, down=o.down)
print(__debug__, outcome(lambda: orthogonal(forged, ideal)),
      outcome(lambda: orthogonal(o, ideal)))
"""


# An enumerated ideal holds its certified orthogonal and generators for
# its own order only: forged copies of that order still refuse it.
OPTIMIZED_ENUMERATED = """
from weylkit import (BruhatOrder, InvalidInputError, VerificationError,
                     build_order, build_root_system, enumerate_balanced,
                     generate, minimal_generators, orthogonal, parse_type)


def outcome(fn):
    try:
        fn()
    except (InvalidInputError, VerificationError) as exc:
        return type(exc).__name__
    return "returned"


o = build_order(generate(build_root_system(parse_type("A3"))))
g = o.g
ideal = enumerate_balanced(o)[0]
gens = minimal_generators(o, ideal)
orthogonal(o, ideal)
# a generator claims to cover an element outside the ideal
outside = next(x for x in range(g.order) if x not in ideal)
covers = [list(c) for c in o.covers]
covers[gens[-1]].append(outside)
over = BruhatOrder(g=g, covers=covers, down=o.down)
# the identity claims to cover a generator, so it drops out
covers = list(o.covers)
covers[0] = [gens[-1]]
hidden = BruhatOrder(g=g, covers=covers, down=o.down)
print(__debug__, outcome(lambda: orthogonal(over, ideal)),
      outcome(lambda: minimal_generators(over, ideal)),
      outcome(lambda: minimal_generators(hidden, ideal)),
      outcome(lambda: minimal_generators(o, ideal)))
"""


# A mask that lacks its own element never decides that branch; the
# search must refuse it instead of pushing the same state forever.
OPTIMIZED_DOWN = """
from weylkit import (BruhatOrder, VerificationError, build_order,
                     build_root_system, enumerate_balanced, generate,
                     parse_type)

o = build_order(generate(build_root_system(parse_type("A2"))))
down = list(o.down)
down[1] &= ~(1 << 1)
try:
    enumerate_balanced(BruhatOrder(g=o.g, covers=o.covers, down=down))
    print(__debug__, "returned")
except VerificationError:
    print(__debug__, "VerificationError")
"""


# The inverses are walked on first use, so a copy with a forged table
# walks its own and must refuse a result that is not an involution.
OPTIMIZED_INVERSE = """
from weylkit import (VerificationError, WeylGroup, build_root_system,
                     generate, parse_type)


def outcome(g):
    try:
        g.inverse
    except VerificationError:
        return "VerificationError"
    return "returned"


g = generate(build_root_system(parse_type("A2")))
rmult = list(g.rmult)
rmult[0] = (rmult[0][0], rmult[0][0])   # both generators lead to s1
forged = WeylGroup(rs=g.rs, length=g.length, rmult=rmult,
                   bfs_parent=g.bfs_parent, bfs_letter=g.bfs_letter,
                   generators=g.generators, w0=g.w0)
print(__debug__, outcome(forged), outcome(g))
"""


# Forged simple actions: two entries of s1's action swapped on D4 and on
# F4, and s2's action copied over s1's on A2.  Each makes a product land
# on an element whose row is already sealed; the build must refuse that
# rather than write into the sealed row.
OPTIMIZED_ACTIONS = """
from weylkit import build_root_system, generate, parse_type


def outcome(spec, forge):
    rs = build_root_system(parse_type(spec))
    actions = [list(a) for a in rs.simple_actions]
    forge(actions)
    rs.simple_actions = tuple(map(tuple, actions))
    try:
        generate(rs)
    except Exception as e:
        return type(e).__name__
    return "returned"


def swap(actions):
    actions[0][0], actions[0][1] = actions[0][1], actions[0][0]


def copy(actions):
    actions[0] = actions[1]


print(__debug__, outcome("D4", swap), outcome("F4", swap),
      outcome("A2", copy))
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


def test_enumerated_ideal_is_refused_by_a_forged_order_under_python_O():
    assert _run_optimized(OPTIMIZED_ENUMERATED, timeout=30) == [
        "False", "InvalidInputError", "InvalidInputError",
        "VerificationError", "returned"]


def test_forged_down_without_its_element_is_refused_under_python_O():
    assert _run_optimized(OPTIMIZED_DOWN, timeout=30) == [
        "False", "VerificationError"]


def test_forged_table_with_no_involutive_inverse_is_refused_under_python_O():
    assert _run_optimized(OPTIMIZED_INVERSE, timeout=30) == [
        "False", "VerificationError", "returned"]


def test_forged_simple_actions_are_refused_under_python_O():
    assert _run_optimized(OPTIMIZED_ACTIONS, timeout=30) == [
        "False", "VerificationError", "VerificationError",
        "VerificationError"]
