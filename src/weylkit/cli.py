"""Command-line frontend.

Every subcommand prints either a human-readable summary or, with
--json, a single machine-readable JSON document of the shape

    {"schema": 1, "command": ..., "inputs": ..., "outputs": ...,
     "verification": ...}

serialized with sorted keys and fixed separators so identical inputs
produce byte-identical output.  Wall time appears only in the human
output for the same reason.

Generator indices are 1-based on the command line and in human output
(s1, s2, ...); JSON words use the internal 0-based indices so that
ideal files round-trip.  Exit codes: 0 success, 1 usage error, 2 a
verified property failed, 3 a size budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from itertools import compress

from . import bruhat, families, topology
from .bbw import bbw_cohomology, sheaf_cohomology_cases
from .cartan import parse_type
from .errors import (BudgetExceededError, InvalidInputError,
                     VerificationError, WeylkitError, clip)
from .parabolic import build_parabolic
from .weyl import WeylGroup, build_group


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map."""

    def error(self, message):
        if message == "argument --weight: expected one argument":
            # argparse reads a negative value after a space as an option
            message += "; a leading minus needs the = form, --weight=-1,2"
        # argparse echoes tokens; its own text stays under 150 characters
        raise InvalidInputError(clip(message, 200))


def _word_str(word) -> str:
    return "*".join(f"s{i + 1}" for i in word) or "e"


def _parse_gens(text: str | None, rank: int) -> tuple[int, ...]:
    """Comma-separated 1-based generator indices; empty means none."""
    if not text:
        return ()
    idx = _parse_ints(text, "generator list")
    for i in idx:
        if not 1 <= i <= rank:
            raise InvalidInputError(
                f"generator index {clip(i)} out of 1..{rank}")
    return tuple(sorted(set(i - 1 for i in idx)))


_INT = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)")


def _int(text: str) -> int:
    """An optional minus sign and ASCII digits, nothing else: int() alone
    also takes a plus sign, spaces, digit-group underscores and
    non-ASCII digits.  The one reader of every integer argument."""
    if not _INT.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _decimal(text: str) -> float:
    """A plain ASCII decimal, with an optional minus sign.  The nan and
    inf spellings of float() pass through: the range check of
    hausdorff_bound refuses them, as it refuses any value outside
    [0, 2]."""
    if not (_DECIMAL.fullmatch(text)
            or text.lower().lstrip("+-") in ("nan", "inf", "infinity")):
        raise ValueError(text)
    return float(text)


# argparse names the type in its refusal: "invalid int value: 'x'"
_int.__name__, _decimal.__name__ = "int", "float"


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated ints, spaces dropped; an empty field is refused,
    and only a wholly empty text reads as no ints."""
    fields = text.replace(" ", "")
    try:
        return tuple(map(_int, fields.split(","))) if fields else ()
    except ValueError:
        raise InvalidInputError(f"bad {what} {clip(repr(text))}")


def _parse_perm(text: str) -> tuple[int, ...]:
    p = _parse_ints(text, "permutation")
    families.check_permutation(p)
    return p


def _group(type_str: str) -> WeylGroup:
    return build_group(parse_type(type_str))


def _build(type_str: str) -> tuple[WeylGroup, bruhat.BruhatOrder]:
    g = _group(type_str)
    return g, bruhat.build_order(g)


# family name -> constructor(order, verify=...); `family` also offers
# lower-half-J, which takes a middle-level selection
_FAMILIES = {"lower-half": families.lower_half_ideal,
             "incidence": families.incidence_ideal,
             "principal-2n": families.principal_2n_ideal}


def _resolve_ideal(o: bruhat.BruhatOrder, spec: str) -> bruhat.Ideal:
    """An ideal from `family:<name>` or from a JSON file."""
    if spec.startswith("family:"):
        name = spec[len("family:"):]
        if name not in _FAMILIES:
            raise InvalidInputError(f"unknown family {clip(repr(name))}")
        return _FAMILIES[name](o, verify=False)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _file_error("cannot read ideal file", spec, exc)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(
            f"ideal file {_clip_path(spec)} is not JSON: {exc}")
    return bruhat.ideal_from_json_dict(o, data)


def _clip_path(path: str) -> str:
    # a path keeps 120 characters, so most print whole
    return clip(repr(path), 120)


def _file_error(what: str, path: str, exc: OSError) -> InvalidInputError:
    """One error line that names the file once, clipped, and the reason."""
    return InvalidInputError(f"{what} {_clip_path(path)}: {exc.strerror}")


def _emit(args, inputs: dict, outputs: dict, verification: dict,
          human_lines: list[str], t0: float) -> None:
    if args.json:
        doc = {"schema": 1, "command": args.command, "inputs": inputs,
               "outputs": outputs, "verification": verification}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    for line in human_lines:
        print(line)
    for key, val in sorted(verification.items()):
        print(f"  [{'ok' if val else 'FAIL'}] {key}")
    print(f"wall time: {1e3 * (time.perf_counter() - t0):.1f} ms")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_group(args, t0):
    g = _group(args.type)
    hist = [0] * (g.n_positive + 1)
    for l in g.length:
        hist[l] += 1
    outputs = {"order": g.order, "l_w0": g.n_positive, "lengths": hist,
               "rank": g.rank}
    lines = [f"type {g.rs.cartan_type}: order {g.order}, "
             f"l(w0) = {g.n_positive}",
             "length histogram: " + ",".join(map(str, hist)),
             f"w0 = {_word_str(g.reduced_word(g.w0))}"]
    _emit(args, {"type": args.type}, outputs, {}, lines, t0)
    return 0


def _cmd_balanced(args, t0):
    bruhat.check_enumeration_budget(parse_type(args.type), args.max_order)
    g, o = _build(args.type)
    inputs = {"type": args.type, "right_invariant": args.right_invariant,
              "max_order": args.max_order}
    inv = None
    if args.right_invariant is not None:
        inv = build_parabolic(g, _parse_gens(args.right_invariant, g.rank))
    used, certified = bruhat._enumerate_certified(o, invariance=inv,
                                                  max_order=args.max_order)
    words = [list(g.reduced_word(x)) for x in used]
    out_ideals = [{"type": str(g.rs.cartan_type),
                   "generators": list(compress(words, row)),
                   "size": mask.bit_count()}
                  for mask, row in certified]
    del certified               # free the rows before rendering the document
    outputs = {"count": len(out_ideals), "ideals": out_ideals}
    lines = []
    if not args.json:
        lines.append(f"type {g.rs.cartan_type}: {len(out_ideals)} balanced "
                     "ideal(s)" + ("" if inv is None else
                                   f" invariant under <{args.right_invariant}>"))
        for pos, d in enumerate(out_ideals):
            gens = ", ".join(_word_str(w) for w in d["generators"])
            lines.append(f"  #{pos}: size {d['size']}, generators {gens}")
    _emit(args, inputs, outputs, {}, lines, t0)
    return 0


def _cmd_family(args, t0):
    if args.select is not None and args.name != "lower-half-J":
        raise InvalidInputError("--select applies only to lower-half-J")
    degree = args.n if args.name != "principal-2n" else 2 * args.n
    if degree < 2:
        raise InvalidInputError("need a symmetric group of degree >= 2")
    g, o = families.build_symmetric(degree)
    verify = args.verify
    if args.name in _FAMILIES:
        ideal = _FAMILIES[args.name](o, verify=verify)
    else:
        if args.select is not None:
            chosen = [families.perm_to_element(g, _parse_perm(tok))
                      for tok in args.select.split(";") if tok]
        else:
            # deterministic default: smaller id of each middle pair
            chosen = [a for a, _ in families.middle_level_pairs(g)]
        ideal = families.lower_half_with_selection(o, chosen, verify=verify)
    verification = ({"balanced": bruhat.classify(o, ideal).balanced}
                    if verify else {})
    data = bruhat.ideal_to_json_dict(o, ideal)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(data, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
        except OSError as exc:
            raise _file_error("cannot write", args.out, exc)
    inputs = {"family": args.name, "n": args.n, "verify": verify,
              "select": args.select}
    outputs = {"ideal": data, "size": ideal.size,
               "group_order": g.order}
    lines = [f"{args.name} ideal in S_{degree} (type {g.rs.cartan_type}): "
             f"size {ideal.size} of {g.order}",
             "generators: " + ", ".join(_word_str(w)
                                        for w in data["generators"])]
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(args, inputs, outputs, verification, lines, t0)
    return 0


def _cmd_betti(args, t0):
    g, o = _build(args.type)
    ideal = _resolve_ideal(o, args.ideal)
    theta = _parse_gens(args.domain, g.rank)
    p = build_parabolic(g, theta)
    cls = bruhat.classify(o, ideal)
    inputs = {"type": args.type, "ideal": args.ideal,
              "domain": list(theta), "genus": args.genus}
    outputs = {
        "ideal_size": ideal.size,
        "slim": cls.slim, "fat": cls.fat, "balanced": cls.balanced,
        "thickening_ranks": topology.thickening_ranks(ideal, p).to_json(),
        "orthogonal_thickening_ranks":
            topology.thickening_ranks(bruhat.orthogonal(o, ideal),
                                      p).to_json(),
    }
    verification = {"downward_closed": True,
                    "right_invariant": True,
                    "splitting": topology.splitting_check(o, ideal, p)}
    lines = [f"ideal of size {ideal.size} in type {g.rs.cartan_type}; "
             f"slim={cls.slim} fat={cls.fat} balanced={cls.balanced}",
             "thickening ranks: "
             + ",".join(map(str, outputs["thickening_ranks"]))]
    if cls.slim:
        omega = topology.omega_betti(o, ideal, p)
        outputs["omega_betti"] = omega.to_json()
        lines.append("domain Betti numbers: "
                     + ",".join(map(str, omega.to_json())))
        if cls.balanced:
            chi = topology.euler_omega(o, ideal, p)
            outputs["euler"] = chi
            lines.append(f"Euler characteristic: {chi}")
        if args.genus is not None:
            quot = topology.quotient_homology(omega, args.genus)
            outputs["quotient_homology"] = quot.to_json()
            outputs["quotient_euler"] = quot.euler
            lines.append(f"quotient homology (genus {args.genus}): "
                         + ",".join(map(str, quot.to_json())))
    _emit(args, inputs, outputs, verification, lines, t0)
    return 0


def _cmd_poincare(args, t0):
    if args.m < 1:
        raise InvalidInputError("need a positive parameter")
    if args.kind == "flag":
        poly = topology.flag_poincare(args.m)
        label = f"flag manifold Poincare polynomial, m = {args.m}"
    else:
        poly = topology.omega2n_closed_form(args.m)
        label = f"principal-family domain Poincare polynomial, n = {args.m}"
    outputs = {"coefficients": poly.to_json(), "total": poly.total,
               "euler": poly.euler}
    lines = [label,
             "coefficients: " + ",".join(map(str, poly.to_json())),
             f"value at t=1: {poly.total}"]
    _emit(args, {"kind": args.kind, "m": args.m}, outputs, {}, lines, t0)
    return 0


def _cmd_bbw(args, t0):
    if args.cd is not None and args.k is None:
        raise InvalidInputError("--cd needs --k")
    g = _group(args.type)
    lam = _parse_ints(args.weight, "weight")
    report = bbw_cohomology(g, lam)
    inputs = {"type": args.type, "weight": list(lam), "k": args.k,
              "cd": args.cd}
    outputs = report.to_json()
    if report.all_vanish:
        lines = [f"weight {lam}: all cohomology vanishes (not regular)"]
    else:
        lines = [f"weight {lam}: cohomology in degree {report.degree} only",
                 f"highest weight {report.highest_weight}, "
                 f"dimension {report.dimension}"]
    if args.k is not None:
        sheaf = sheaf_cohomology_cases(g, lam, args.k, cd=args.cd)
        outputs["sheaf"] = sheaf.to_json()
        lines.append(f"quotient case {sheaf.case}: zero below degree "
                     f"{sheaf.zero_below}, group window "
                     f"{sheaf.group_window}, vanishing window "
                     f"{sheaf.vanishing_window}")
    _emit(args, inputs, outputs, {}, lines, t0)
    return 0


def _cmd_small(args, t0):
    report = bruhat.verify_short_small(parse_type(args.type), args.max_len)
    inputs = {"type": args.type, "max_len": args.max_len,
              "expect_all_small": args.expect_all_small}
    outputs = {"all_small": report.all_small,
               "expected_all_small": report.expected_all_small,
               "witnesses": [list(w) for w in report.witnesses]}
    lines = [f"type {report.cartan_type}, length <= {args.max_len}: "
             + ("all elements small" if report.all_small
                else "non-small witnesses "
                + ", ".join(_word_str(w) for w in report.witnesses))]
    verification = {"matches_expected":
                    report.all_small == report.expected_all_small}
    _emit(args, inputs, outputs, verification, lines, t0)
    if args.expect_all_small and not report.all_small:
        raise VerificationError(
            "short elements are not all small: witness "
            + ", ".join(_word_str(w) for w in report.witnesses))
    return 0


def _cmd_hausdorff(args, t0):
    g, o = _build(args.type)
    ideal = _resolve_ideal(o, args.ideal)
    p = build_parabolic(g, _parse_gens(args.domain, g.rank))
    report = topology.hausdorff_bound(o, ideal, p,
                                      limit_curve_dim=args.curve_dim)
    inputs = {"type": args.type, "ideal": args.ideal,
              "domain": list(p.theta), "curve_dim": args.curve_dim}
    outputs = report.to_json()
    lines = [f"Hausdorff dimension bound: {report.bound}",
             f"2n = {2 * report.n}; domain nonempty: "
             f"{report.domain_nonempty}"]
    _emit(args, inputs, outputs, {}, lines, t0)
    return 0


def _cmd_distinct(args, t0):
    verify = args.verify
    report = topology.homotopy_distinction(args.j)
    mu = families.distinction_witness_mu(args.j, verify=verify)
    inputs = {"j": args.j, "verify": verify}
    outputs = report.to_json()
    outputs["witness"] = list(mu)
    outputs["witness_length"] = families.perm_length(mu)
    lines = [f"j = {args.j}: middle Betti numbers b_2k with k = {report.k}",
             f"lower-half domain: {report.b_lower_half}; "
             f"principal domain: {report.b_principal}; "
             f"strictly smaller: {report.strict}",
             f"witness permutation {mu}, length {outputs['witness_length']}"]
    _emit(args, inputs, outputs,
          {"strict": report.strict} if verify else {}, lines, t0)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="weylkit",
                     description="Weyl group combinatorics: Bruhat order, "
                     "balanced ideals, domain topology, and line-bundle "
                     "cohomology.")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one deterministic JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[common],
                       help="order, longest length, length histogram")
    p.add_argument("type", help="Cartan type, e.g. A2 or A1xB2")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("balanced", parents=[common],
                       help="enumerate balanced ideals")
    p.add_argument("type")
    p.add_argument("--right-invariant", metavar="GENS", default=None,
                   help="restrict to ideals invariant under these "
                   "1-based generators (empty string allowed)")
    p.add_argument("--max-order", type=_int, default=None,
                   help="refuse groups larger than this")
    p.set_defaults(func=_cmd_balanced)

    p = sub.add_parser("family", parents=[common],
                       help="construct a named ideal family")
    p.add_argument("name", choices=[*_FAMILIES, "lower-half-J"])
    p.add_argument("n", type=_int,
                   help="symmetric group degree (for principal-2n: "
                   "half the degree)")
    p.add_argument("--verify", action="store_true",
                   help="check the defining properties; failures exit 2")
    p.add_argument("--select", default=None,
                   help="lower-half-J: semicolon-separated middle "
                   "permutations, e.g. '2,3,1;...'")
    p.add_argument("--out", default=None, help="write the ideal as JSON")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("betti", parents=[common],
                       help="thickening ranks, domain Betti numbers, "
                       "Euler characteristic, quotient homology")
    p.add_argument("type")
    p.add_argument("--ideal", required=True,
                   help="ideal file or family:<lower-half|incidence|"
                   "principal-2n>")
    p.add_argument("--domain", default="",
                   help="1-based generators of the domain subgroup")
    p.add_argument("--genus", type=_int, default=None)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("poincare", parents=[common],
                       help="closed-form Poincare polynomials")
    p.add_argument("kind", choices=["flag", "omega2n"])
    p.add_argument("m", type=_int)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("bbw", parents=[common],
                       help="line-bundle cohomology of a weight")
    p.add_argument("type")
    p.add_argument("--weight", required=True,
                   help="comma-separated fundamental coordinates; "
                   "a leading minus needs the = form, --weight=-1,2")
    p.add_argument("--k", type=_int, default=None,
                   help="degree window bound for the quotient cases")
    p.add_argument("--cd", type=_int, default=None,
                   help="cohomological dimension of the group; "
                   "needs --k")
    p.set_defaults(func=_cmd_bbw)

    p = sub.add_parser("small", parents=[common],
                       help="check that short elements are small")
    p.add_argument("type")
    p.add_argument("--max-len", type=_int, choices=[1, 2], required=True)
    p.add_argument("--expect-all-small", action="store_true",
                   help="exit 2 with witnesses if any short element "
                   "is not small")
    p.set_defaults(func=_cmd_small)

    p = sub.add_parser("hausdorff", parents=[common],
                       help="Hausdorff dimension bound for the limit set")
    p.add_argument("type")
    p.add_argument("--ideal", required=True)
    p.add_argument("--domain", default="")
    p.add_argument("--curve-dim", type=_decimal, default=1.0)
    p.set_defaults(func=_cmd_hausdorff)

    p = sub.add_parser("distinct", parents=[common],
                       help="middle Betti numbers separating the two "
                       "domain families")
    p.add_argument("j", type=_int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_distinct)
    return parser


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, t0)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except WeylkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
