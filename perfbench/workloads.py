"""The benchmark's four workloads, each run in a fresh interpreter.

Usage (run.py starts this with PYTHONPATH=src):

    python perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 [--scale full|smoke] [--setup-only]

Set-up draws the run's jobs from the seed, so the same seed gives the
same inputs, and builds any state the jobs share.  The process then
prints `ready` (run.py times set-up up to that line) and runs the same
job list round after round until the next round would end after
--seconds (at least one round).  A job's time is its fastest over the
rounds, and wall_s and cpu_s are the sums of those times.  The jobs
are deterministic CPU work, so a slower repeat means interference from
outside the process: on a shared 2-vCPU host the same round was seen
to vary by 30% within a minute.  Slow phases that outlast a run are
cancelled by hostspeed.py: its reference kernel is timed just before
and just after each job, outside the timed region and before the
job's check, unless a sample is less than REF_EVERY_S old.  Each job
time is also taken in reference seconds against the fastest sample
within KERNEL_WINDOW_S of the job, and wall_ref_s and cpu_ref_s sum
each job's fastest reference time over the rounds.

Every job runs under a wall-clock timeout; a job that raises, times out
or fails a check is counted as failed.  Checks run outside the timed
region and use reference.py, not the code under test.

With --trace 1 untraced and traced rounds alternate, so
trace.overhead_share compares identical inputs on the same machine
state; per-layer numbers are per traced round, and the spans are
written to .perfbench-traces/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import hostspeed
import reference as ref
from reference import require
from tracing import Tracer, summary

import weylkit as wk

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT_S = 60.0
CLI_TIMEOUT_S = 30.0
PROBE_REPEATS = 5
REF_EVERY_S = 0.3       # most seconds between two reference-kernel samples
KERNEL_WINDOW_S = 1.0   # a job's local kernel time: samples this close to it


class JobTimeout(BaseException):
    """Raised by SIGALRM when an in-process job overruns JOB_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Job:
    label: str
    call: Callable[[], object]            # the timed calls into weylkit
    check: Callable[[object], int]        # raises CheckFailed; returns items


@dataclass
class RoundRecord:
    walls: list = field(default_factory=list)     # per job, in job order
    cpus: list = field(default_factory=list)
    items: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # per job: local kernel time


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _cpu() -> float:
    return time.process_time() + _children_cpu()


class KernelSamples:
    """Reference-kernel times taken between jobs, at most REF_EVERY_S apart."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.last = -math.inf

    def take(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= REF_EVERY_S:
            self.starts.append(time.perf_counter())
            self.times.append(hostspeed.sample())
            self.last = time.perf_counter()

    def fastest_near(self, start: float, end: float) -> float:
        """The fastest sample within KERNEL_WINDOW_S of [start, end].

        One exists: take() runs before every job, so the last sample
        before a job started less than REF_EVERY_S before it.
        """
        return min(k for t, k in zip(self.starts, self.times)
                   if start - KERNEL_WINDOW_S <= t <= end + KERNEL_WINDOW_S)


def run_round(jobs: list[Job], tracer: Tracer | None) -> RoundRecord:
    rec = RoundRecord()
    kernel = KernelSamples()
    spans = []            # per job: start and end of its timed region
    for k, job in enumerate(jobs):
        kernel.take()
        if tracer is not None:
            tracer.job = k
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            result = job.call()
        except JobTimeout:
            error = f"timeout after {JOB_TIMEOUT_S:.0f} s"
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec.cpus.append(_cpu() - c0)
        rec.walls.append(t1 - t0)
        spans.append((t0, t1))
        kernel.take()     # after a long job, before its check
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                rec.items += job.check(result)
            except Exception as exc:  # unparsable output fails the check
                error = f"check: {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        result = None  # release big orders before the next job
        if error is not None:
            rec.failed += 1
            if len(rec.failures) < 5:
                rec.failures.append(f"{job.label}: {error}")
    kernel.take(force=True)
    rec.kernel_s = [kernel.fastest_near(t0, t1) for t0, t1 in spans]
    return rec


def measure(jobs: list[Job], seconds: float) -> list[RoundRecord]:
    """Run rounds until the next would overrun `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(jobs, None))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def fastest(rounds: list[RoundRecord], attr: str) -> list[float]:
    """Each job's fastest time over the rounds."""
    return [min(xs) for xs in zip(*(getattr(r, attr) for r in rounds))]


def fastest_reference(rounds: list[RoundRecord], attr: str) -> list[float]:
    """Each job's fastest time over the rounds, in reference seconds."""
    return [min(xs) for xs in zip(*(
        [hostspeed.to_reference(t, k) for t, k in zip(getattr(r, attr),
                                                      r.kernel_s)]
        for r in rounds))]


def _rng(seed: int, *keys) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + keys)))


# ---------------------------------------------------------------------------
# cli-mix: sequential `python -m weylkit.cli <sub> ... --json` processes

CLI_TYPES = ("A3", "B3", "C3", "D4", "A4", "B4", "A2xA2", "B2xA2", "G2xA2")
# (type, ideal, 1-based domain): balanced ideals that are right-invariant
CLI_IDEALS = (("A2", "family:lower-half", ""),
              ("A3", "family:principal-2n", ""),
              ("A3", "family:incidence", "2"),
              ("A4", "family:incidence", "2,3"))
CLI_FAMILIES = (("lower-half", 3), ("lower-half", 6), ("lower-half-J", 4),
                ("lower-half-J", 5), ("incidence", 4), ("incidence", 5),
                ("incidence", 6), ("principal-2n", 2), ("principal-2n", 3))


def _draw_cli(rng: random.Random, sub: str) -> list[str]:
    if sub == "group":
        return [rng.choice(CLI_TYPES)]
    if sub == "balanced":
        return [rng.choice(("A2", "A3", "B3", "C3", "B2xA1"))]
    if sub == "family":
        name, n = rng.choice(CLI_FAMILIES)
        return [name, str(n), "--verify"]
    if sub == "betti":
        t, ideal, dom = rng.choice(CLI_IDEALS)
        argv = [t, "--ideal", ideal, "--domain", dom]
        if rng.random() < 0.5:
            argv += ["--genus", str(rng.randint(2, 6))]
        return argv
    if sub == "poincare":
        if rng.random() < 0.5:
            return ["flag", str(rng.randint(1, 30))]
        return ["omega2n", str(rng.randint(1, 15))]
    if sub == "bbw":
        t = rng.choice(CLI_TYPES)
        rank = sum(n for _, n in ref.factors(t))
        weight = ",".join(str(rng.randint(-4, 4)) for _ in range(rank))
        argv = [t, f"--weight={weight}"]
        if rng.random() < 0.5:
            argv += ["--k", str(rng.randint(1, 12))]
            if rng.random() < 0.5:
                argv += ["--cd", str(rng.randint(0, 4))]
        return argv
    if sub == "small":
        return [rng.choice(CLI_TYPES), "--max-len", rng.choice("12")]
    if sub == "hausdorff":
        t, ideal, dom = rng.choice(CLI_IDEALS)
        return [t, "--ideal", ideal, "--domain", dom,
                "--curve-dim", str(rng.randint(0, 8) / 4)]
    if sub == "distinct":
        return ["1"]
    raise ValueError(sub)


CLI_SUBCOMMANDS = ("group", "balanced", "family", "betti", "poincare", "bbw",
                   "small", "hausdorff", "distinct")


def _opt(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_cli(argv: list[str], rc: int, out: bytes) -> None:
    sub, args = argv[0], argv[1:]
    require(rc == 0, f"exit code {rc}")
    lines = out.decode().splitlines()
    require(len(lines) == 1, f"{len(lines)} stdout lines, want 1")
    doc = json.loads(lines[0])
    require(doc.get("schema") == 1 and doc.get("command") == sub,
            "not a schema-1 document for this command")
    o = doc["outputs"]
    if sub == "group":
        t = args[0]
        require(o["order"] == ref.order(t), "group order")
        require(o["lengths"] == ref.length_histogram(t), "length histogram")
        require(o["l_w0"] == ref.n_positive(t), "l(w0)")
    elif sub == "balanced":
        t = args[0]
        want = ref.BALANCED_COUNTS.get(t, ref.PINNED_BALANCED_COUNTS.get(t))
        require(o["count"] == want == len(o["ideals"]), "balanced count")
        require(all(2 * d["size"] == ref.order(t) for d in o["ideals"]),
                "balanced ideal size")
    elif sub == "family":
        n = int(args[1]) * (2 if args[0] == "principal-2n" else 1)
        require(doc["verification"] == {"balanced": True}, "family verification")
        require(o["group_order"] == math.factorial(n) == 2 * o["size"],
                "family ideal size")
    elif sub == "betti":
        t, dom = args[0], _opt(args, "--domain")
        theta = [int(i) for i in dom.split(",") if i]
        chi = ref.order(t) // ref.a_parabolic_order(theta)
        require(o["balanced"] and o["euler"] == chi == sum(o["omega_betti"]),
                "Euler characteristic = cosets = total Betti")
        require(doc["verification"].get("splitting") is True, "splitting")
        genus = _opt(args, "--genus")
        if genus is not None:
            require(o["quotient_euler"] == chi * (2 - 2 * int(genus)),
                    "quotient Euler characteristic")
    elif sub == "poincare":
        m = int(args[1])
        coeffs = o["coefficients"]
        total = math.factorial(m if args[0] == "flag" else 2 * m)
        require(o["total"] == sum(coeffs) == total == o["euler"],
                "Poincare polynomial at t=1")
        require(ref.palindromic(coeffs), "Poincare polynomial palindromic")
        if args[0] == "flag":
            require(len(coeffs) == m * (m - 1) + 1, "flag top degree")
    elif sub == "bbw":
        t = args[0]
        require(o["all_vanish"] == (o["degree"] is None), "bbw degree")
        if not o["all_vanish"]:
            require(0 <= o["degree"] <= ref.n_positive(t)
                    and o["dimension"] >= 1
                    and min(o["highest_weight"]) >= 0, "bbw report")
        if "sheaf" in o:
            _check_sheaf_case(o["sheaf"], o["degree"], int(_opt(args, "--k")),
                              _opt(args, "--cd"))
    elif sub == "small":
        want = ref.short_all_small(args[0], int(_opt(args, "--max-len")))
        require(o["all_small"] == o["expected_all_small"] == want,
                "short elements small")
        require(o["all_small"] == (not o["witnesses"]), "witness list")
    elif sub == "hausdorff":
        curve = float(_opt(args, "--curve-dim"))
        require(o["bound"] == curve + 2 * o["max_quotient_length"],
                "Hausdorff bound")
        require(o["domain_nonempty"] == (o["bound"] < 2 * o["complex_dim"]),
                "domain non-empty flag")
    elif sub == "distinct":
        require((o["b_lower_half"], o["b_principal"]) == ref.DISTINCT_J1
                and o["strict"], "middle Betti numbers for j = 1")


def _check_sheaf_case(s: dict, degree, k: int, cd) -> None:
    cd = None if cd is None else int(cd)
    if degree is None:
        case = "i"
    elif degree >= k:
        case = "ii"
    else:
        case = "iv" if degree == 0 else "iii"
    require(s["case"] == case and s["degree"] == degree, "sheaf case")
    if case in ("iii", "iv"):
        vanish = None
        if cd is not None and cd + degree + 1 < k:
            vanish = [cd + degree + 1, k]
        require(s["zero_below"] == degree and s["group_window"] == [degree, k]
                and s["vanishing_window"] == vanish, "sheaf windows")
    else:
        require(s["zero_below"] == k and s["group_window"] is None,
                "sheaf vanishing")


class CliPlan:
    """Every subcommand `per_sub` times with seeded arguments and order."""

    def __init__(self, seed: int, scale: str):
        per_sub = 3 if scale == "full" else 1
        subs = CLI_SUBCOMMANDS if scale == "full" else ("group", "poincare")
        rng = _rng(seed, "cli")
        self.argvs = [[sub] + _draw_cli(rng, sub) for sub in subs
                      for _ in range(per_sub)]
        rng.shuffle(self.argvs)
        self.tmp = None
        self.stdout_bytes = 0

    def jobs(self, tracer: Tracer | None) -> list[Job]:
        return [self._job(argv, tracer, k) for k, argv in enumerate(self.argvs)]

    def _job(self, argv: list[str], tracer: Tracer | None, k: int) -> Job:
        if tracer is None:
            cmd = [sys.executable, "-m", "weylkit.cli"] + argv + ["--json"]
            spans = None
        else:
            spans = os.path.join(self.tmp, f"spans-{k}.json")
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), spans,
                   *argv, "--json"]

        def call():
            p = subprocess.run(cmd, capture_output=True,
                               timeout=CLI_TIMEOUT_S)
            return p.returncode, p.stdout

        def check(result) -> int:
            rc, out = result
            if tracer is not None:
                with open(spans) as fh:
                    tracer.absorb(json.load(fh), k)
                os.unlink(spans)
                self.stdout_bytes += len(out)
            check_cli(argv, rc, out)
            return 1
        return Job(" ".join(argv), call, check)


# ---------------------------------------------------------------------------
# enumerate: balanced enumeration, then the topology of the ideals

ENUM_FULL = ("A2", "A3", "B3", "C3", "A2xA2", "B2xA2", "A4")
# One draw per slot and run; members of a slot are diagram-symmetric
# (or B/C twins) and cost about the same.  1-based generators.
ENUM_SLOTS = (
    (("D4", (1,)), ("D4", (3,)), ("D4", (4,))),
    (("B4", (1, 2)), ("C4", (1, 2))),
    (("A5", (1, 2, 3)), ("A5", (2, 3, 4)), ("A5", (3, 4, 5))),
    (("A6", (1, 2, 3, 4, 5)), ("A6", (2, 3, 4, 5, 6))),   # no results: search
)
ENUM_SMOKE_FULL = ("A2", "A3")
ENUM_SMOKE_SLOTS = ((("B3", (1,)),),)
# Every ideal is enumerated, but of A4's 4608 and D4's 562 only a seeded
# sample of this many per job goes on to the topology calls, so a round
# stays near 5 s and a run holds several repeats.
DOWNSTREAM_SAMPLE = 256
# ideals per job whose JSON generators are re-expanded by subwords
JSON_CHECKS = 16


def _enum_job(t: str, theta1: tuple, rng: random.Random) -> Job:
    theta = tuple(i - 1 for i in theta1)
    label = f"balanced {t}" + (f"<{theta1}>" if theta else "")
    want = (ref.PINNED_INVARIANT_COUNTS[(t, theta1)] if theta else
            ref.BALANCED_COUNTS.get(t, ref.PINNED_BALANCED_COUNTS.get(t)))
    sample_seed = rng.random()

    def call():
        g = wk.generate(wk.build_root_system(wk.parse_type(t)))
        o = wk.build_order(g)
        p = wk.build_parabolic(g, theta)
        ideals = wk.enumerate_balanced(o, invariance=p if theta else None,
                                       max_order=g.order)
        chosen = ideals
        if len(ideals) > DOWNSTREAM_SAMPLE:
            pick = random.Random(sample_seed).sample(range(len(ideals)),
                                                     DOWNSTREAM_SAMPLE)
            chosen = [ideals[i] for i in sorted(pick)]
        down = [(i, wk.omega_betti(o, i, p), wk.euler_omega(o, i, p),
                 wk.splitting_check(o, i, p), wk.hausdorff_bound(o, i, p),
                 wk.ideal_to_json_dict(o, i)) for i in chosen]
        return g, ideals, down

    def check(result) -> int:
        g, ideals, down = result
        require(g.order == ref.order(t), "group order")
        require(len(ideals) == want, f"{len(ideals)} ideals, want {want}")
        masks = [i.mask for i in ideals]
        require(len(set(masks)) == len(masks), "duplicate ideals")
        require(all(2 * m.bit_count() == g.order for m in masks),
                "balanced ideal is not |W|/2")
        w0x = ref.w0_left_table(g)
        cosets = g.order // ref.subgroup_order(g, theta)
        for n, (ideal, betti, chi, split, haus, doc) in enumerate(down):
            ref.check_balanced_ideal(g, w0x, ideal.mask, theta)
            require(chi == cosets == betti.total == betti.euler,
                    "Euler characteristic = cosets = total Betti")
            require(split and ref.splitting_holds(g, ideal.mask, ideal.mask,
                                                  theta), "splitting identity")
            require(haus.bound == 1.0 + 2 * haus.max_quotient_length
                    and haus.domain_nonempty == (haus.bound < 2 * haus.n),
                    "Hausdorff bound")
            if n < JSON_CHECKS:
                m = 0
                for word in doc["generators"]:
                    for x in ref.subword_closure(g, word):
                        m |= 1 << x
                require(m == ideal.mask, "JSON generators do not give the ideal")
        return len(ideals)
    return Job(label, call, check)


class EnumeratePlan:
    def __init__(self, seed: int, scale: str):
        full = ENUM_FULL if scale == "full" else ENUM_SMOKE_FULL
        slots = ENUM_SLOTS if scale == "full" else ENUM_SMOKE_SLOTS
        rng = _rng(seed, "enumerate")
        cases = [(t, ()) for t in full] + [rng.choice(slot) for slot in slots]
        self._jobs = [_enum_job(t, theta1, rng) for t, theta1 in cases]

    def jobs(self, tracer) -> list[Job]:
        return self._jobs


# ---------------------------------------------------------------------------
# large-group: group and order building on both sides of the dense limit

# D6 (|W| = 23040) is below the 50000 dense limit, so build_order keeps
# the reachability masks (~140 MB); dense_limit=0 forces the lifting
# recursion that build_order falls back to above the limit.  One input
# on both sides of the selection isolates the path.  (A7 and E6, the
# natural pair around the default limit, take 18-24 s per round on a
# 2-vCPU host, so a run would hold a single repeat.)  verify_short_small
# builds its own dense order, so on D6 it would repeat the dense job's
# build; it runs on B5 (|W| = 3840), which leaves room for more repeats.
LARGE_TYPE = "D6"
SMALL_TYPE = "B5"
LARGE_SMOKE_TYPE = "B3"
LEQ_PAIRS = 20000
ANCHORS = 3             # y values whose whole principal ideal is re-derived
ANCHOR_XS = 200
ANCHOR_MAX_ID = 2000    # ids are in BFS order, so these are short elements


class LargeGroupPlan:
    def __init__(self, seed: int, scale: str):
        t = LARGE_TYPE if scale == "full" else LARGE_SMOKE_TYPE
        small = SMALL_TYPE if scale == "full" else LARGE_SMOKE_TYPE
        rng = _rng(seed, "leq")
        n = ref.order(t)
        ys = [rng.randrange(min(n, ANCHOR_MAX_ID)) for _ in range(ANCHORS)]
        self.anchors = [(rng.randrange(n), y) for y in ys
                        for _ in range(ANCHOR_XS)]
        self.pairs = [(rng.randrange(n), rng.randrange(n))
                      for _ in range(LEQ_PAIRS)]
        self.group = None           # built by the generate job of a round
        self.dense_answers = None
        self._jobs = [self._small_job(small), self._generate_job(t),
                      self._order_job(t, dense=True),
                      self._order_job(t, dense=False)]

    def jobs(self, tracer) -> list[Job]:
        return self._jobs

    def _small_job(self, t: str) -> Job:
        def call():
            return wk.verify_short_small(wk.parse_type(t), 2)

        def check(rep) -> int:
            want = ref.short_all_small(t, 2)
            require(rep.all_small == rep.expected_all_small == want,
                    "short elements small")
            require(rep.all_small == (not rep.witnesses), "witness list")
            return ref.order(t)
        return Job(f"small {t}", call, check)

    def _generate_job(self, t: str) -> Job:
        """The group both order jobs of the round build on."""
        def call():
            self.group = None
            g = wk.generate(wk.build_root_system(wk.parse_type(t)))
            hist = [0] * (g.n_positive + 1)
            for length in g.length:
                hist[length] += 1
            return g, hist

        def check(result) -> int:
            g, hist = result
            require(g.order == ref.order(t), "group order")
            require(hist == ref.length_histogram(t), "length histogram")
            self.group = g
            return g.order
        return Job(f"generate {t}", call, check)

    def _order_job(self, t: str, dense: bool) -> Job:
        pairs = self.anchors + self.pairs
        limit = {} if dense else {"dense_limit": 0}

        def call():
            g = self.group
            if g is None:
                raise RuntimeError("the round's generate job failed")
            o = wk.build_order(g, **limit)
            return g, o.down is not None, [wk.leq(o, x, y) for x, y in pairs]

        def check(result) -> int:
            g, has_masks, got = result
            require(has_masks == dense, "dense-limit selection")
            closure_of = {}
            for (x, y), le in zip(self.anchors, got):
                if y not in closure_of:
                    closure_of[y] = ref.subword_closure(g, g.bfs_word(y))
                require(le == (x in closure_of[y]), "leq differs from subwords")
            for (x, y), le in zip(self.pairs, got[len(self.anchors):]):
                if x == y:
                    require(le, "leq is not reflexive")
                elif g.length[x] >= g.length[y]:
                    require(not le, "leq against length")
            if dense:
                self.dense_answers = got
            elif self.dense_answers is not None:
                require(got == self.dense_answers,
                        "lifting and dense masks disagree")
            return g.order
        path = "dense" if dense else "lifting"
        return Job(f"order {t} {path}", call, check)


# ---------------------------------------------------------------------------
# queries: a long-lived session over prebuilt groups

QUERY_TYPES = ("B4", "F4", "D5", "E6")
QUERY_SMOKE_TYPES = ("A2", "B2")
# per group and round: bbw_cohomology, sheaf_cohomology_cases, weyl_dimension
QUERY_COUNTS = (200, 120, 120)
# The polynomial queries cost ~m^3.3, so a few of them would dominate the
# round and make its cost depend on the seed; their sizes are a fixed
# ladder and only their place in the stream is seeded.
FLAG_MS = (10, 20, 30, 40, 50, 60)
OMEGA_NS = (5, 10, 15)
QUOTIENT_QUERIES = 20


def _dual_positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive coroots in simple-coroot coordinates, by reflection closure."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen, todo = set(simple), list(simple)
    while todo:
        v = todo.pop()
        for j in range(rank):
            pairing = sum(v[i] * cartan[i][j] for i in range(rank))
            w = list(v)
            w[j] -= pairing
            w = tuple(w)
            if min(w) >= 0 and any(w) and w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


def _dominant_walk(g, lam):
    """Reflect at the first negative coordinate until none is left."""
    c = g.rs.cartan_matrix
    v, letters = list(lam), []
    while True:
        i = next((i for i, x in enumerate(v) if x < 0), None)
        if i is None:
            return tuple(v), letters
        li = v[i]
        v = [v[k] - li * c[k][i] for k in range(len(v))]
        letters.append(i)


class QueriesPlan:
    def __init__(self, seed: int, scale: str):
        types = QUERY_TYPES if scale == "full" else QUERY_SMOKE_TYPES
        self.groups = {t: wk.generate(wk.build_root_system(wk.parse_type(t)))
                       for t in types}
        self.coroots = {}
        if scale == "full":
            self._jobs = self._draw(_rng(seed, "queries"), QUERY_COUNTS,
                                    FLAG_MS, OMEGA_NS)
        else:
            self._jobs = self._draw(_rng(seed, "queries"), (5, 5, 5), (4,), (2,))

    def jobs(self, tracer) -> list[Job]:
        return self._jobs

    def _dimension(self, t: str, mu) -> int:
        g = self.groups[t]
        if t not in self.coroots:
            self.coroots[t] = _dual_positive_roots(g.rs.cartan_matrix)
        num = den = 1
        for v in self.coroots[t]:
            num *= sum(a * (m + 1) for a, m in zip(v, mu))
            den *= sum(v)
        return num // den

    def _draw(self, rng: random.Random, counts, flag_ms, omega_ns) -> list[Job]:
        jobs = []
        n_bbw, n_sheaf, n_dim = counts
        for t, g in self.groups.items():
            def weight(lo, hi):
                return tuple(rng.randint(lo, hi) for _ in range(g.rank))
            jobs += [self._bbw(t, weight(-6, 6)) for _ in range(n_bbw)]
            jobs += [self._sheaf(t, weight(-6, 6),
                                 rng.randint(1, g.n_positive + 2),
                                 rng.choice((None,) + tuple(range(7))))
                     for _ in range(n_sheaf)]
            jobs += [self._dim(t, weight(0, 5)) for _ in range(n_dim)]
        jobs += [self._flag(m) for m in flag_ms]
        jobs += [self._omega(n) for n in omega_ns]
        for _ in range(QUOTIENT_QUERIES):
            even = [1] + [rng.randint(0, 50) for _ in range(rng.randint(2, 11))]
            jobs.append(self._quotient(wk.GradedRanks.from_even(even),
                                       rng.randint(2, 8)))
        rng.shuffle(jobs)
        return jobs

    def _bbw(self, t, lam) -> Job:
        g = self.groups[t]

        def check(rep) -> int:
            dom, letters = _dominant_walk(g, lam)
            regular = min(dom) > 0
            require(rep.all_vanish == (not regular), "bbw regularity")
            if regular:
                w_inv = 0
                for i in letters:
                    w_inv = g.rmult[w_inv][i]
                acted = wk.weyl_act(g, g.inverse[w_inv], lam)
                require(min(acted) > 0, "w(lam) is not strictly dominant")
                require(rep.degree == g.length[w_inv] == len(letters),
                        "bbw degree is not l(w)")
                mu = tuple(x - 1 for x in dom)
                require(rep.highest_weight == mu
                        and rep.dimension == self._dimension(t, mu),
                        "bbw highest weight / dimension")
            return 1
        return Job(f"bbw {t} {lam}", lambda: wk.bbw_cohomology(g, lam), check)

    def _sheaf(self, t, lam, k, cd) -> Job:
        g = self.groups[t]

        def check(rep) -> int:
            dom, letters = _dominant_walk(g, lam)
            degree = len(letters) if min(dom) > 0 else None
            _check_sheaf_case(rep.to_json(), degree, k, cd)
            return 1
        return Job(f"sheaf {t} {lam} k={k} cd={cd}",
                   lambda: wk.sheaf_cohomology_cases(g, lam, k, cd=cd), check)

    def _dim(self, t, mu) -> Job:
        g = self.groups[t]

        def check(d) -> int:
            require(d == self._dimension(t, mu), "Weyl dimension")
            return 1
        return Job(f"dim {t} {mu}", lambda: wk.weyl_dimension(g, mu), check)

    def _flag(self, m) -> Job:
        def check(p) -> int:
            require(p.total == math.factorial(m) and ref.palindromic(p.ranks)
                    and len(p.ranks) == m * (m - 1) + 1, "flag Poincare")
            return 1
        return Job(f"flag {m}", lambda: wk.flag_poincare(m), check)

    def _omega(self, n) -> Job:
        def check(p) -> int:
            require(p.total == p.euler == math.factorial(2 * n)
                    and ref.palindromic(p.ranks), "omega2n Poincare")
            return 1
        return Job(f"omega2n {n}", lambda: wk.omega2n_closed_form(n), check)

    def _quotient(self, omega, genus) -> Job:
        def check(q) -> int:
            require(q.euler == omega.euler * (2 - 2 * genus)
                    and q.total == omega.total * (2 + 2 * genus),
                    "quotient homology")
            return 1
        return Job(f"quotient g={genus}",
                   lambda: wk.quotient_homology(omega, genus), check)


PLANS = {"cli-mix": CliPlan, "enumerate": EnumeratePlan,
         "large-group": LargeGroupPlan, "queries": QueriesPlan}


# ---------------------------------------------------------------------------

def _probe_s(code: str) -> float:
    """Median wall time of a fresh `python -c code`."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_layers(plan, seconds: float, spans_path: str) -> tuple[list, dict]:
    """Untraced and traced rounds alternate, so both meet the same machine.

    Per-layer numbers are per traced round; the spans are written to
    spans_path at the end.
    """
    tracer = Tracer()
    cli = isinstance(plan, CliPlan)
    untraced, traced = [], []
    start = time.perf_counter()
    # CLI processes trace themselves and leave their spans in plan.tmp
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE),
                                     prefix=".perfbench-") as plan.tmp:
        plain, wrapped = plan.jobs(None), plan.jobs(tracer)
        while True:
            t0 = time.perf_counter()
            untraced.append(run_round(plain, None))
            if not cli:
                tracer.install()
            try:
                traced.append(run_round(wrapped, tracer))
            finally:
                tracer.uninstall()
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    n = len(traced)
    layers = {k: v / n for k, v in summary(tracer).items()}
    layers["cli.stdout_bytes"] = (plan.stdout_bytes / n
                                  if isinstance(plan, CliPlan) else 0)
    start = _probe_s("pass")
    layers["cli.interpreter_start_s"] = start
    layers["cli.import_s"] = _probe_s("import weylkit.cli") - start
    layers["trace.overhead_share"] = (
        sum(fastest_reference(traced, "walls"))
        / sum(fastest_reference(untraced, "walls")) - 1)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path)
    return untraced + traced, layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing -O: it strips the enumerator's asserts",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    plan = PLANS[args.workload](args.seed, args.scale)
    print("ready", flush=True)
    if args.setup_only:
        os._exit(0)  # skip tearing down the shared state
    layers = None
    if args.trace:
        spans_path = os.path.join(os.path.dirname(HERE), ".perfbench-traces",
                                  f"{args.workload}-seed{args.seed}.json")
        rounds, layers = traced_layers(plan, args.seconds, spans_path)
        print(f"perfbench: spans in {spans_path}", file=sys.stderr)
    else:
        rounds = measure(plan.jobs(None), args.seconds)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" \
        else resource.RUSAGE_SELF
    print(json.dumps({
        "sys_flags": str(sys.flags),
        "rounds": len(rounds),
        "wall_s": sum(fastest(rounds, "walls")),
        "cpu_s": sum(fastest(rounds, "cpus")),
        "wall_ref_s": sum(fastest_reference(rounds, "walls")),
        "cpu_ref_s": sum(fastest_reference(rounds, "cpus")),
        "kernel_s": min(k for r in rounds for k in r.kernel_s),
        "items": statistics.median(r.items for r in rounds),
        "latencies_s": [x for r in rounds for x in r.walls],
        "attempted": sum(len(r.walls) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": [f for r in rounds for f in r.failures][:10],
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "per_layer": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
