"""weylkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in fresh interpreters
with PYTHONPATH=src and normal interpreter flags (-O is refused: it
strips the enumerator's certification asserts).  Set-up is timed
several times, each in its own interpreter, up to the workload's
`ready` line; the last of those processes goes on to measure.  The last
stdout line is the result: {"correct", "attempted", "failed", "metrics"}
with the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).  The times among the end_to_end metrics
are reference seconds (hostspeed.py): each set-up is scaled by the
fastest of the reference-kernel samples taken here just before it, and
each job by the samples the workload process takes around it.  The
line before the result records the Python version, git revision,
nproc, sys.flags and the same times in measured seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

# Set-up runs up to SETUP_REPEATS times, or at least MIN_SETUPS times
# once SETUP_BUDGET_S is spent; the median is reported.
SETUP_REPEATS = 9
MIN_SETUPS = 3
SETUP_BUDGET_S = 4.0
SETUP_KERNELS = 3       # reference-kernel samples before each set-up
RUN_BUDGET_S = 170.0    # every process this run starts ends within it


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def latency_percentiles(latencies: list[float]) -> dict:
    """Median job latency, and p90 when at least ten samples lie beyond it."""
    out = {"jobs": len(latencies),
           "job_p50_ms": statistics.median(latencies) * 1e3}
    if len(latencies) >= 100:
        out["job_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return out


def _git_revision(root: str) -> str | None:
    """HEAD from .git without running git, which may look above `root`."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Child:
    """A workload process whose stdout is read line by line to a deadline."""

    def __init__(self, argv: list[str], env: dict, cwd: str, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        # own process group, so a kill also reaches its CLI children
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                     stdout=subprocess.PIPE,
                                     start_new_session=True)
        self.buf = b""

    def readline(self) -> bytes | None:
        """The next line, or None at EOF or when the deadline passes."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = self.deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def close(self) -> int:
        """Wait for exit, killing the process at the deadline."""
        try:
            return self.proc.wait(max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            return self.proc.wait()
        finally:
            self.proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: the smallest inputs, for the runner's tests")
    args = ap.parse_args()
    t_start = time.perf_counter()
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return _fail("refusing -O: it strips the enumerator's certification "
                     "asserts and would measure a different program")
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "weylkit", "__init__.py")):
        return _fail("no src/weylkit here; run from the repository root")

    # interpreter defaults: no inherited PYTHON* settings besides the path
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = "src"
    argv = [sys.executable, os.path.join("perfbench", "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]
    deadline = t_start + RUN_BUDGET_S
    setups: list[float] = []            # measured seconds
    setups_ref: list[float] = []        # reference seconds
    while True:
        kernel_s = min(hostspeed.sample() for _ in range(SETUP_KERNELS))
        n = len(setups) + 1
        last = bool(args.trace) or n >= SETUP_REPEATS or (
            n >= MIN_SETUPS and sum(setups) >= SETUP_BUDGET_S)
        child = Child(argv + ([] if last else ["--setup-only"]), env, root,
                      deadline)
        if child.readline() != b"ready":
            child.close()
            return _fail("workload set-up did not finish")
        setups.append(time.perf_counter() - child.started)
        setups_ref.append(hostspeed.to_reference(setups[-1], kernel_s))
        if last:
            break
        code = child.close()
        if code != 0:
            return _fail(f"set-up process exited with {code}")
    line = child.readline()
    code = child.close()
    if code != 0 or line is None:
        return _fail(f"workload process failed (exit {code}) "
                     "or overran its time budget")
    raw = json.loads(line)

    if args.trace:
        values = raw["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups_ref),
            "wall_s": raw["wall_ref_s"],
            "cpu_s": raw["cpu_ref_s"],
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
            "items_per_s": raw["items"] / raw["wall_ref_s"],
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for failure in raw["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "python": platform.python_version(),
        "git_revision": _git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "sys_flags": raw["sys_flags"],
        "workload": args.workload, "seed": args.seed,
        "rounds": raw["rounds"], "measured_s": {
            "setup_samples": setups, "wall": raw["wall_s"],
            "cpu": raw["cpu_s"], "fastest_kernel": raw["kernel_s"]},
        "failed_share": raw["failed"] / raw["attempted"],
        **latency_percentiles(raw["latencies_s"]),
    }))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
