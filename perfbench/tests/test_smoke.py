"""Smoke tests of the benchmark runner and its traced run.

They run every workload on its smallest inputs (--scale smoke) and take
about a minute.  They are not part of the package's test suite; run
them from the repository root with

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_runner_reports_every_metric(workload, trace):
    res = result(run("--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--scale", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_traced_run_sees_nested_calls():
    """classify is reached through topology and bruhat, generate via cli."""
    res = result(run("--workload", "enumerate", "--seed", "1", "--seconds",
                     "1", "--trace", "1", "--scale", "smoke"))["metrics"]
    assert res["bruhat.classify.calls"]["value"] > 0
    assert res["bruhat.enumerate_balanced.results"]["value"] > 0
    assert res["bruhat.certify_s"]["value"] > 0
    assert res["bruhat.ordering_s"]["value"] > 0
    res = result(run("--workload", "cli-mix", "--seed", "1", "--seconds",
                     "1", "--trace", "1", "--scale", "smoke"))["metrics"]
    assert res["cli.main.calls"]["value"] > 0
    assert res["weyl.generate.calls"]["value"] > 0
    assert res["cli.stdout_bytes"]["value"] > 0


def test_same_seed_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    for name, plan in workloads.PLANS.items():
        a = [j.label for j in plan(5, "smoke").jobs(None)]
        b = [j.label for j in plan(5, "smoke").jobs(None)]
        assert a == b, name


def test_refuses_optimize():
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--scale", "smoke", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
