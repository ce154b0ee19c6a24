"""The CLI's bytes, pinned over a corpus of argvs.

cli_corpus.json lists argvs over all nine subcommands and the exit
codes 0-3.  Each runs twice, with and without --json; each mode records
its exit code, the sha256 of its stdout (text mode without its
"wall time:" line) and its stderr text.  The ideal files the corpus
names are written to a fresh directory, which is the working directory
of every run, so argvs and error lines name them relatively.

An entry's expectation changes only with a declared change of
behaviour.  Re-record every entry in place with

    PYTHONPATH=src python tests/test_cli_corpus.py

and the diff of cli_corpus.json shows which entries changed.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from weylkit.cli import main

CORPUS = pathlib.Path(__file__).with_name("cli_corpus.json")
MODES = {"json": ["--json"], "text": []}


def outcome(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, stderr] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    kept = "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.startswith("wall time: "))
    return [code, hashlib.sha256(kept.encode()).hexdigest(), err.getvalue()]


def replay(doc: dict) -> list[dict]:
    """Every run of doc, recorded afresh, in the current directory."""
    for name, text in doc["files"].items():
        pathlib.Path(name).write_text(text)
    return [{"argv": run["argv"],
             **{mode: outcome(run["argv"] + extra)
                for mode, extra in MODES.items()}}
            for run in doc["runs"]]


def dump(doc: dict) -> str:
    """The corpus as JSON with one run per line, so diffs name argvs."""
    files = json.dumps(doc["files"], indent=1, sort_keys=True)
    runs = ",\n".join(json.dumps(run) for run in doc["runs"])
    return f'{{"files": {files},\n"runs": [\n{runs}\n]}}\n'


def test_corpus_output_is_unchanged(tmp_path, monkeypatch):
    doc = json.loads(CORPUS.read_text())
    monkeypatch.chdir(tmp_path)
    changed = [(run["argv"], mode)
               for run, want in zip(replay(doc), doc["runs"])
               for mode in MODES if run[mode] != want[mode]]
    assert changed == []


def test_corpus_covers_every_subcommand_and_exit_code():
    doc = json.loads(CORPUS.read_text())
    commands = {run["argv"][0] for run in doc["runs"] if run["argv"]}
    assert commands >= {"group", "balanced", "family", "betti", "poincare",
                        "bbw", "small", "hausdorff", "distinct"}
    assert {run[mode][0] for run in doc["runs"] for mode in MODES} == {
        0, 1, 2, 3}


if __name__ == "__main__":
    doc = json.loads(CORPUS.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            doc["runs"] = replay(doc)
        finally:
            os.chdir(home)
    CORPUS.write_text(dump(doc))
    print(f"recorded {len(doc['runs'])} argvs in {CORPUS}", file=sys.stderr)
