"""Shared test helpers.

The acceptance checks print one pass/fail line each, but pytest's
default capture grabs the file descriptor, so passing tests would stay
silent.  The lines are recorded in the test module and replayed after
the terminal summary.  forge builds a tampered copy of a table,
check_record checks the repr and equality of a value record, and
COVER_TYPES lists the types the table and order tests sweep.
"""

import inspect
import sys

COVER_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2",
               "F4", "A1xA1", "A2xA1", "B2xA2", "D5"]

_FIELDS = {
    "WeylGroup": ("rs", "length", "rmult", "bfs_parent", "bfs_letter",
                  "generators", "w0"),
    "BruhatOrder": ("g", "covers", "down"),
}


def forge(table, **changes):
    """A copy of a WeylGroup or BruhatOrder with some fields replaced,
    built through __init__, so it inherits no memo (acts, inverse,
    _w0_left, the gathers)."""
    names = _FIELDS[type(table).__name__]
    assert set(changes) <= set(names), changes
    return type(table)(**{n: changes.get(n, getattr(table, n))
                          for n in names})


def check_record(rec, space):
    """rec's repr names every __init__ parameter and reads back as an
    equal record; a record of another type with the same fields is
    unequal to it."""
    cls = type(rec)
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    text = repr(rec)
    assert text.startswith(cls.__name__ + "("), text
    assert all(f"{name}=" in text for name in params), (text, params)
    assert eval(text, dict(space)) == rec

    twin = type("Twin", (cls,), {})
    copy = twin.__new__(twin)
    vars(copy).update(vars(rec))
    assert vars(copy) == vars(rec) and copy != rec and rec != copy


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
