"""Fail the test session on any line of ``src/embracket`` that no test runs.

A stdlib-only pytest plugin, not a test module.  Run tier-1 under it with::

    PYTHONPATH=src:tests python -m pytest -p linetrace

Executable lines are those of every function body (``co_lines()`` of each
nested code object).  Module and class bodies run at import, so their lines
are left out; the tracer is armed before the test modules import the package,
so a function called only at import counts as run.  CPython drops a trace
function that raises (a ``RecursionError`` does), so the tracer is re-armed
before each test's setup, call and teardown.  An unrun line passes only when
``ALLOW`` names its file and stripped source text, with the reason; an entry
that matches no unrun line fails the session too.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "embracket"

_INTERNAL = "internal-consistency raise: no input reaches it while the algorithm is correct"
_NOT_ATOM = "fallthrough behind _atom_indices' check, which every term passes through first"
_DROPPED = "reached by test_deep_nesting only after RecursionError has dropped the tracer"
ALLOW = {
    ("helmholtz.py", 'raise AssertionError("a_ij v_j + b_i does not give the force back")'): _INTERNAL,
    ("helmholtz.py", 'raise AssertionError("curl A does not give B back")'): _INTERNAL,
    ("helmholtz.py", 'raise AssertionError("-grad A0 does not give E + (1/c) dA/dt back")'): _INTERNAL,
    ("expr.py", 'raise TypeError(f"not an atom: {atom!r}")'): _NOT_ATOM,
    ("dsl.py", "tok = parser.peek()"): _DROPPED,
    ("dsl.py", 'raise ParseError(tok.pos, "expression nested too deeply", tok.value or None) from None'): _DROPPED,
}

_hit: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(SRC)) else None


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_global)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sys.settrace(_global)


pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


def _lines(code, body):
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _lines(const, const.co_flags & inspect.CO_OPTIMIZED)
    for _, _, line in code.co_lines():
        if line is not None:
            yield body, line


def unrun_lines():
    """(file name, line number, stripped source) of each unrun executable line."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        pairs = list(_lines(compile(source, str(path), "exec"), False))
        lines = {n for body, n in pairs if body} - {n for body, n in pairs if not body}
        text = source.splitlines()
        out += [(path.name, n, text[n - 1].strip()) for n in sorted(lines) if (str(path), n) not in _hit]
    return out


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    unrun = unrun_lines()
    stale = set(ALLOW) - {(name, text) for name, _, text in unrun}
    unrun = [u for u in unrun if u[::2] not in ALLOW]
    for name, n, text in unrun:
        print(f"\nunrun: {name}:{n}: {text}", end="")
    for name, text in sorted(stale):
        print(f"\nallowed but run: {name}: {text}", end="")
    print(f"\nlinetrace: {len(unrun)} unrun lines outside the allowlist, {len(stale)} stale entries")
    if unrun or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
