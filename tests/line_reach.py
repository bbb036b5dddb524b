"""Line-reach gate: every function-body line of the package is reached by a
test, or is listed in `unreached_lines.txt`.

A pytest plugin on the standard library alone::

    PYTHONPATH=src:tests python -m pytest -p line_reach

It traces the run with `sys.settrace`, re-armed in each test's setup, call
and teardown, because a test (hypothesis, for one) may replace the trace
function.  It counts only function-body lines, the `co_lines()` of the code
objects flagged `CO_OPTIMIZED`; module and class bodies run on import and
are no evidence.  At the end of the session it compares the lines no test
reached with the committed list and fails the session on any difference in
either direction, so the list can neither grow nor go stale.

An entry reads ``file: function: source text``, with no line number, so an
edit elsewhere in the file does not move it.  Line tables differ between
Python versions; the list is kept for the version CI runs the gate on.

The trace functions live at module level and store only ``(file, line)``:
a tracer that kept frames would keep their locals alive, which a test of
the cyclic collector's state would see.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

LIST_PATH = Path(__file__).with_name("unreached_lines.txt")

_TARGETS: set[str] = set()
_REACHED: set[tuple[str, int]] = set()
_REPORT: list[str] = []


def function_lines(path: Path, name: str) -> dict[int, str]:
    """Every function-body line of the source file `path`, each with its
    entry ``name: function: source text``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    out: dict[int, str] = {}

    def walk(code, prefix: str) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                for _, _, line in const.co_lines():
                    if line is not None and line not in out:
                        out[line] = f"{name}: {qualname}: {source[line - 1].strip()}"
                walk(const, qualname + ".<locals>.")
            else:
                walk(const, qualname + ".")

    walk(compile(text, str(path), "exec"), "")
    return out


def unreached(root: Path, reached: set[tuple[str, int]]) -> list[str]:
    """The entries of the function-body lines under `root` that are not in
    `reached`, file by file in line order."""
    out = []
    for path in sorted(root.rglob("*.py")):
        lines = function_lines(path, path.relative_to(root.parent).as_posix())
        out += [entry for line, entry in sorted(lines.items()) if (str(path), line) not in reached]
    return out


def read_list() -> list[str]:
    """The committed entries: every line that is neither blank nor a comment."""
    lines = LIST_PATH.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _TARGETS:
        return None
    # The def line (or first decorator) is in the line table, but a call
    # reports it as the call event, not as a line event.
    _REACHED.add((code.co_filename, code.co_firstlineno))
    return _trace_lines


def _trace_lines(frame, event, arg):
    if event == "line":
        _REACHED.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _package_root() -> Path:
    import tnbpa

    return Path(tnbpa.__file__).parent


def pytest_configure(config) -> None:
    _TARGETS.update(str(p) for p in _package_root().rglob("*.py"))
    sys.settrace(_trace)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    sys.settrace(_trace)
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sys.settrace(_trace)
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    sys.settrace(_trace)
    yield


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    found, listed = Counter(unreached(_package_root(), _REACHED)), Counter(read_list())
    for entry in sorted((found - listed).elements()):
        _REPORT.append(f"unreached, not listed: {entry}")
    for entry in sorted((listed - found).elements()):
        _REPORT.append(f"listed, but reached or gone: {entry}")
    if _REPORT and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.section("line reach")
    if not _REPORT:
        terminalreporter.write_line(f"unreached lines equal {LIST_PATH.name}")
    for line in _REPORT:
        terminalreporter.write_line(line)
