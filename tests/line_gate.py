"""A pytest plugin that fails the session unless every line of ``src/stocs``
runs in the test process.

It needs ``sys.monitoring`` (Python 3.12 or later). From the root of the
repository:

    PYTHONPATH=src:tests python -m pytest -q -p line_gate

A LINE event records each line of ``src/stocs/*.py`` that runs and then
disables itself at that location, so a line costs one callback however
often it runs. At the end, every module is compiled and the lines that hold
bytecode are read from ``co_lines()`` of its code objects, nested ones
included. If one of them never ran, the summary names it as ``path:line``
and the session fails. Lines that only a child process runs (such as the
commands of ``test_fresh_process.py``) do not count.
"""

import sys
import types
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stocs"
_hit: set = set()  # (path, line) of every line that ran
_missed: list = []  # path:line of every line with bytecode that did not


def _code_lines(code: types.CodeType) -> set:
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _lines_missed() -> list:
    missed = []
    for path in sorted(SOURCE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed += [f"{path}:{line}" for line in sorted(_code_lines(code))
                   if (str(path), line) not in _hit]
    return missed


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before the conftests, whose imports run the modules' top-level lines
    if sys.version_info < (3, 12):
        raise pytest.UsageError("line_gate needs sys.monitoring (Python 3.12 or later)")
    monitoring = sys.monitoring
    targets = {str(path) for path in SOURCE.glob("*.py")}

    def record(code, line):
        if code.co_filename in targets:
            _hit.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(monitoring.COVERAGE_ID, "line_gate")
    monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, record)
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)


def pytest_sessionfinish(session):
    monitoring = sys.monitoring
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.NO_EVENTS)
    monitoring.free_tool_id(monitoring.COVERAGE_ID)
    _missed[:] = _lines_missed()
    if _missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", f"line_gate: {len(_missed)} src/ lines never ran")
    for where in _missed:
        terminalreporter.write_line(where)
