"""Shared test plumbing: the stepping backend in the report header,
and the acceptance result reporter.

Acceptance tests record one line per criterion through the
`acceptance_log` fixture; the lines are replayed in the terminal
summary so pass/fail status and measured values stay visible even
when pytest captures stdout.
"""

import pytest

from mlclogic import integrator

_LINES = []


class AcceptanceLog:
    def record(self, name: str, ok: bool, detail: str) -> None:
        line = f"{name}: {'PASS' if ok else 'FAIL'} {detail}"
        _LINES.append(line)
        print(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return AcceptanceLog()


def _backend_line() -> str:
    # a run on the numpy fallback passes the same tests, only slower
    return f"mlclogic stepping loops: {integrator.backend()}"


def pytest_report_header():
    return _backend_line()


def pytest_terminal_summary(terminalreporter):
    # repeated here, since -q drops the header
    terminalreporter.write_line(_backend_line())
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _LINES:
        terminalreporter.write_line(line)
