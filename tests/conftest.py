"""Fixtures shared across test modules, and the rule that no test is
skipped silently: a skipped test or module fails the session and is named
in its summary."""

import pytest

from swapeq import survey

_skipped = []


def pytest_collectreport(report):
    if report.skipped:
        _skipped.append(report.nodeid)


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _skipped.append(report.nodeid)


def pytest_sessionfinish(session):
    if _skipped and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _skipped:
        terminalreporter.section("skipped tests fail the session", red=True)
        for nodeid in _skipped:
            terminalreporter.write_line(nodeid)


@pytest.fixture(scope="session")
def graph_classes():
    """Canonical bits -> |Aut| for every graph on n = 1..8 vertices up to
    isomorphism.  Generating n = 8 takes about 10 s, so it is done once."""
    return {n: survey._graph_classes(n) for n in range(1, 9)}
