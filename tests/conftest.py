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
def graph_class_searches():
    """({n: canonical bits -> |Aut|}, {n: canonical searches}) for every
    graph on n = 1..8 vertices up to isomorphism, with the number of
    canonical searches that generating each n made.  Generating n = 8 takes
    about 5 s, so it is done once."""
    classes, searches = {}, {}
    search = survey._canonical_bits

    def counted(adj):
        searches[n] += 1
        return search(adj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survey, "_canonical_bits", counted)
        for n in range(1, 9):
            searches[n] = 0
            classes[n] = survey._graph_classes(n)
    return classes, searches


@pytest.fixture(scope="session")
def graph_classes(graph_class_searches):
    """Canonical bits -> |Aut| for every graph on n = 1..8 vertices up to
    isomorphism."""
    return graph_class_searches[0]
