"""Fixtures shared across test modules."""

import pytest

from swapeq import survey


@pytest.fixture(scope="session")
def graph_classes():
    """Canonical bits -> |Aut| for every graph on n = 1..8 vertices up to
    isomorphism.  Generating n = 8 takes about 10 s, so it is done once."""
    return {n: survey._graph_classes(n) for n in range(1, 9)}
