"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a PASS line on success (visible with -s); the n = 7 sweep
is shared between criteria 1 and 3 through a module-scoped fixture.
"""

import os
import random
from fractions import Fraction

import pytest

from swapeq import kernels
from swapeq.equilibrium import Deviation, is_equilibrium
from swapeq.families import complete, complete_bipartite, cycle, path, star
from swapeq.graph import build_graph
from swapeq.io import encode_graph6, parse_graph6, write_report
from swapeq.structure import decompose
from swapeq.survey import (
    SurveyConfig,
    enumerate_labeled_connected,
    run_survey,
    survey_report,
)
from swapeq.theory import aggregate_swaps, closed_form_shift, simulated_shift, strict_witness

import oracle


def _paw():
    return build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def bipartite_cyclic_graphs(max_n):
    """Connected bipartite graphs with a cyclic 2-edge-connected component."""
    for n in range(3, max_n + 1):
        for g in enumerate_labeled_connected(n):
            if g.m >= n and kernels.bipartite_side(g.adj) >= 0:
                yield g


def random_bipartite_2ec(count, seed=20240817, max_n=10):
    """Seeded 2-edge-connected bipartite graphs with diameter > 2, n <= max_n."""
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        assert attempts < 100_000, "generator failed to find enough graphs"
        r = rng.randint(2, 5)
        s = rng.randint(2, max_n - r)
        p = rng.uniform(0.3, 0.75)
        edges = [(i, r + j) for i in range(r) for j in range(s)
                 if rng.random() < p]
        g = build_graph(r + s, edges)
        if not kernels.is_connected(g.adj):
            continue
        if kernels.diameter(g.adj) <= 2:
            continue
        if decompose(g).bridges:
            continue
        found.append(g)
    return found


@pytest.fixture(scope="module")
def n7_summary():
    return run_survey(SurveyConfig(
        n=7, keep_records=False, workers=os.cpu_count() or 1)).summary


def test_criterion_1_theorem_sweep(n7_summary):
    """Zero violations of every claim over all labeled connected graphs, n 3..7."""
    for n in range(3, 7):
        summary = run_survey(SurveyConfig(n=n, keep_records=False)).summary
        assert summary.violations == [], f"violations at n={n}: {summary.violations}"
    assert n7_summary.violations == []
    assert n7_summary.graphs == 1_866_256  # known count of connected labeled graphs
    # spot-check the bipartite count: labeled K_{1,6}, K_{2,5}, K_{3,4}
    assert n7_summary.claim_counts["bipartite_krs"][0] == 7 + 21 + 35
    assert n7_summary.claim_counts["tree_star"][0] == 7  # the 7 labeled stars
    print("ACCEPTANCE 1 (theorem sweep n=3..7): PASS")


def test_criterion_2_closed_form_matches_simulation():
    """The bipartite closed form equals the simulated shift on every valid
    triple, n <= 6; any mismatch is reported in full (none tolerated)."""
    mismatches = []
    triples = 0
    for g in bipartite_cyclic_graphs(6):
        for comp in decompose(g).tecc:
            if len(comp) < 3:
                continue
            for w in range(g.n):
                for u in sorted(comp):
                    for v in sorted(comp):
                        if v == u or not g.has_edge(u, v):
                            continue
                        triples += 1
                        lhs = closed_form_shift(g, comp, w, u, v)
                        rhs = simulated_shift(g, comp, w, u, v)
                        if lhs != rhs:
                            mismatches.append(
                                (encode_graph6(g), sorted(comp), w, u, v, lhs, rhs))
    assert triples > 100_000
    assert mismatches == [], f"closed form disagrees with simulation: {mismatches}"
    print(f"ACCEPTANCE 2 (closed form == simulation on {triples} triples): PASS")


def test_criterion_3_observer_totals_nonpositive(n7_summary):
    """Per-observer swap totals are <= 0 (exact rationals) on every connected
    bipartite graph with a cyclic component, n <= 7, equilibrium or not."""
    checked = 0
    for g in bipartite_cyclic_graphs(6):
        for comp in decompose(g).tecc:
            if len(comp) < 3:
                continue
            agg = aggregate_swaps(g, comp)
            for w in range(g.n):
                assert agg.per_observer[w] <= 0, (encode_graph6(g), sorted(comp), w)
                checked += 1
    assert checked > 10_000
    # n = 7 is covered by the shared sweep's unconditional claim
    holds, violated, na = n7_summary.claim_counts["delta_nonpos"]
    assert violated == 0
    assert holds == 50_456  # connected bipartite non-trees on 7 vertices
    print(f"ACCEPTANCE 3 (nonpositive observer totals, n<=7): PASS")


def test_criterion_4_strict_witness():
    """Even cycles C6..C10 and 50 random bipartite 2-edge-connected graphs of
    diameter > 2 all yield an observer with strictly negative total, and a
    strictly negative grand total."""
    graphs = [cycle(2 * k) for k in (3, 4, 5)]
    graphs += random_bipartite_2ec(50)
    for g in graphs:
        comp = frozenset(range(g.n))
        wit = strict_witness(g, comp)
        assert wit is not None and wit.shift_total < 0, encode_graph6(g)
        agg = aggregate_swaps(g, comp)
        assert agg.per_observer[wit.observer] == wit.shift_total
        assert agg.total < 0, encode_graph6(g)
    print(f"ACCEPTANCE 4 (strict witnesses on {len(graphs)} graphs): PASS")


def test_criterion_5_accounting_identity():
    """Grand total == sum of per-observer totals, exactly, on every graph the
    shift criteria touch (both sides brute force)."""
    graphs = []
    for g in bipartite_cyclic_graphs(6):
        graphs.append(g)
    graphs += [cycle(2 * k) for k in (3, 4, 5)]
    graphs += random_bipartite_2ec(50)
    checked = 0
    for g in graphs:
        for comp in decompose(g).tecc:
            if len(comp) < 3:
                continue
            agg = aggregate_swaps(g, comp)
            assert agg.total == agg.observer_total, encode_graph6(g)
            assert isinstance(agg.total, Fraction)
            checked += 1
    assert checked > 1800
    print(f"ACCEPTANCE 5 (accounting identity on {checked} components): PASS")


def test_criterion_6_fixture_verdicts():
    """Named fixtures against the independent deviation-enumeration oracle."""
    expected_true = {
        "K_{1,4}": star(4),
        "K_{2,3}": complete_bipartite(2, 3),
        "K_{2,2}": complete_bipartite(2, 2),
        "C5": cycle(5),
        "K4": complete(4),
        "triangle+pendant": _paw(),
    }
    for name, g in expected_true.items():
        verdict = is_equilibrium(g)
        oracle_verdict, _ = oracle.equilibrium(g.n, g.edges)
        assert verdict.is_equilibrium and oracle_verdict, name

    for name, g in {"P4": path(4), "C6": cycle(6)}.items():
        verdict = is_equilibrium(g)
        oracle_verdict, oracle_wit = oracle.equilibrium(g.n, g.edges)
        assert not verdict.is_equilibrium and not oracle_verdict, name
    p4 = is_equilibrium(path(4))
    assert p4.witness == (Deviation(0, 1, 2), -1)
    print("ACCEPTANCE 6 (fixture verdicts vs oracle): PASS")


def test_criterion_7_graph6_roundtrip():
    """Identity round-trip on every connected graph with n <= 6, plus the
    externally verified fixture strings."""
    count = 0
    for n in range(3, 7):
        for g in enumerate_labeled_connected(n):
            assert parse_graph6(encode_graph6(g)) == g
            count += 1
    assert count == 4 + 38 + 728 + 26_704

    from test_io import EXTERNAL_FIXTURES

    assert len(EXTERNAL_FIXTURES) >= 10
    for text, n, edges in EXTERNAL_FIXTURES:
        g = parse_graph6(text)
        assert g.n == n and set(g.edges) == {tuple(sorted(e)) for e in edges}
        assert encode_graph6(g) == text
    print(f"ACCEPTANCE 7 (graph6 round-trip on {count} graphs + fixtures): PASS")


def test_criterion_8_report_determinism():
    """Byte-identical n = 5 reports for 1 and 4 workers, JSON and CSV."""
    blobs = {}
    for workers in (1, 4):
        config = SurveyConfig(n=5, workers=workers, dedup=True)
        result = run_survey(config)
        doc = survey_report(result, config)
        blobs[workers] = (write_report(doc, "json"), write_report(doc, "csv"))
    assert blobs[1][0] == blobs[4][0]
    assert blobs[1][1] == blobs[4][1]
    print("ACCEPTANCE 8 (worker-count determinism): PASS")
