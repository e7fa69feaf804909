"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a PASS line on success (visible with -s); the n = 3..6 and
n = 7 sweeps are shared between criteria 1 and 3 and the atlas recount
through module-scoped fixtures.  These sweeps and criterion 9's n = 8 sweep
are summary-only, so they take the class path; tests/test_survey.py checks
it against the labeled enumeration.
"""

import math
import os
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from swapeq import kernels
from swapeq.equilibrium import Deviation, is_equilibrium
from swapeq.families import complete, complete_bipartite, cycle, path, paw, star
from swapeq.graph import build_graph, graph_from_adj
from swapeq.io import encode_graph6, parse_graph6, write_report
from swapeq.structure import decompose
from swapeq.survey import (
    CLAIM_NAMES,
    SurveyConfig,
    enumerate_labeled_connected,
    run_survey,
    survey_report,
)
from swapeq.theory import (
    aggregate_swaps,
    check_inequalities,
    closed_form_shift,
    layer_profile,
    strict_witness,
)

import oracle
from test_kernels import DIAMETER3_N8


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
    # summary only, so this is the class path, which runs in one process
    return run_survey(SurveyConfig(
        n=7, keep_records=False, workers=os.cpu_count() or 1)).summary


@pytest.fixture(scope="module")
def small_summaries():
    return {n: run_survey(SurveyConfig(n=n, keep_records=False)).summary
            for n in range(3, 7)}


def test_criterion_1_theorem_sweep(small_summaries, n7_summary):
    """Zero violations of every claim over all labeled connected graphs, n 3..7."""
    for n, summary in small_summaries.items():
        assert summary.violations == [], f"violations at n={n}: {summary.violations}"
    assert n7_summary.violations == []
    assert n7_summary.graphs == 1_866_256  # known count of connected labeled graphs
    # spot-check the bipartite count: labeled K_{1,6}, K_{2,5}, K_{3,4}
    assert n7_summary.claim_counts["bipartite_krs"][0] == 7 + 21 + 35
    assert n7_summary.claim_counts["tree_star"][0] == 7  # the 7 labeled stars
    print("ACCEPTANCE 1 (theorem sweep n=3..7): PASS")


def _atlas_counts(n):
    """Summary numbers of the labeled survey at n, recounted from networkx's
    atlas of unlabeled graphs: each connected class weighs n!/|Aut|, its
    verdict comes from the oracle, and its classes from networkx.  A claim
    that applies is counted as holding."""
    graphs = equilibria = 0
    counts = {c: Counter() for c in CLAIM_NAMES}
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() != n or not nx.is_connected(G):
            continue
        aut = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())
        weight = math.factorial(n) // aut
        eq, _ = oracle.equilibrium(n, list(G.edges()))
        assert eq == (nx.diameter(G) <= 2), list(G.edges())
        blocks = [(len(es), len({v for e in es for v in e}))
                  for es in nx.biconnected_component_edges(G)]
        block = all(m == k * (k - 1) // 2 for m, k in blocks)
        cactus = all(m == 1 or m == k for m, k in blocks)
        bip = nx.is_bipartite(G)
        tree = nx.is_tree(G)
        cyclic = not tree
        applies = {
            "tree_star": eq and tree,
            "bipartite_krs": eq and bip,
            "block_diam2": eq and block,
            "cactus_diam2": eq and cactus,
            "bridge_degree": eq,
            "single_pendant": eq and cyclic,
            "adjacent_cut": eq,
            "cycle_bounds": eq and cactus,
            "delta_nonpos": bip and cyclic,
        }
        graphs += weight
        equilibria += weight * eq
        for c in CLAIM_NAMES:
            counts[c]["holds" if applies[c] else "not_applicable"] += weight
    return graphs, equilibria, {
        c: [counts[c]["holds"], counts[c]["violated"], counts[c]["not_applicable"]]
        for c in CLAIM_NAMES}


def test_atlas_recount(small_summaries, n7_summary):
    """Every summary number of the labeled survey, n 3..7, equals an
    independent recount over the graph atlas."""
    summaries = {**small_summaries, 7: n7_summary}
    for n, summary in summaries.items():
        graphs, equilibria, counts = _atlas_counts(n)
        assert summary.graphs == graphs, n
        assert summary.equilibria == equilibria, n
        assert summary.claim_counts == counts, n
    assert summaries[7].equilibria == 676_456
    print("ACCEPTANCE atlas recount (n=3..7, 29 numbers each): PASS")


def test_criterion_2_closed_form_matches_simulation():
    """The bipartite closed form equals the simulated shift on every valid
    triple, n <= 6, and the simulator equals the independent oracle on every
    swap family; any mismatch is reported in full (none tolerated).  One
    layer profile per observer gives the closed form of all its triples."""
    mismatches = []
    triples = families = 0
    for g in bipartite_cyclic_graphs(6):
        for comp in decompose(g).tecc:
            if len(comp) < 3:
                continue
            shifts = aggregate_swaps(g, comp).shifts
            pairs = [(u, v) for u in sorted(comp) for v in sorted(comp)
                     if v != u and g.has_edge(u, v)]
            for u, v in pairs:
                families += 1
                sim = [shifts[(w, u, v)] for w in range(g.n)]
                ref = oracle.family_shifts(g.n, g.edges, comp, u, v)
                if sim != ref:
                    mismatches.append((encode_graph6(g), sorted(comp), u, v, sim, ref))
            for w in range(g.n):
                prof = layer_profile(g, comp, w)
                for u, v in pairs:
                    triples += 1
                    closed = closed_form_shift(prof, u, v)
                    if closed != shifts[(w, u, v)]:
                        mismatches.append((encode_graph6(g), sorted(comp), w, u, v,
                                           closed, shifts[(w, u, v)]))
    assert triples > 100_000 and families > 17_000
    assert mismatches == [], f"closed form or oracle disagrees with simulation: {mismatches}"
    print(f"ACCEPTANCE 2 (closed form == simulation on {triples} triples, "
          f"simulation == oracle on {families} families): PASS")


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
        agg = aggregate_swaps(g, comp)
        wit = strict_witness(g, agg)
        assert wit is not None and wit.shift_total < 0, encode_graph6(g)
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
        "triangle+pendant": paw(),
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


def test_criterion_9_n8_class_sweep():
    """Zero violations of every claim over all labeled connected graphs on 8
    vertices, the first size with equilibria of diameter 3: exactly the six
    classes pinned in test_kernels, with 80,640 labeled copies in all."""
    summary = run_survey(SurveyConfig(n=8, keep_records=False, dedup=True)).summary
    assert summary.graphs == 251_548_592  # A001187
    assert summary.equilibria == 86_495_984
    assert summary.violations == []
    by_diameter = {}
    for c in summary.equilibrium_classes:
        diam = kernels.diameter(parse_graph6(c["graph6"]).adj)
        by_diameter.setdefault(diam, {})[c["graph6"]] = c["count"]
    assert sorted(by_diameter) == [1, 2, 3]
    assert sorted(by_diameter[3]) == sorted(DIAMETER3_N8)
    assert sum(by_diameter[3].values()) == 80_640
    assert sum(sum(d.values()) for d in by_diameter.values()) == summary.equilibria
    print("ACCEPTANCE 9 (class sweep n=8, six diameter-3 equilibrium classes): PASS")


def test_criterion_10_bipartite_proof_steps(graph_classes):
    """Every step of the bipartite argument, each relation on its own, at
    every observer of every cyclic component of every connected bipartite
    class with n = 4..8: the descending mass bound, each ratio bound with
    its tightness exactly at the entry, the ascending mass bound, the
    formula against the simulated total, the final chain, the closed form
    on every family, and a strict witness exactly when the diameter
    exceeds 2."""
    per_n = Counter()
    components = reports = ratios = 0
    for n in range(4, 9):
        for bits in graph_classes[n]:
            rows = kernels.triangle_rows(n, bits)
            if not kernels.is_connected(rows) or kernels.bipartite_side(rows) < 0:
                continue
            g = graph_from_adj(n, rows)
            cyclic = [t for t in decompose(g).tecc if len(t) >= 3]
            if not cyclic:
                continue
            per_n[n] += 1
            for comp in cyclic:
                components += 1
                agg = aggregate_swaps(g, comp)
                for w in range(n):
                    where = (encode_graph6(g), sorted(comp), w)
                    prof = layer_profile(g, comp, w)
                    rep = check_inequalities(prof, agg)
                    reports += 1
                    assert rep.down_mass >= rep.z_count, where
                    for case in rep.ratio_cases:
                        assert case.ratio <= 1, (where, case)
                        assert case.tight == case.via_is_entry, (where, case)
                        ratios += 1
                    assert rep.up_mass <= rep.single_down_count, where
                    assert rep.formula_total == rep.observer_total, where
                    assert rep.observer_total <= rep.bound <= 0, where
                    for u, v in agg.families:
                        assert closed_form_shift(prof, u, v) == agg.shifts[(w, u, v)], \
                            (where, u, v)
                wit = strict_witness(g, agg)
                assert (wit is not None) == (agg.diameter > 2), (encode_graph6(g), sorted(comp))
                if wit is not None:
                    assert wit.shift_total < 0, (encode_graph6(g), sorted(comp))
    assert [per_n[n] for n in range(4, 9)] == [1, 2, 11, 33, 159]
    assert (components, reports, ratios) == (207, 1_591, 4_747)
    print(f"ACCEPTANCE 10 (bipartite proof steps on {sum(per_n.values())} classes, "
          f"{reports} reports): PASS")
