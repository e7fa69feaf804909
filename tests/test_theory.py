import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from swapeq import kernels
from swapeq.families import complete, complete_bipartite, cycle
from swapeq.graph import build_graph, graph_from_adj
from swapeq.structure import decompose
from swapeq.theory import (
    ComponentError,
    NotBipartiteError,
    aggregate_swaps,
    check_inequalities,
    closed_form_shift,
    layer_profile,
    strict_witness,
)

import labeled
import oracle

C4 = cycle(4)
H4 = frozenset(range(4))


def cyclic_components(g):
    return [t for t in decompose(g).tecc if len(t) >= 3]


class TestLayerProfile:
    def test_c4_observer_0(self):
        prof = layer_profile(C4, H4, 0)
        assert prof.closer[1] == {0} and prof.farther[1] == {2}
        assert prof.closer[2] == {1, 3} and prof.farther[2] == frozenset()
        assert prof.entry == 0
        assert prof.mixed == {1, 3}

    def test_pendant_observer(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        prof = layer_profile(g, {0, 1, 2, 3}, 4)
        assert prof.entry == 0

    def test_observer_inside_is_entry(self):
        for w in range(6):
            assert layer_profile(cycle(6), range(6), w).entry == w

    def test_not_a_component(self):
        with pytest.raises(ComponentError):
            layer_profile(C4, {0, 1}, 0)

    def test_odd_cycle_rejected(self):
        for w in range(5):
            with pytest.raises(NotBipartiteError, match=r"component \[0, 1, 2, 3, 4\]"):
                layer_profile(cycle(5), range(5), w)

    def test_odd_component_rejected_even_one_kept(self):
        # the check is the component's: C4 and K3 joined by the bridge 3-4
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)])
        for w in range(g.n):
            with pytest.raises(NotBipartiteError):
                layer_profile(g, {4, 5, 6}, w)
            assert layer_profile(g, {0, 1, 2, 3}, w).entry == (3 if w >= 4 else w)

    def test_bipartite_dichotomy(self):
        # on bipartite graphs every in-component neighbour is closer or farther
        for g in [C4, cycle(6), complete_bipartite(2, 3), complete_bipartite(3, 3)]:
            comp = cyclic_components(g)[0]
            for w in range(g.n):
                prof = layer_profile(g, comp, w)
                for u in comp:
                    nbrs = {v for v in g.neighbors(u) if v in comp}
                    assert prof.closer[u] | prof.farther[u] == nbrs
                    assert not prof.closer[u] & prof.farther[u]

    def test_single_down_forces_up(self):
        # |closer| = 1 forces a farther neighbour (2-edge-connectivity)
        for g in [C4, cycle(8), complete_bipartite(2, 4)]:
            comp = cyclic_components(g)[0]
            for w in range(g.n):
                prof = layer_profile(g, comp, w)
                for u in comp:
                    if len(prof.closer[u]) == 1:
                        assert prof.farther[u]
                        assert u in prof.mixed


class TestInvariantsSurviveOptimize:
    # each invariant forced to fail under python -O, which strips assert
    SCRIPT = """
from swapeq import kernels, theory
from swapeq.families import cycle

g = cycle(4)
cases = [
    ("bfs_dists", lambda adj, s: [0] * len(adj), theory.layer_profile, (g, range(4), 0)),
    ("pendant_world", lambda *a: frozenset(), theory.layer_profile, (g, range(4), 0)),
    ("sum_dist", lambda adj, s: -1, theory.aggregate_swaps, (g, range(4))),
]
for name, fake, fn, args in cases:
    module = kernels if name in ("bfs_dists", "sum_dist") else theory
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        fn(*args)
        print("no error")
    except AssertionError as err:
        print(err)
    setattr(module, name, real)
"""

    def test_raised_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.splitlines() == [
            "entry vertex must be the unique one with no closer neighbour",
            "observer must live in the entry's world",
            "swap inside a bridgeless component cannot disconnect",
        ]


class TestShifts:
    def test_c4_closed_form_cases(self):
        prof = layer_profile(C4, H4, 0)
        assert closed_form_shift(prof, 1, 0) == 1
        assert closed_form_shift(prof, 2, 1) == -1
        assert closed_form_shift(prof, 0, 1) == 0

    @pytest.mark.parametrize("agent, dropped", [(0, 2), (1, 3), (2, 2), (4, 0), (0, 4), (5, 6)],
                             ids=["diagonal-0-2", "diagonal-1-3", "loop", "pendant-agent",
                                  "pendant-dropped", "outside"])
    def test_closed_form_needs_component_edge(self, agent, dropped):
        # C4 with the pendant edge 0-4: only the four cycle edges are families
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        prof = layer_profile(g, H4, 4)
        with pytest.raises(ComponentError, match="adjacent vertices of the component"):
            closed_form_shift(prof, agent, dropped)

    def test_c4_simulated(self):
        shifts = aggregate_swaps(C4, H4).shifts
        assert shifts[(0, 1, 0)] == 1
        assert shifts[(0, 2, 1)] == -1
        assert shifts[(0, 0, 1)] == 0

    def test_requires_bipartite(self):
        g = cycle(5)
        with pytest.raises(NotBipartiteError):
            layer_profile(g, frozenset(range(5)), 0)
        # the simulator has no bipartite precondition
        assert aggregate_swaps(g, frozenset(range(5))).shifts[(0, 1, 0)] == Fraction(1)

    def test_closed_form_equals_simulation_k23(self):
        g = complete_bipartite(2, 3)
        comp = frozenset(range(5))
        shifts = aggregate_swaps(g, comp).shifts
        for w in range(5):
            prof = layer_profile(g, comp, w)
            for u in range(5):
                for v in g.neighbors(u):
                    assert closed_form_shift(prof, u, v) == shifts[(w, u, v)]


class TestAggregate:
    def test_integer_sums(self):
        # numerators over one common denominator; the Fraction views agree
        for g in [C4, cycle(6), complete_bipartite(2, 3), complete(4), cycle(5)]:
            comp = cyclic_components(g)[0]
            agg = aggregate_swaps(g, comp)
            degs = [len([v for v in g.neighbors(u) if v in comp]) for u in comp]
            assert agg.common == math.lcm(*(d - 1 for d in degs))
            assert all(type(x) is int for x in agg.observer_nums)
            assert agg.per_observer == {w: Fraction(x, agg.common)
                                        for w, x in enumerate(agg.observer_nums)}
            assert agg.total == Fraction(agg.total_num, agg.common)
            for (u, v), (nums, cost) in agg.families.items():
                assert agg.swap_costs[(u, v)] == Fraction(cost, agg.common)
                for w, x in enumerate(nums):
                    assert agg.shifts[(w, u, v)] == Fraction(x, agg.common)
            assert len(agg.shifts) == g.n * len(agg.families)
            assert sum(agg.swap_costs.values()) == agg.total

    def test_c4_contributions(self):
        agg = aggregate_swaps(C4, H4)
        assert agg.shifts[(0, 1, 0)] == 1
        assert agg.shifts[(0, 3, 0)] == 1
        assert agg.shifts[(0, 2, 1)] == -1
        assert agg.shifts[(0, 2, 3)] == -1
        assert agg.per_observer[0] == 0
        assert agg.total == 0

    def test_k23_nonpositive(self):
        agg = aggregate_swaps(complete_bipartite(2, 3), frozenset(range(5)))
        assert all(v <= 0 for v in agg.per_observer.values())

    def test_identity_exact(self):
        for g in [C4, cycle(6), complete_bipartite(2, 3), complete(4), cycle(5)]:
            comp = cyclic_components(g)[0]
            agg = aggregate_swaps(g, comp)
            assert agg.total == agg.observer_total

    def test_matches_oracle_non_bipartite(self):
        # the bipartite families are checked in acceptance criterion 2; here
        # odd cycles, and triangles, where v' may already be adjacent to u
        rng = random.Random(30)
        pool = [g for g in labeled.connected(6) if not is_bip(g)]
        families = 0
        for g in rng.sample(pool, 300):
            for comp in cyclic_components(g):
                agg = aggregate_swaps(g, comp)
                for u, v in agg.families:
                    expect = oracle.family_shifts(g.n, g.edges, comp, u, v)
                    assert [agg.shifts[(w, u, v)] for w in range(g.n)] == expect, \
                        (g.edges, sorted(comp), u, v)
                    families += 1
        assert families > 3000

    def test_component_with_pendants(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
        agg = aggregate_swaps(g, {0, 1, 2, 3})
        assert agg.total == agg.observer_total
        assert set(agg.per_observer) == set(range(6))


class TestInequalities:
    def test_c4_observer_0(self):
        rep = check_inequalities(layer_profile(C4, H4, 0), aggregate_swaps(C4, H4))
        assert rep.down_mass == 2 and rep.z_count == 2 and rep.down_tight
        assert rep.up_mass == 2 and rep.single_down_count == 2 and rep.up_tight
        assert rep.bound == 0 and rep.final_bound_holds
        ratios = {c.vertex: c for c in rep.ratio_cases}
        assert ratios[1].ratio == 1 and ratios[1].tight and ratios[1].via_is_entry

    def test_tight_iff_via_entry(self):
        for g in [C4, cycle(6), complete_bipartite(2, 3), complete_bipartite(3, 3)]:
            comp = cyclic_components(g)[0]
            agg = aggregate_swaps(g, comp)
            for w in range(g.n):
                rep = check_inequalities(layer_profile(g, comp, w), agg)
                for case in rep.ratio_cases:
                    assert case.tight == case.via_is_entry

    def test_bound_holds_on_sample(self):
        rng = random.Random(12)
        pool = labeled.connected(6)
        checked = 0
        for g in rng.sample(pool, 500):
            if not is_bip(g):
                continue
            for comp in cyclic_components(g):
                agg = aggregate_swaps(g, comp)
                for w in range(g.n):
                    rep = check_inequalities(layer_profile(g, comp, w), agg)
                    assert rep.final_bound_holds
                    assert rep.formula_total == rep.observer_total
                    checked += 1
        assert checked > 50


def is_bip(g):
    return kernels.bipartite_side(g.adj) >= 0


def test_bipartite_component_of_odd_graph(graph_classes):
    """The closed form and the inequality chain read only the component: on
    every connected class with n <= 8 that has an odd cycle and a bipartite
    cyclic component, the closed form equals the simulator on every triple
    and every inequality report holds, while each odd cyclic component of
    those graphs is rejected at every observer."""
    found = []
    triples = reports = rejected = 0
    for n, level in graph_classes.items():
        for bits in level:
            rows = kernels.triangle_rows(n, bits)
            if not kernels.is_connected(rows) or kernels.bipartite_side(rows) >= 0:
                continue
            g = graph_from_adj(n, rows)
            comps = cyclic_components(g)
            # every cycle lies in one component, so one cyclic component is odd
            if len(comps) < 2:
                continue
            even = [c for c in comps
                    if nx.is_bipartite(nx.Graph([e for e in g.edges if set(e) <= c]))]
            if not even:
                continue
            found.append(n)
            for comp in comps:
                if comp not in even:
                    for w in range(n):
                        with pytest.raises(NotBipartiteError):
                            layer_profile(g, comp, w)
                        rejected += 1
                    continue
                agg = aggregate_swaps(g, comp)
                for w in range(n):
                    prof = layer_profile(g, comp, w)
                    for u, v in agg.families:
                        assert closed_form_shift(prof, u, v) == agg.shifts[(w, u, v)], \
                            (n, bits, w, u, v)
                        triples += 1
                    rep = check_inequalities(prof, agg)
                    assert rep.final_bound_holds, (n, bits, w)
                    assert rep.formula_total == rep.observer_total, (n, bits, w)
                    reports += 1
    assert sorted(found) == [7] + [8] * 11
    assert (triples, reports, rejected) == (824, 95, 95)


class TestStrictWitness:
    def test_c4_absent(self):
        assert strict_witness(C4, aggregate_swaps(C4, H4)) is None

    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_even_cycles(self, k):
        g = cycle(k)
        wit = strict_witness(g, aggregate_swaps(g, frozenset(range(k))))
        assert wit is not None and wit.shift_total < 0

    def test_pendant_component(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
        comp = frozenset(range(6))
        agg = aggregate_swaps(g, comp)
        assert agg.diameter == 3
        wit = strict_witness(g, agg)
        assert wit is not None and wit.shift_total < 0
        assert agg.per_observer[wit.observer] == wit.shift_total

    @pytest.mark.parametrize("g, comp", [
        (C4, H4),
        (cycle(6), frozenset(range(6))),
        (cycle(8), frozenset(range(8))),
        (build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)]),
         frozenset(range(6))),
    ])
    def test_reuses_aggregate(self, g, comp, monkeypatch):
        # the witness is read off the aggregate it is given: no swap is
        # simulated and no distance vector computed again
        agg = aggregate_swaps(g, comp)

        def refuse(*args):
            raise AssertionError("strict_witness simulated a swap")

        monkeypatch.setattr(kernels, "swapped_rows", refuse)
        monkeypatch.setattr(kernels, "bfs_dists", refuse)
        wit = strict_witness(g, agg)
        if agg.diameter <= 2:
            assert wit is None
        else:
            end = agg.diameter_endpoint
            assert (wit.observer, wit.shift_total) == (end, agg.per_observer[end])

    def test_foreign_aggregate(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4),
                            (4, 5), (5, 6), (6, 7), (7, 4)])
        first, second = cyclic_components(g)
        with pytest.raises(ComponentError, match="another component"):
            check_inequalities(layer_profile(g, second, 0), aggregate_swaps(g, first))
        # an aggregate of a component that g does not have
        with pytest.raises(ComponentError, match="not a 2-edge-connected component"):
            strict_witness(g, aggregate_swaps(cycle(6), frozenset(range(6))))

    def test_requires_bipartite_graph(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)])
        with pytest.raises(NotBipartiteError):
            strict_witness(g, aggregate_swaps(g, {0, 1, 2, 3}))

