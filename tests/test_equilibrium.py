import random

import pytest
from hypothesis import given, strategies as st

from swapeq import kernels
from swapeq.equilibrium import (
    Deviation,
    cost_delta,
    enumerate_deviations,
    is_equilibrium,
    run_dynamics,
)
from swapeq.families import complete, complete_bipartite, cycle, path, star
from swapeq.graph import INF, GraphError, build_graph, graph_from_adj
from swapeq.structure import DisconnectedError
from swapeq.survey import enumerate_labeled_connected

import oracle


class TestEnumerate:
    def test_p4_leaf(self):
        assert enumerate_deviations(path(4), 0) == [
            Deviation(0, 1, 2), Deviation(0, 1, 3)]

    def test_k4_no_targets(self):
        for u in range(4):
            assert enumerate_deviations(complete(4), u) == []

    def test_two_path(self):
        assert enumerate_deviations(path(2), 0) == []

    @given(st.integers(3, 7), st.data())
    def test_matches_oracle_order(self, n, data):
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
        mine = [(d.agent, d.drop, d.add) for u in range(n)
                for d in enumerate_deviations(g, u)]
        assert mine == list(oracle.all_deviations(g.n, g.edges))


class TestApply:
    # a swap is applied by Graph.replace_edge(agent, drop, add)
    def test_p4(self):
        g2 = path(4).replace_edge(0, 1, 2)
        assert set(g2.edges) == {(0, 2), (1, 2), (2, 3)}

    def test_c4(self):
        g2 = cycle(4).replace_edge(0, 1, 2)
        assert set(g2.edges) == {(0, 2), (0, 3), (1, 2), (2, 3)}

    def test_involution(self):
        g = cycle(5)
        g2 = g.replace_edge(0, 1, 3)
        g3 = g2.replace_edge(0, 3, 1)
        assert g3 == g

    def test_edge_count_preserved(self):
        g = cycle(5)
        for d in enumerate_deviations(g, 0):
            assert g.replace_edge(d.agent, d.drop, d.add).m == g.m

    def test_invalid(self):
        with pytest.raises(GraphError):
            Deviation(0, 2, 3).validate(path(4))  # not an edge
        with pytest.raises(GraphError):
            Deviation(0, 1, 0).validate(path(4))  # add to self


class TestCostDelta:
    def test_p4_improving(self):
        assert cost_delta(path(4), Deviation(0, 1, 2)) == -1

    def test_p4_disconnecting(self):
        assert cost_delta(path(4), Deviation(2, 3, 0)) is INF

    def test_star_leaf(self):
        assert cost_delta(star(3), Deviation(1, 0, 2)) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_definitional_consistency(self, n):
        # delta = D(u) in the deviated graph minus D(u) in the original
        for g in enumerate_labeled_connected(n):
            check_cost_deltas(g)

    def test_definitional_consistency_n6_sample(self):
        rng = random.Random(99)
        pool = list(enumerate_labeled_connected(6))
        for g in rng.sample(pool, 250):
            check_cost_deltas(g)


def check_cost_deltas(g):
    """cost_delta of every deviation against the oracle's distance sums."""
    for u in range(g.n):
        base = oracle.sum_distances(g.n, g.edges, u)
        for d in enumerate_deviations(g, u):
            expect = oracle.sum_distances(g.n, g.replace_edge(u, d.drop, d.add).edges, u)
            got = cost_delta(g, d)
            if expect is None:
                assert got is INF
            else:
                assert got == expect - base


@given(st.integers(2, 7), st.data())
def test_edge_removal_monotone(n, data):
    # distances never shrink when an edge is deleted, which is why targets
    # already adjacent to the agent can be skipped
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
    if not g.edges:
        return
    e = data.draw(st.sampled_from(list(g.edges)))
    rows = list(g.adj)
    rows[e[0]] &= ~(1 << e[1])
    rows[e[1]] &= ~(1 << e[0])
    for u in range(n):
        before = kernels.bfs_dists(g.adj, u)
        after = kernels.bfs_dists(rows, u)
        for v in range(n):
            assert after[v] == -1 or (before[v] != -1 and after[v] >= before[v])


class TestVerdicts:
    @pytest.mark.parametrize("g,expect", [
        (star(4), True),
        (complete_bipartite(2, 3), True),
        (path(4), False),
        (cycle(6), False),
    ])
    def test_fixtures(self, g, expect):
        verdict = is_equilibrium(g)
        assert verdict.is_equilibrium == expect
        assert verdict.is_equilibrium == oracle.equilibrium(g.n, g.edges)[0]

    def test_p4_witness(self):
        v = is_equilibrium(path(4))
        assert v.witness == (Deviation(0, 1, 2), -1)

    def test_verdict_matches_min(self):
        for g in enumerate_labeled_connected(4):
            v = is_equilibrium(g)
            assert v.is_equilibrium == all(m >= 0 for m in v.per_agent_min.values())

    def test_randomized_reenumeration(self):
        # independent re-check in shuffled order must agree with the verdict
        rng = random.Random(5)
        pool = list(enumerate_labeled_connected(5))
        for g in rng.sample(pool, 120):
            v = is_equilibrium(g)
            devs = [(u, d) for u in range(g.n) for d in enumerate_deviations(g, u)]
            rng.shuffle(devs)
            best = None
            for _, d in devs:
                delta = cost_delta(g, d)
                if best is None or delta < best:
                    best = delta
            assert v.is_equilibrium == (best is None or best >= 0)

    def test_small_graphs_vacuous(self):
        assert is_equilibrium(build_graph(1, [])).is_equilibrium
        assert is_equilibrium(path(2)).is_equilibrium


class TestDynamics:
    def test_p4_converges(self):
        trace = run_dynamics(path(4), 50)
        assert trace.outcome == "converged"
        assert is_equilibrium(trace.states[-1]).is_equilibrium

    def test_star_zero_moves(self):
        trace = run_dynamics(star(5), 50)
        assert trace.outcome == "converged" and len(trace.moves) == 0

    def test_step_limit_zero(self):
        trace = run_dynamics(path(4), 0)
        assert trace.outcome == "step_limit" and len(trace.moves) == 0

    def test_states_differ_by_one_swap(self):
        trace = run_dynamics(path(6), 50)
        for before, move, after in zip(trace.states, trace.moves, trace.states[1:]):
            move.validate(before)
            assert before.replace_edge(move.agent, move.drop, move.add) == after
            assert before.m == after.m

    def test_best_response_p4(self):
        assert run_dynamics(path(4), 1).moves == (Deviation(0, 1, 2),)

    def test_best_response_none_on_k4(self):
        trace = run_dynamics(complete(4), 1)
        assert trace.outcome == "converged" and trace.moves == ()

    def test_best_response_c6(self):
        moves = run_dynamics(cycle(6), 1).moves
        assert len(moves) == 1
        assert cost_delta(cycle(6), moves[0]) == -1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_converges_on_paths_and_cycles(self, n):
        for g in (path(n), cycle(n)):
            trace = run_dynamics(g, 200)
            if trace.outcome == "converged":
                assert is_equilibrium(trace.states[-1]).is_equilibrium

    def test_connectivity_tested_once(self, monkeypatch):
        # an improving swap keeps the agent connected to everybody, so only
        # the start graph needs the test
        calls = []
        real = kernels.is_connected
        monkeypatch.setattr(kernels, "is_connected", lambda adj: calls.append(adj) or real(adj))
        trace = run_dynamics(path(6), 50)
        assert len(trace.moves) >= 2 and calls == [path(6).adj]


@pytest.mark.parametrize("g", [build_graph(4, [(0, 1), (2, 3)]), build_graph(3, [])],
                         ids=["two-edges", "edgeless"])
def test_disconnected_rejected(g):
    with pytest.raises(DisconnectedError):
        is_equilibrium(g)
    for step_limit in (0, 50):
        with pytest.raises(DisconnectedError):
            run_dynamics(g, step_limit)
