import random

import pytest
from hypothesis import given, strategies as st

from swapeq import kernels
from swapeq.equilibrium import Deviation, is_equilibrium, run_dynamics
from swapeq.families import complete, complete_bipartite, cycle, path, star
from swapeq.graph import INF, build_graph, graph_from_adj
from swapeq.structure import DisconnectedError

import labeled
import oracle


def oracle_minima(g):
    """Agent -> least oracle cost delta over its deviations (INF for a
    disconnecting one), in agent order; an agent with none has no key."""
    minima = {}
    for u, v, vp in oracle.all_deviations(g.n, g.edges):
        d = oracle.deviation_delta(g.n, g.edges, u, v, vp)
        d = INF if d is None else d
        minima[u] = min(minima.get(u, d), d)
    return minima


class TestEnumerate:
    # per_agent_min has a key exactly for the agents with a deviation
    def test_p4_leaf(self):
        assert [d for d in oracle.all_deviations(4, path(4).edges) if d[0] == 0] == [
            (0, 1, 2), (0, 1, 3)]
        assert is_equilibrium(path(4)).per_agent_min[0] == -1

    def test_k4_no_targets(self):
        assert dict(is_equilibrium(complete(4)).per_agent_min) == {}

    def test_two_path(self):
        assert dict(is_equilibrium(path(2)).per_agent_min) == {}

    @given(st.integers(3, 7), st.data())
    def test_matches_oracle_order(self, n, data):
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
        if not oracle.is_connected(n, g.edges):
            with pytest.raises(DisconnectedError):
                is_equilibrium(g)
            return
        mine = is_equilibrium(g).per_agent_min
        assert list(mine.items()) == list(oracle_minima(g).items())


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
        for u, v, vp in oracle.all_deviations(g.n, g.edges):
            if u == 0:
                assert g.replace_edge(u, v, vp).m == g.m


class TestCostDelta:
    def test_p4_improving(self):
        assert oracle.deviation_delta(4, path(4).edges, 0, 1, 2) == -1
        assert is_equilibrium(path(4)).per_agent_min[0] == -1

    def test_p4_disconnecting(self):
        # the kernel's -1 counts as INF, so agent 2's other swap is its minimum
        assert oracle.deviation_delta(4, path(4).edges, 2, 3, 0) is None
        assert kernels.swapped_sum_dist(path(4).adj, 2, 3, 0) == -1
        assert oracle.deviation_delta(4, path(4).edges, 2, 1, 0) == 0
        assert is_equilibrium(path(4)).per_agent_min[2] == 0

    def test_star_leaf(self):
        assert oracle.deviation_delta(4, star(3).edges, 1, 0, 2) == 1
        assert is_equilibrium(star(3)).per_agent_min[1] == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_definitional_consistency(self, n):
        # delta = D(u) in the deviated graph minus D(u) in the original
        for g in labeled.connected(n):
            check_cost_deltas(g)

    def test_definitional_consistency_n6_sample(self):
        rng = random.Random(99)
        for g in rng.sample(labeled.connected(6), 250):
            check_cost_deltas(g)


def check_cost_deltas(g):
    """The swap kernel's delta for every deviation, and per_agent_min with its
    key order, against the oracle's distance sums."""
    for u, v, vp in oracle.all_deviations(g.n, g.edges):
        expect = oracle.deviation_delta(g.n, g.edges, u, v, vp)
        after = kernels.swapped_sum_dist(g.adj, u, v, vp)
        if expect is None:
            assert after == -1
        else:
            assert after - kernels.sum_dist(g.adj, u) == expect
    assert list(is_equilibrium(g).per_agent_min.items()) == list(oracle_minima(g).items())


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
        for g in labeled.connected(4):
            v = is_equilibrium(g)
            assert v.is_equilibrium == all(m >= 0 for m in v.per_agent_min.values())

    def test_randomized_reenumeration(self):
        # independent re-check in shuffled order must agree with the verdict
        rng = random.Random(5)
        for g in rng.sample(labeled.connected(5), 120):
            v = is_equilibrium(g)
            devs = list(oracle.all_deviations(g.n, g.edges))
            rng.shuffle(devs)
            best = None
            for d in devs:
                delta = oracle.deviation_delta(g.n, g.edges, *d)
                delta = INF if delta is None else delta
                if best is None or delta < best:
                    best = delta
            assert v.is_equilibrium == (best is None or best >= 0)
            assert min(v.per_agent_min.values(), default=None) == best

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
            assert before.has_edge(move.agent, move.drop)
            assert move.add not in (move.agent, move.drop)
            assert not before.has_edge(move.agent, move.add)
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
        u, v, vp = moves[0].agent, moves[0].drop, moves[0].add
        assert oracle.deviation_delta(6, cycle(6).edges, u, v, vp) == -1
        assert is_equilibrium(cycle(6)).per_agent_min[u] == -1

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
