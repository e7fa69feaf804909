"""The bitset kernels against the brute-force oracle in tests/oracle.py.

Every labeled graph with n <= 5 is checked, plus seeded samples at n = 6
and n = 7, the six n = 8 equilibria of diameter 3 and, for best_swap, the
best-response trajectories of sparse graphs with n = 16..20.
Bipartiteness is checked against networkx and the oracle's 2-colouring,
the latter also on every graph with n <= 8 up to isomorphism, and the two
bit-layout codecs against pair-list expansions.
"""

import random

import networkx as nx
import pytest

import swapeq
from swapeq import kernels
from swapeq.equilibrium import Deviation, is_equilibrium, run_dynamics
from swapeq.families import complete, complete_bipartite, cycle, path
from swapeq.graph import INF, build_graph, graph_from_adj
from swapeq.io import parse_graph6
from swapeq.survey import canonical_form

import oracle

CASES = [1, 2, 3, 4, 5, "n6-sample", "n7-sample"]

# Canonical graph6 of the six equilibrium classes of diameter 3 at n = 8,
# the smallest n where any equilibrium has diameter above 2.
DIAMETER3_N8 = ["G?LTMO", "G?LTMS", "G@QMf?", "G@Q\\U_", "G@Q\\Uc", "G@Q\\Uo"]


def graph_at(n, mask):
    """(n, adjacency rows, edge list); bit b of mask is the b-th row-major pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return n, tuple(adj), edges


def random_mask(rng, pairs):
    """A G(n, p) edge mask with p drawn uniformly from [0.25, 0.75]."""
    p = rng.uniform(0.25, 0.75)
    return sum(1 << b for b in range(pairs) if rng.random() < p)


def sparse_connected(rng, n):
    """A random recursive tree on n vertices plus n // 4 more edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return build_graph(n, sorted(edges))


def labeled_graphs(case):
    if case == "n6-sample":
        rng = random.Random(20261018)
        return [graph_at(6, rng.getrandbits(15)) for _ in range(300)]
    if case == "n7-sample":
        rng = random.Random(20261019)
        return [graph_at(7, random_mask(rng, 21)) for _ in range(200)]
    return [graph_at(case, mask) for mask in range(1 << (case * (case - 1) // 2))]


def connected_graphs(case):
    return [g for g in labeled_graphs(case) if oracle.is_connected(g[0], g[2])]


def nx_bipartite(n, edges):
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    return nx.is_bipartite(g)


def neg1(x):
    return -1 if x is None else x


def oracle_deltas(n, edges):
    """{(u, v, vp): delta or None} over every swap, from the oracle."""
    return {dev: oracle.deviation_delta(n, edges, *dev)
            for dev in oracle.all_deviations(n, edges)}


def oracle_best(deltas):
    improving = [(d, *dev) for dev, d in deltas.items() if d is not None and d < 0]
    return min(improving, default=None)


def test_backend():
    assert kernels.BACKEND == "pure-python"
    assert swapeq.KERNEL_BACKEND == "pure-python"


@pytest.mark.parametrize("case", CASES)
def test_distances(case):
    for n, adj, edges in labeled_graphs(case):
        for src in range(n):
            dist = oracle.distances(n, edges, src)
            assert kernels.bfs_dists(adj, src) == [neg1(d) for d in dist]
            assert kernels.sum_dist(adj, src) == neg1(oracle.sum_distances(n, edges, src))
            if None not in dist:
                assert len(kernels.balls(adj, src)) - 1 == max(dist)


@pytest.mark.parametrize("case", CASES)
def test_balls(case):
    for n, adj, edges in labeled_graphs(case):
        for src in range(n):
            dist = oracle.distances(n, edges, src)
            reached = [(x, d) for x, d in enumerate(dist) if d is not None]
            ecc = max(d for _, d in reached)
            got = kernels.balls(adj, src)
            assert got == [sum(1 << x for x, d in reached if d <= k) for k in range(ecc + 1)]
            assert all(a & ~b == 0 and a != b for a, b in zip(got, got[1:]))
            assert got[-1] == sum(1 << x for x, _ in reached)
            assert len(got) == ecc + 1


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "n6-sample"])
def test_reach(case):
    # what a BFS from src reaches, its eccentricity there and its distance
    # total, read off balls and sum_dist, the two frontier loops
    for n, adj, edges in labeled_graphs(case):
        full = (1 << n) - 1
        for src in range(n):
            seen, total, ecc = oracle.reach(n, edges, src, full)
            got = kernels.balls(adj, src)
            assert (got[-1], len(got) - 1) == (seen, ecc)
            assert kernels.sum_dist(adj, src) == (total if seen == full else -1)


@pytest.mark.parametrize("case", CASES)
def test_global_properties(case):
    for n, adj, edges in labeled_graphs(case):
        assert kernels.is_connected(adj) == oracle.is_connected(n, edges)
        assert kernels.diameter(adj) == neg1(oracle.diameter(n, edges))
        side = kernels.bipartite_side(adj)
        assert side == neg1(oracle.bipartite_side(n, edges))
        assert (side >= 0) == nx_bipartite(n, edges)


def test_bipartite_side_on_classes(graph_classes):
    """The mask, connectivity and the diameter, on every graph with n <= 8
    up to isomorphism, disconnected ones included."""
    for n, classes in graph_classes.items():
        for bits in classes:
            g = graph_from_adj(n, kernels.triangle_rows(n, bits))
            assert kernels.bipartite_side(g.adj) == neg1(oracle.bipartite_side(n, g.edges))
            assert kernels.is_connected(g.adj) == oracle.is_connected(n, g.edges)
            assert kernels.diameter(g.adj) == neg1(oracle.diameter(n, g.edges))


@pytest.mark.parametrize("case", CASES)
def test_swaps(case):
    for n, adj, edges in connected_graphs(case):
        deltas = oracle_deltas(n, edges)
        for (u, v, vp), delta in deltas.items():
            d0 = oracle.sum_distances(n, edges, u)
            d1 = kernels.swapped_sum_dist(adj, u, v, vp)
            assert d1 == (-1 if delta is None else d0 + delta)
        verdict, witness = oracle.equilibrium(n, edges)
        assert kernels.first_improving_swap(adj) == witness
        assert (witness is None) == verdict
        assert kernels.best_swap(adj) == oracle_best(deltas)


@pytest.mark.parametrize("case", CASES)
def test_is_equilibrium_witness(case):
    """is_equilibrium's witness is the oracle's first improving swap."""
    for n, adj, edges in connected_graphs(case):
        verdict, witness = oracle.equilibrium(n, edges)
        expected = None if witness is None else (Deviation(*witness[:3]), witness[3])
        got = is_equilibrium(graph_from_adj(n, adj))
        assert (got.is_equilibrium, got.witness) == (verdict, expected)


def scan_expected(n, lo, hi):
    """scan_masks(n, lo, hi) as the oracle and networkx see it."""
    out = []
    for mask in range(lo, hi):
        _, _, edges = graph_at(n, mask)
        if oracle.is_connected(n, edges):
            verdict, witness = oracle.equilibrium(n, edges)
            out.append((mask, nx_bipartite(n, edges), verdict, witness))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_masks_full(n):
    total = 1 << (n * (n - 1) // 2)
    assert kernels.scan_masks(n, 0, total) == scan_expected(n, 0, total)


def test_scan_masks_subrange():
    assert kernels.scan_masks(6, 5000, 5400) == scan_expected(6, 5000, 5400)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def count_swaps(mp, key=lambda u, v, vp: u):
    """Record key(u, v, vp), by default the agent, of every swapped_sum_dist
    call, inside the kernels and through the kernels module; returns the
    list it appends to."""
    agents = []
    real = kernels.swapped_sum_dist

    def counting(adj, u, v, vp):
        agents.append(key(u, v, vp))
        return real(adj, u, v, vp)

    mp.setattr(kernels, "swapped_sum_dist", counting)
    return agents


def scanned_agents(monkeypatch, kernel, adj, **key):
    """(result, agents whose swaps the kernel evaluated) for one call."""
    with monkeypatch.context() as mp:
        agents = count_swaps(mp, **key)
        return kernel(adj), agents


def pair(u, v, vp):
    """The (agent, added vertex) pair of a swap: best_swap's bound is per pair."""
    return u, vp


def far_agents(adj):
    """Agents of eccentricity >= 3: the only ones that can improve."""
    return {u for u in range(len(adj)) if len(kernels.balls(adj, u)) - 1 >= 3}


@pytest.mark.parametrize("g6", DIAMETER3_N8)
def test_diameter3_equilibria_n8(g6, monkeypatch):
    g = parse_graph6(g6)
    edges = list(g.edges)
    eccs = {len(kernels.balls(g.adj, u)) - 1 for u in range(g.n)}
    assert eccs == {2, 3}
    assert oracle.equilibrium(g.n, edges) == (True, None)
    assert oracle_best(oracle_deltas(g.n, edges)) is None
    assert is_equilibrium(g).is_equilibrium
    for kernel in (kernels.first_improving_swap, kernels.best_swap):
        result, agents = scanned_agents(monkeypatch, kernel, g.adj)
        assert result is None
        assert set(agents) == far_agents(g.adj)


@pytest.mark.parametrize("g", [complete(4), complete_bipartite(3, 3), petersen()],
                         ids=["K4", "K3,3", "Petersen"])
def test_diameter2_scans_no_swap(g, monkeypatch):
    assert kernels.diameter(g.adj) <= 2
    for kernel in (kernels.first_improving_swap, kernels.best_swap):
        assert scanned_agents(monkeypatch, kernel, g.adj) == (None, [])
    # Read, per_agent_min still reports a minimum for every agent with a swap.
    verdict = is_equilibrium(g)
    assert verdict.is_equilibrium
    assert set(verdict.per_agent_min) == {u for u in range(g.n) if g.degree(u) < g.n - 1}


def test_mixed_graph_scans_far_agents_only(monkeypatch):
    g = path(5)  # eccentricities 4, 3, 2, 3, 4
    result, swaps = scanned_agents(monkeypatch, kernels.best_swap, g.adj, key=pair)
    assert result == oracle_best(oracle_deltas(g.n, list(g.edges)))
    # 1 - A is -3 on (0, 3), (0, 4), (4, 0), (4, 1) and -2 on (0, 2), (4, 2),
    # which are still evaluated: their bound equals the best delta, -2, and
    # (0, 1, 2) ties (0, 1, 3) and wins on order.  The pairs of the agents
    # 1 and 3 have 1 - A = -1 and are cut off.
    assert swaps == [(0, 3), (0, 4), (4, 0), (4, 1), (0, 2), (4, 2)]
    assert {u for u, _ in swaps} == {0, 4} < far_agents(g.adj) == {0, 1, 3, 4}


def add_only_bound(dist, u, vp):
    """A(u, vp) = sum over x of max(0, d(u,x) - 1 - d(vp,x)); best_swap's
    bound on the swaps that add {u, vp} is 1 - A."""
    return sum(max(0, a - 1 - b) for a, b in zip(dist[u], dist[vp]))


def oracle_dists(n, edges):
    return [oracle.distances(n, edges, s) for s in range(n)]


@pytest.mark.parametrize("case", CASES)
def test_best_swap_bound(case):
    tight = 0
    for n, adj, edges in connected_graphs(case):
        dist = oracle_dists(n, edges)
        for (u, v, vp), delta in oracle_deltas(n, edges).items():
            a = add_only_bound(dist, u, vp)
            assert delta is None or delta >= 1 - a
            tight += delta == 1 - a
            if max(dist[u]) <= 2:
                assert a <= 1
    if case not in (1, 2, 3):
        assert tight


def oracle_scan(dist, deltas):
    """The (u, vp) of every swap best_swap evaluates, as the oracle sees it:
    the pairs with A >= 2 of the agents with eccentricity >= 3, in ascending
    (1 - A, u, vp) order, each once per neighbour v, until a pair's bound
    exceeds the best delta found."""
    pairs = sorted({(1 - add_only_bound(dist, u, vp), u, vp)
                    for u, _, vp in deltas if max(dist[u]) > 2})
    scanned = []
    best = None
    for bound, u, vp in pairs:
        if bound > -1 or best is not None and bound > best:
            break
        for v in sorted(v for a, v, b in deltas if (a, b) == (u, vp)):
            scanned.append((u, vp))
            d = deltas[u, v, vp]
            if d is not None and d < 0 and (best is None or d < best):
                best = d
    return scanned


@pytest.mark.parametrize("case", CASES)
def test_best_swap_skips_closed_pairs(case, monkeypatch):
    """best_swap evaluates only pairs with A >= 2, in the oracle's order and
    up to the oracle's cut-off."""
    for n, adj, edges in connected_graphs(case):
        dist = oracle_dists(n, edges)
        _, swaps = scanned_agents(monkeypatch, kernels.best_swap, adj, key=pair)
        assert all(add_only_bound(dist, u, vp) >= 2 for u, vp in swaps)
        assert swaps == oracle_scan(dist, oracle_deltas(n, edges))


@pytest.mark.parametrize("g, calls, unpruned", [
    (path(5), 6, 14),
    # every pair has A = 2 and a swap of delta -1, the best: all tie, none is cut
    (cycle(6), 36, 36),
    (sparse_connected(random.Random(16), 16), 5, 454),
], ids=["P5", "C6", "sparse16"])
def test_best_swap_call_count(g, calls, unpruned, monkeypatch):
    result, swaps = scanned_agents(monkeypatch, kernels.best_swap, g.adj)
    assert result == oracle_best(oracle_deltas(g.n, list(g.edges)))
    assert len(swaps) == calls <= unpruned
    assert unpruned == sum(g.adj[u].bit_count() * (g.n - 1 - g.adj[u].bit_count())
                           for u in far_agents(g.adj))


def test_best_swap_on_dynamics_states(monkeypatch):
    """best_swap against the oracle on every state of six best-response
    trajectories on sparse graphs with n = 16..20, the sizes dynamics serves:
    its result, and the pairs it evaluates in the oracle's order."""
    rng = random.Random(20261019)
    states = tied = 0
    for _ in range(6):
        trace = run_dynamics(sparse_connected(rng, rng.randint(16, 20)), 200)
        for s in trace.states:
            edges = list(s.edges)
            deltas = oracle_deltas(s.n, edges)
            best = oracle_best(deltas)
            result, swaps = scanned_agents(monkeypatch, kernels.best_swap, s.adj, key=pair)
            assert result == best
            assert swaps == oracle_scan(oracle_dists(s.n, edges), deltas)
            states += 1
            if best is not None:
                tied += len({(u, vp) for (u, _, vp), d in deltas.items() if d == best[0]}) > 1
    assert states > 50 and tied


def test_best_swap_reads_balls_only(monkeypatch):
    def refuse(adj, src):
        raise AssertionError("best_swap computed a distance vector")

    monkeypatch.setattr(kernels, "bfs_dists", refuse)
    for g in (path(5), cycle(6), sparse_connected(random.Random(16), 16)):
        assert kernels.best_swap(g.adj) == oracle_best(oracle_deltas(g.n, list(g.edges)))


@pytest.mark.parametrize("g", [complete(4), complete_bipartite(3, 3), petersen(),
                               *map(parse_graph6, DIAMETER3_N8)],
                         ids=["K4", "K3,3", "Petersen", *DIAMETER3_N8])
def test_agent_minima_scanned_on_read(g, monkeypatch):
    """is_equilibrium scans the far agents only; reading per_agent_min scans
    every agent's swaps and gives the oracle's minima."""
    agents = count_swaps(monkeypatch)
    verdict = is_equilibrium(g)
    assert verdict.is_equilibrium
    assert set(agents) == far_agents(g.adj)
    expected = {}
    for (u, _, _), d in oracle_deltas(g.n, list(g.edges)).items():
        d = INF if d is None else d
        expected[u] = min(expected.get(u, d), d)
    assert dict(verdict.per_agent_min) == expected
    assert set(agents) == set(expected)


@pytest.mark.parametrize("g", [complete(4), complete_bipartite(3, 3), petersen(),
                               *map(parse_graph6, DIAMETER3_N8)],
                         ids=["K4", "K3,3", "Petersen", *DIAMETER3_N8])
def test_first_improving_swap_reads_balls(g, monkeypatch):
    """One balls call per agent gives the ecc <= 2 skip and the agent's
    distance sum; the only distance sums are those of the swapped graphs."""
    calls = []

    def counting(name):
        real = getattr(kernels, name)

        def wrapper(*args):
            calls.append((name, args[1]))
            return real(*args)
        monkeypatch.setattr(kernels, name, wrapper)

    for name in ("balls", "sum_dist", "swapped_sum_dist"):
        counting(name)
    assert kernels.first_improving_swap(g.adj) is None
    assert [u for name, u in calls if name == "balls"] == list(range(g.n))
    swaps = [u for name, u in calls if name == "swapped_sum_dist"]
    assert [u for name, u in calls if name == "sum_dist"] == swaps
    assert set(swaps) == far_agents(g.adj)


# -- the two bit layouts --------------------------------------------------------

def codec_masks(case):
    """(n, row-major masks): every mask for an int case, 300 seeded G(n, p)
    masks for "n<k>-sample"."""
    if isinstance(case, int):
        return case, range(1 << (case * (case - 1) // 2))
    n = int(case[1])
    rng = random.Random(20261020 + n)
    return n, [random_mask(rng, n * (n - 1) // 2) for _ in range(300)]


def column_major(n, edges):
    """Triangle bits by pair list: (0,1), (0,2), (1,2), (0,3), ..., first pair high."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = set(edges)
    return sum(1 << (len(pairs) - 1 - b) for b, p in enumerate(pairs) if p in edges)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6, "n7-sample", "n8-sample"])
def test_mask_codec(case):
    n, masks = codec_masks(case)
    for mask in masks:
        _, adj, _ = graph_at(n, mask)
        assert kernels.mask_to_adj(n, mask) == adj
        assert kernels.adj_to_mask(adj) == mask


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "n6-sample", "n7-sample", "n8-sample"])
def test_triangle_codec(case):
    n, masks = codec_masks(case)
    for mask in masks:
        _, adj, edges = graph_at(n, mask)
        bits = column_major(n, edges)
        assert kernels.triangle_bits(adj) == bits
        assert kernels.triangle_rows(n, bits) == adj


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_form_bits(n):
    # a canonical form's bits are its representative's triangle
    for mask in range(1 << (n * (n - 1) // 2)):
        form = canonical_form(graph_from_adj(n, kernels.mask_to_adj(n, mask)))
        assert kernels.triangle_bits(form.graph().adj) == form.bits
