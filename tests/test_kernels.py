"""The bitset kernels against the brute-force oracle in tests/oracle.py.

Every labeled graph with n <= 5 is checked, plus a seeded sample at n = 6.
Bipartiteness is checked against networkx.
"""

import random

import networkx as nx
import pytest

import swapeq
from swapeq import _kernels_py as k
from swapeq import kernels

import oracle

CASES = [1, 2, 3, 4, 5, "n6-sample"]


def graph_at(n, mask):
    """(n, adjacency rows, edge list); bit b of mask is the b-th row-major pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return n, tuple(adj), edges


def labeled_graphs(case):
    if case == "n6-sample":
        rng = random.Random(20261018)
        return [graph_at(6, rng.getrandbits(15)) for _ in range(300)]
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
            assert k.bfs_dists(adj, src) == [neg1(d) for d in dist]
            assert k.sum_dist(adj, src) == neg1(oracle.sum_distances(n, edges, src))
            ecc = None if None in dist else max(dist)
            assert k.eccentricity(adj, src) == neg1(ecc)


@pytest.mark.parametrize("case", CASES)
def test_global_properties(case):
    for n, adj, edges in labeled_graphs(case):
        assert k.is_connected(adj) == oracle.is_connected(n, edges)
        assert k.diameter(adj) == neg1(oracle.diameter(n, edges))
        assert (k.bipartite_side(adj) >= 0) == nx_bipartite(n, edges)


@pytest.mark.parametrize("case", CASES)
def test_swaps(case):
    for n, adj, edges in connected_graphs(case):
        deltas = oracle_deltas(n, edges)
        for (u, v, vp), delta in deltas.items():
            d0 = oracle.sum_distances(n, edges, u)
            d1 = k.swapped_sum_dist(adj, u, v, vp)
            assert d1 == (-1 if delta is None else d0 + delta)
        verdict, witness = oracle.equilibrium(n, edges)
        assert k.first_improving_swap(adj) == witness
        assert (witness is None) == verdict
        assert k.best_swap(adj) == oracle_best(deltas)


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
    assert k.scan_masks(n, 0, total) == scan_expected(n, 0, total)


def test_scan_masks_subrange():
    assert k.scan_masks(6, 5000, 5400) == scan_expected(6, 5000, 5400)
