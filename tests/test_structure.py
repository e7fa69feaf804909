import itertools
import random

import networkx as nx
import pytest
from networkx.algorithms.connectivity import bridge_components

from swapeq import kernels
from swapeq.families import complete, complete_bipartite, cycle, path, star
from swapeq.graph import GraphError, build_graph, graph_from_adj
from swapeq.structure import (
    DisconnectedError,
    block_vertices,
    classify,
    decompose,
    is_bipartite,
    pendant_world,
)
from swapeq.survey import enumerate_labeled_connected

import oracle


def connected_labeled(case):
    """Every connected labeled graph on n vertices, or 300 of those on 6."""
    if case == "n6-sample":
        return random.Random(66).sample(list(enumerate_labeled_connected(6)), 300)
    if case < 3:
        return [build_graph(case, [(0, 1)][:case - 1])]
    return list(enumerate_labeled_connected(case))


def c4_pendant():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def assert_decompose_matches_oracles(g):
    d = decompose(g)
    assert list(d.bridges) == oracle.bridges(g.n, g.edges)
    assert sorted(d.cut_vertices) == oracle.cut_vertices(g.n, g.edges)
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(range(g.n))
    assert d.tecc == tuple(sorted(map(frozenset, bridge_components(nxg)), key=min))
    assert set(d.bcc) == {frozenset((min(e), max(e)) for e in block)
                          for block in nx.biconnected_component_edges(nxg)}


class TestDecompose:
    def test_path(self):
        d = decompose(path(4))
        assert d.bridges == ((0, 1), (1, 2), (2, 3))
        assert d.cut_vertices == {1, 2}
        assert all(len(t) == 1 for t in d.tecc)

    def test_c4_pendant(self):
        d = decompose(c4_pendant())
        assert d.bridges == ((0, 4),)
        assert frozenset({0, 1, 2, 3}) in d.tecc
        assert frozenset({4}) in d.tecc
        assert d.cut_vertices == {0}
        assert frozenset({(0, 4)}) in d.bcc

    def test_k4(self):
        d = decompose(complete(4))
        assert d.bridges == () and d.cut_vertices == frozenset()
        assert len(d.bcc) == 1 and len(d.tecc) == 1

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            decompose(build_graph(3, [(0, 1)]))

    def test_connectivity_from_own_dfs(self, monkeypatch):
        # no separate connectivity test: a kernel that always answers
        # "connected" changes nothing, and a raise is never cached; the
        # components come from the same pass, with no flood through either
        # BFS loop
        calls = []
        monkeypatch.setattr(kernels, "is_connected", lambda adj: calls.append(adj) or True)

        def no_flood(*args):
            raise AssertionError("decompose flooded with a kernels BFS loop")

        for loop in ("balls", "sum_dist"):
            monkeypatch.setattr(kernels, loop, no_flood)
        decompose.cache_clear()
        try:
            assert len(decompose(c4_pendant()).tecc) == 2
            for g in [build_graph(4, [(0, 1), (2, 3)]),
                      build_graph(5, [(1, 2), (2, 3), (3, 1)])]:
                with pytest.raises(DisconnectedError):
                    decompose(g)
            assert decompose.cache_info().currsize == 1 and calls == []
        finally:
            decompose.cache_clear()  # a wrongly cached graph must not leak out

    def test_every_edge_in_one_block(self):
        for g in [path(5), c4_pendant(), complete(5), star(4)]:
            seen = [e for b in decompose(g).bcc for e in b]
            assert sorted(seen) == sorted(g.edges)
            assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_brute_oracle(self, n):
        # bridges and cuts against the brute-force oracle, the 2-edge-connected
        # components and the blocks against networkx
        for g in enumerate_labeled_connected(n):
            assert_decompose_matches_oracles(g)

    def test_against_brute_oracle_n6_sample(self):
        rng = random.Random(2024)
        pool = list(enumerate_labeled_connected(6))
        for g in rng.sample(pool, 400):
            assert_decompose_matches_oracles(g)

    @pytest.mark.parametrize("n", [4, 5])
    def test_bridge_iff_in_no_cycle(self, n):
        # a bridge is exactly an edge on no cycle: removing it must disconnect
        for g in enumerate_labeled_connected(n):
            bridges = set(decompose(g).bridges)
            for e in g.edges:
                rest = [x for x in g.edges if x != e]
                disconnects = not oracle.is_connected(g.n, rest)
                assert (e in bridges) == disconnects


class TestPendantWorlds:
    def test_c4_pendant(self):
        g = c4_pendant()
        h = {0, 1, 2, 3}
        assert pendant_world(g, h, 0) == {0, 4}
        assert pendant_world(g, h, 2) == {2}

    def test_bare_cycle(self):
        g = cycle(4)
        for u in range(4):
            assert pendant_world(g, range(4), u) == {u}

    def test_not_a_member(self):
        with pytest.raises(GraphError):
            pendant_world(c4_pendant(), {0, 1, 2, 3}, 4)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_partition(self, n):
        # worlds of one component (tecc or block) partition the vertex set
        rng = random.Random(n)
        pool = list(enumerate_labeled_connected(n))
        for g in rng.sample(pool, min(150, len(pool))):
            dec = decompose(g)
            components = list(dec.tecc) + [block_vertices(b) for b in dec.bcc]
            for comp in components:
                worlds = [pendant_world(g, comp, u) for u in comp]
                assert sum(len(w) for w in worlds) == g.n
                assert frozenset().union(*worlds) == frozenset(range(g.n))

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "n6-sample"])
    def test_matches_oracle(self, case):
        # W(u) is what a BFS from u reaches through the vertices outside the
        # component, on every tecc and every block
        for g in connected_labeled(case):
            dec = decompose(g)
            for comp in list(dec.tecc) + [block_vertices(b) for b in dec.bcc]:
                outside = sum(1 << v for v in range(g.n) if v not in comp)
                for u in comp:
                    seen = oracle.reach(g.n, g.edges, u, outside)[0]
                    assert pendant_world(g, comp, u) == {v for v in range(g.n) if seen >> v & 1}


class TestBipartite:
    def test_c4(self):
        v = is_bipartite(cycle(4))
        assert v.bipartite and v.sides == ({0, 2}, {1, 3})

    def test_c5_witness(self):
        v = is_bipartite(cycle(5))
        assert not v.bipartite
        walk = v.odd_walk
        assert walk[0] == walk[-1] and len(walk) % 2 == 0  # odd edge count
        g = cycle(5)
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)

    def test_k23(self):
        assert is_bipartite(complete_bipartite(2, 3)).bipartite

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_labeled_graph(self, n):
        # disconnected graphs included: the sides are the kernel's colouring
        # (lowest vertex of each component on side 0), and every odd walk is
        # closed, of odd length and runs along edges
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            v = is_bipartite(g)
            side = kernels.bipartite_side(g.adj)
            assert v.bipartite == (side >= 0)
            if v.bipartite:
                ones = frozenset(x for x in range(n) if side >> x & 1)
                assert v.sides == (frozenset(range(n)) - ones, ones) and v.odd_walk is None
            else:
                walk = v.odd_walk
                assert v.sides is None
                assert walk[0] == walk[-1] and len(walk) % 2 == 0  # odd edge count
                assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


class TestClassify:
    def test_triangle_pendant(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        c = classify(g)
        assert c.block_graph and c.cactus and not c.tree

    def test_c4(self):
        c = classify(cycle(4))
        assert not c.block_graph and c.cactus
        assert c.complete_bipartite == (2, 2)
        assert classify(cycle(6)).complete_bipartite is None

    def test_two_triangles(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert classify(g).cactus

    def test_star_chain(self):
        c = classify(star(3))
        assert c.star and c.tree and c.block_graph and c.cactus
        assert c.complete_bipartite == (1, 3)
        assert not classify(path(4)).star

    def test_block_and_cactus_iff_triangle_cycles(self):
        for g in enumerate_labeled_connected(5):
            c = classify(g)
            if c.block_graph and c.cactus:
                assert all(
                    len(b) == 1 or len(block_vertices(b)) == 3
                    for b in decompose(g).bcc)

    def test_implication_chain(self):
        # star => tree => block graph, over every small connected graph
        for g in enumerate_labeled_connected(5):
            c = classify(g)
            if c.star:
                assert c.tree
            if c.tree:
                assert c.block_graph and c.cactus

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_bipartite_every_labeled_graph(self, n):
        for g in connected_labeled(n):
            assert classify(g).complete_bipartite == oracle_krs(g)

    def test_complete_bipartite_on_classes(self, graph_classes):
        for n, classes in graph_classes.items():
            for bits in classes:
                g = graph_from_adj(n, kernels.triangle_rows(n, bits))
                if kernels.is_connected(g.adj):
                    assert classify(g).complete_bipartite == oracle_krs(g)

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        for _ in range(2):  # a raise is never cached
            with pytest.raises(DisconnectedError):
                classify(g)


def oracle_krs(g):
    """(r, s), r <= s, when the oracle's 2-colouring has sides of r and s
    vertices and g has r * s edges; None otherwise."""
    side = oracle.bipartite_side(g.n, g.edges)
    if side is None:
        return None
    ones = bin(side).count("1")
    r, s = sorted((ones, g.n - ones))
    return (r, s) if r >= 1 and g.m == r * s else None
