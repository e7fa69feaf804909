import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swapeq import kernels
from swapeq.families import complete_bipartite, cycle, path, star
from swapeq.graph import (
    INF,
    DuplicateEdgeError,
    SelfLoopError,
    VertexRangeError,
    build_graph,
    diameter,
    graph_from_adj,
)

import oracle


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_adj(n, kernels.mask_to_adj(n, mask))


class TestBuildGraph:
    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_cached_edge_count_is_not_identity(self):
        # m is summed once and cached on the instance; equality, hashing and
        # pickling still see (n, adj) only.
        g = build_graph(4, [(0, 1), (1, 2)])
        assert g.m == 2 and g.__dict__["m"] == 2
        fresh = build_graph(4, [(0, 1), (1, 2)])
        assert g == fresh and hash(g) == hash(fresh)
        assert pickle.dumps(g) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and "m" not in copy.__dict__ and copy.m == 2

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_graph(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            build_graph(0, [])
        with pytest.raises(VertexRangeError):
            build_graph(65, [])


class TestDistances:
    def test_bfs_cycle(self):
        assert kernels.bfs_dists(cycle(5).adj, 0) == [0, 1, 2, 2, 1]

    def test_bfs_path(self):
        assert kernels.bfs_dists(path(4).adj, 0) == [0, 1, 2, 3]

    def test_bfs_disconnected(self):
        g = build_graph(3, [(0, 1)])
        assert kernels.bfs_dists(g.adj, 0) == [0, 1, -1]

    def test_sum_star_center(self):
        assert kernels.sum_dist(star(3).adj, 0) == 3

    def test_sum_path_leaf(self):
        assert kernels.sum_dist(path(4).adj, 0) == 6

    def test_sum_disconnected(self):
        assert kernels.sum_dist(build_graph(3, [(0, 1)]).adj, 0) == -1

    def test_diameter(self):
        assert diameter(complete_bipartite(2, 3)) == 2
        assert diameter(cycle(6)) == 3
        assert diameter(path(4)) == 3
        assert diameter(build_graph(2, [])) is INF
        assert diameter(build_graph(1, [])) == 0


class TestInf:
    def test_ordering(self):
        assert INF > 10**9
        assert not INF < 0
        assert 5 < INF
        assert INF >= INF and INF <= INF and INF == INF

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge,
                                    operator.eq, operator.ne], ids=lambda op: op.__name__)
    def test_compares_as_a_huge_int(self, op):
        # every comparison over ints and bools answers as 10**100 would
        values = (INF, -3, 0, 5, True)
        big = [10**100 if v is INF else v for v in values]
        for a, x in zip(values, big):
            for b, y in zip(values, big):
                assert op(a, b) is op(x, y), (a, b)

    @pytest.mark.parametrize("other", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                             ids=lambda op: op.__name__)
    def test_no_order_with_non_ints(self, op, other):
        with pytest.raises(TypeError):
            op(INF, other)
        with pytest.raises(TypeError):
            op(other, INF)

    def test_absorbing_addition(self):
        assert INF + 7 is INF
        assert 7 + INF is INF
        assert INF + INF is INF


@given(graphs(min_n=1, max_n=7))
def test_distance_symmetry(g):
    for u in range(g.n):
        du = kernels.bfs_dists(g.adj, u)
        for v in range(u + 1, g.n):
            assert du[v] == kernels.bfs_dists(g.adj, v)[u]


@given(graphs(min_n=1, max_n=6))
def test_triangle_inequality(g):
    vectors = [kernels.bfs_dists(g.adj, u) for u in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                duv, dvw, duw = vectors[u][v], vectors[v][w], vectors[u][w]
                if duv >= 0 and dvw >= 0:
                    assert 0 <= duw <= duv + dvw


@given(graphs(min_n=1, max_n=7))
def test_sum_finite_iff_connected(g):
    connected = kernels.is_connected(g.adj)
    for u in range(g.n):
        assert (kernels.sum_dist(g.adj, u) >= 0) == connected


@given(graphs(min_n=1, max_n=7))
def test_bfs_edge_lipschitz(g):
    for u in range(g.n):
        d = kernels.bfs_dists(g.adj, u)
        assert d[u] == 0
        for a, b in g.edges:
            if d[a] >= 0 and d[b] >= 0:
                assert abs(d[a] - d[b]) <= 1


@given(graphs(min_n=1, max_n=6))
def test_matches_oracle(g):
    for u in range(g.n):
        expect = oracle.distances(g.n, g.edges, u)
        got = [None if d < 0 else d for d in kernels.bfs_dists(g.adj, u)]
        assert got == expect
