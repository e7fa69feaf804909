"""Structural decomposition: bridges, cut vertices, 2-edge-connected and
biconnected components, pendant worlds, and graph-class recognizers.

Each answer is one traversal.  decompose is one depth-first lowpoint pass
(Tarjan 1974) that yields bridges, cut vertices, 2-edge-connected components
and blocks together; is_bipartite is one BFS per component that yields the
2-colouring or an odd closed walk.  Neither calls a kernel."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .graph import Edge, Graph, GraphError


class DisconnectedError(GraphError):
    pass


@dataclass(frozen=True)
class Decomposition:
    """Bridge/cut structure of a connected graph.

    bridges: edges whose removal disconnects the graph.
    cut_vertices: vertices whose removal disconnects the graph.
    tecc: vertex sets of the 2-edge-connected components (bridgeless pieces);
        they partition the vertices, singletons included.
    bcc: edge sets of the biconnected components (blocks); every edge lies in
        exactly one, bridges being single-edge blocks.
    """

    bridges: tuple[Edge, ...]
    cut_vertices: frozenset[int]
    tecc: tuple[frozenset[int], ...]
    bcc: tuple[frozenset[Edge], ...]


def _require_connected(g: Graph) -> None:
    if not kernels.is_connected(g.adj):
        raise DisconnectedError("operation requires a connected graph")


@lru_cache(maxsize=2048)
def decompose(g: Graph) -> Decomposition:
    """One depth-first lowpoint pass (Tarjan, "A note on finding the bridges
    of a graph", IPL 2(6), 1974).  A tree edge (u, v) with low[v] > disc[u] is
    a bridge, and v's subtree still on the vertex stack is one 2-edge-connected
    component; what is left on it at the end is the root's.  low[v] >= disc[u]
    closes a block on the edge stack and makes u a cut (the root needs two
    children).  A vertex the pass from 0 never reaches: g is disconnected."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridges: list[Edge] = []
    cuts: set[int] = set()
    comps: list[frozenset[int]] = []
    blocks: list[frozenset[Edge]] = []
    vstack: list[int] = []
    estack: list[Edge] = []
    timer = 0

    def dfs(u: int, parent: int) -> None:
        nonlocal timer
        disc[u] = low[u] = timer
        timer += 1
        vstack.append(u)
        children = 0
        for v in g.neighbors(u):
            if v == parent:
                continue
            if disc[v] < 0:
                children += 1
                estack.append((u, v))
                dfs(v, u)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    bridges.append((min(u, v), max(u, v)))
                    at = vstack.index(v)
                    comps.append(frozenset(vstack[at:]))
                    del vstack[at:]
                if low[v] >= disc[u]:
                    if parent >= 0 or children > 1:
                        cuts.add(u)
                    block = []
                    while True:
                        e = estack.pop()
                        block.append((min(e), max(e)))
                        if e == (u, v):
                            break
                    blocks.append(frozenset(block))
            elif disc[v] < disc[u]:
                estack.append((u, v))
                low[u] = min(low[u], disc[v])

    dfs(0, -1)
    if timer < n:
        raise DisconnectedError("operation requires a connected graph")
    comps.append(frozenset(vstack))

    return Decomposition(
        bridges=tuple(sorted(bridges)),
        cut_vertices=frozenset(cuts),
        tecc=tuple(sorted(comps, key=min)),
        bcc=tuple(sorted(blocks, key=lambda b: min(b))),
    )


def block_vertices(block: frozenset[Edge]) -> frozenset[int]:
    return frozenset(v for e in block for v in e)


def pendant_world(g: Graph, component, u: int):
    """W(u): the connected piece containing u once the rest of the component
    is deleted — u plus everything hanging off the component at u.

    The flood expands only outside the component, so its first level is
    g.adj[u] & ~mask(component): W(u) is {u} exactly when that AND is 0."""
    comp = frozenset(component)
    if u not in comp:
        raise GraphError(f"vertex {u} not in the component")
    # reach always keeps its source, so u is the one component vertex in W(u)
    world = kernels.reach(g.adj, u, ~sum(1 << v for v in comp))[0]
    return frozenset(v for v in range(g.n) if world >> v & 1)


@dataclass(frozen=True)
class BipartiteVerdict:
    bipartite: bool
    sides: tuple[frozenset[int], frozenset[int]] | None
    odd_walk: tuple[int, ...] | None  # closed walk of odd length if not bipartite


def is_bipartite(g: Graph) -> BipartiteVerdict:
    """2-colour the graph or exhibit an odd closed walk, in one BFS per
    component: the lowest vertex of each component is the root, with colour
    0, and a vertex's colour is the parity of its BFS depth.  The first edge
    met between two vertices of equal parity closes the odd walk."""
    parent = [-1] * g.n
    depth = [-1] * g.n
    for s in range(g.n):
        if depth[s] >= 0:
            continue
        depth[s] = 0
        queue = [s]
        for u in queue:
            for v in g.neighbors(u):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif (depth[v] - depth[u]) % 2 == 0:
                    # closed walk u -> root -> v -> u; length du + dv + 1 is odd
                    walk_u = [u]
                    while parent[walk_u[-1]] >= 0:
                        walk_u.append(parent[walk_u[-1]])
                    walk_v = [v]
                    while parent[walk_v[-1]] >= 0:
                        walk_v.append(parent[walk_v[-1]])
                    walk = walk_u + list(reversed(walk_v))[1:] + [u]
                    return BipartiteVerdict(False, None, tuple(walk))
    ones = frozenset(v for v in range(g.n) if depth[v] % 2)
    return BipartiteVerdict(True, (frozenset(range(g.n)) - ones, ones), None)


@dataclass(frozen=True)
class Classification:
    tree: bool
    star: bool
    complete_bipartite: tuple[int, int] | None
    block_graph: bool
    cactus: bool


def classify(g: Graph) -> Classification:
    """Recognize the graph classes the structural results quantify over."""
    blocks = decompose(g).bcc  # raises DisconnectedError on a disconnected g
    n, m = g.n, g.m
    tree = m == n - 1
    star = tree and any(g.degree(v) == n - 1 for v in range(n))

    krs = None
    side = kernels.bipartite_side(g.adj)
    if side >= 0 and n >= 2:
        r, s = sorted((side.bit_count(), n - side.bit_count()))
        if r >= 1 and m == r * s:
            krs = (r, s)

    block_graph = True
    cactus = True
    for block in blocks:
        vb = block_vertices(block)
        k = len(vb)
        if len(block) != k * (k - 1) // 2:
            block_graph = False
        if len(block) > 1 and len(block) != k:
            cactus = False

    return Classification(tree, star, krs, block_graph, cactus)

