"""Independent brute-force oracle used to cross-check the library.

Deliberately shares no code or representation with the package: plain
adjacency dicts, deque BFS, and exhaustive deviation enumeration.  None
stands in for infinity.
"""

from collections import deque
from fractions import Fraction


def distances(n, edges, src):
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return [dist.get(v) for v in range(n)]


def sum_distances(n, edges, src):
    d = distances(n, edges, src)
    if any(x is None for x in d):
        return None
    return sum(d)


def diameter(n, edges):
    best = 0
    for src in range(n):
        d = distances(n, edges, src)
        if any(x is None for x in d):
            return None
        best = max(best, max(d))
    return best


def is_connected(n, edges):
    return all(x is not None for x in distances(n, edges, 0))


def reach(n, edges, src, allowed):
    """(seen, total, ecc) of a BFS from src in the subgraph induced by src
    and the vertices of the bitmask allowed: seen as a bitmask, total the
    sum of the reached vertices' distances and ecc the largest."""
    inside = allowed | 1 << src
    sub = [(a, b) for a, b in edges if inside >> a & 1 and inside >> b & 1]
    found = [(v, d) for v, d in enumerate(distances(n, sub, src)) if d is not None]
    return (sum(1 << v for v, _ in found), sum(d for _, d in found),
            max(d for _, d in found))


def bipartite_side(n, edges):
    """Bitmask of the colour-1 vertices of the 2-colouring in which the
    lowest vertex of each component has colour 0; None if an odd cycle
    exists."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    colour = {}
    for s in range(n):
        if s in colour:
            continue
        colour[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    q.append(v)
                elif colour[v] == colour[u]:
                    return None
    return sum(1 << v for v, c in colour.items() if c)


def all_deviations(n, edges):
    """Every (agent, drop, add) with add not already adjacent, in lex order."""
    eset = {frozenset(e) for e in edges}
    for u in range(n):
        for v in range(n):
            if frozenset((u, v)) not in eset:
                continue
            for vp in range(n):
                if vp in (u, v) or frozenset((u, vp)) in eset:
                    continue
                yield u, v, vp


def deviation_delta(n, edges, u, v, vp):
    """Cost difference of one swap; None when the swap disconnects."""
    eset = {frozenset(e) for e in edges}
    eset.remove(frozenset((u, v)))
    eset.add(frozenset((u, vp)))
    new_edges = [tuple(sorted(e)) for e in eset]
    d0 = sum_distances(n, edges, u)
    d1 = sum_distances(n, new_edges, u)
    if d1 is None:
        return None
    return d1 - d0


def family_shifts(n, edges, comp, u, v):
    """Average change of d(u, w), for every w, over the swaps {u,v} -> {u,v'}
    with v' a neighbour of v inside comp other than u.  A v' already adjacent
    to u leaves one edge {u,v'} (set semantics).  None when a swap
    disconnects."""
    eset = {frozenset(e) for e in edges}
    targets = [x for x in sorted(comp) if x != u and frozenset((v, x)) in eset]
    before = distances(n, edges, u)
    change = [0] * n
    for vp in targets:
        swapped = (eset - {frozenset((u, v))}) | {frozenset((u, vp))}
        after = distances(n, [tuple(e) for e in swapped], u)
        if None in after:
            return None
        change = [c + a - b for c, a, b in zip(change, after, before)]
    return [Fraction(c, len(targets)) for c in change]


def equilibrium(n, edges):
    """(verdict, first improving deviation with its delta or None)."""
    for u, v, vp in all_deviations(n, edges):
        d = deviation_delta(n, edges, u, v, vp)
        if d is not None and d < 0:
            return False, (u, v, vp, d)
    return True, None


def bridges(n, edges):
    """Edges whose removal disconnects the graph (brute removal)."""
    out = []
    for e in edges:
        rest = [x for x in edges if x != e]
        if not is_connected(n, rest):
            out.append(tuple(sorted(e)))
    return sorted(out)


def cut_vertices(n, edges):
    """Vertices whose removal disconnects the rest (brute removal)."""
    out = []
    for v in range(n):
        keep = [x for x in range(n) if x != v]
        if len(keep) <= 1:
            continue
        relab = {x: i for i, x in enumerate(keep)}
        rest = [(relab[a], relab[b]) for a, b in edges if a != v and b != v]
        if not is_connected(n - 1, rest):
            out.append(v)
    return sorted(out)
