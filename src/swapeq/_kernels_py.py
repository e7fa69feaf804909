"""Pure-Python bitset kernels.

Graphs are adjacency rows: ``adj[v]`` is an int whose bit ``u`` is set iff
``{u, v}`` is an edge.  Vertices are ``0..n-1`` with ``n = len(adj)`` and
``n <= 64``.  Distances use ``-1`` as the unreachable sentinel; callers map
that to the public INF value.

``tests/test_kernels.py`` checks every kernel against the brute-force
oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

BACKEND = "pure-python"


def bfs_dists(adj, src):
    """Hop distances from src; -1 where unreachable."""
    n = len(adj)
    dist = [-1] * n
    dist[src] = 0
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= ~seen
        if not nxt:
            break
        d += 1
        seen |= nxt
        f = nxt
        while f:
            b = f & -f
            dist[b.bit_length() - 1] = d
            f ^= b
        frontier = nxt
    return dist


def sum_dist(adj, src):
    """Sum of hop distances from src to every vertex; -1 if any unreachable."""
    n = len(adj)
    full = (1 << n) - 1
    seen = frontier = 1 << src
    total = 0
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= ~seen
        if not nxt:
            break
        d += 1
        total += d * nxt.bit_count()
        seen |= nxt
        frontier = nxt
    return total if seen == full else -1


def is_connected(adj):
    n = len(adj)
    full = (1 << n) - 1
    seen = frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen == full


def eccentricity(adj, src):
    """Max hop distance from src; -1 if some vertex is unreachable."""
    n = len(adj)
    full = (1 << n) - 1
    seen = frontier = 1 << src
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= ~seen
        if not nxt:
            break
        d += 1
        seen |= nxt
        frontier = nxt
    return d if seen == full else -1


def diameter(adj):
    """Max pairwise distance; -1 if disconnected; 0 for a single vertex."""
    best = 0
    for src in range(len(adj)):
        e = eccentricity(adj, src)
        if e < 0:
            return -1
        if e > best:
            best = e
    return best


def bipartite_side(adj):
    """One side of a 2-colouring as a bitmask, or -1 if an odd cycle exists.

    The vertex with the lowest id in each component gets colour 0, so the
    returned mask is deterministic.
    """
    n = len(adj)
    seen_all = 0
    side1 = 0
    for s in range(n):
        if seen_all >> s & 1:
            continue
        level = 1 << s
        seen = level
        col = 0
        while level:
            nxt = 0
            f = level
            while f:
                b = f & -f
                a = adj[b.bit_length() - 1]
                if a & level:
                    return -1  # edge inside one BFS level closes an odd cycle
                nxt |= a
                f ^= b
            if col:
                side1 |= level
            nxt &= ~seen
            seen |= nxt
            col ^= 1
            level = nxt
        seen_all |= seen
    return side1


def swapped_sum_dist(adj, u, v, vp):
    """sum_dist from u after replacing edge {u,v} by {u,vp} (set semantics)."""
    adj2 = list(adj)
    adj2[u] = (adj2[u] & ~(1 << v)) | (1 << vp)
    adj2[v] &= ~(1 << u)
    adj2[vp] |= 1 << u
    return sum_dist(adj2, u)


def first_improving_swap(adj):
    """First (u, v, vp, delta) in lexicographic (u, v, vp) order with delta < 0.

    Scans swaps drop-{u,v}/add-{u,vp} over neighbours v and non-adjacent
    targets vp. Assumes a connected graph; returns None at equilibrium.
    """
    n = len(adj)
    full = (1 << n) - 1
    for u in range(n):
        nbrs = adj[u]
        others = full & ~nbrs & ~(1 << u)
        if not nbrs or not others:
            continue
        d0 = sum_dist(adj, u)
        f = nbrs
        while f:
            b = f & -f
            v = b.bit_length() - 1
            f ^= b
            g = others
            while g:
                c = g & -g
                vp = c.bit_length() - 1
                g ^= c
                d1 = swapped_sum_dist(adj, u, v, vp)
                if 0 <= d1 < d0:
                    return (u, v, vp, d1 - d0)
    return None


def best_swap(adj):
    """Swap minimising (delta, u, v, vp); None unless some delta < 0."""
    n = len(adj)
    full = (1 << n) - 1
    best = None
    for u in range(n):
        nbrs = adj[u]
        others = full & ~nbrs & ~(1 << u)
        if not nbrs or not others:
            continue
        d0 = sum_dist(adj, u)
        f = nbrs
        while f:
            b = f & -f
            v = b.bit_length() - 1
            f ^= b
            g = others
            while g:
                c = g & -g
                vp = c.bit_length() - 1
                g ^= c
                d1 = swapped_sum_dist(adj, u, v, vp)
                if d1 >= 0:
                    delta = d1 - d0
                    if delta < 0 and (best is None or delta < best[0]):
                        best = (delta, u, v, vp)
    return best


def scan_masks(n, lo, hi):
    """Survey scan over edge masks in [lo, hi).

    Yields (mask, bipartite, is_equilibrium, witness) for each connected
    mask, in ascending mask order.  Bit k of a mask is the k-th vertex pair
    in row-major order (0,1), (0,2), ..., (n-2,n-1).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(lo, hi):
        adj = [0] * n
        m = mask
        while m:
            b = m & -m
            i, j = pairs[b.bit_length() - 1]
            m ^= b
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if not is_connected(adj):
            continue
        bip = bipartite_side(adj) >= 0
        wit = first_improving_swap(adj)
        out.append((mask, bip, wit is None, wit))
    return out
