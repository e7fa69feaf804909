"""The bitset kernels and the two bit layouts graphs are packed in.

Graphs are adjacency rows: ``adj[v]`` is an int whose bit ``u`` is set iff
``{u, v}`` is an edge.  Vertices are ``0..n-1`` with ``n = len(adj)`` and
``n <= 64``.  Distances use ``-1`` as the unreachable sentinel; callers map
that to the public INF value.

``reach`` is the one bitset BFS: distance sums, eccentricities, the
connectivity test and ``structure``'s pendant-world flood call it.  Three
loops stay separate because they compute something else: ``balls`` (the
ball of every radius, which ``bfs_dists`` reads as a distance vector and
``best_swap`` reads for its bound), ``bipartite_side`` (the odd-edge test
per level) and ``_reaches_all_in_two`` (a ball of radius 2).

Each bit layout has one decoder and one encoder:

- row-major edge masks, the survey's enumeration: bit k (low bit first) is
  the k-th pair of (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1);
  ``mask_to_adj`` and ``adj_to_mask``;
- column-major upper triangles, graph6 payloads and canonical forms: the
  pairs run (0,1), (0,2), (1,2), (0,3), ..., (n-2,n-1), the first as the
  high bit; ``triangle_rows`` and ``triangle_bits``.

``tests/test_kernels.py`` checks every kernel against the brute-force
oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

BACKEND = "pure-python"


def reach(adj, src, allowed=-1):
    """BFS from src into the vertices of allowed: (seen, total, ecc).

    seen is the bitmask of reached vertices (src always included), total
    the sum of their hop distances from src and ecc the largest of them.
    The one frontier loop behind every distance sum, connectivity test and
    flood; it is a plain function because a generator made the swap scan
    30-35 % slower.
    """
    seen = frontier = 1 << src
    total = d = 0
    while True:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= allowed & ~seen
        if not nxt:
            return seen, total, d
        d += 1
        total += d * nxt.bit_count()
        seen |= nxt
        frontier = nxt


def balls(adj, src):
    """Cumulative BFS balls from src: entry k is the bitmask of the vertices
    within distance k of src.

    The list runs from radius 0 (src alone) up to src's component, so it
    has ecc(src) + 1 entries, ecc taken within the component, and strictly
    grows.  Not built on reach: it keeps every level's ball, where reach
    returns the last one with its totals.
    """
    seen = frontier = 1 << src
    out = [seen]
    while True:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= ~seen
        if not nxt:
            return out
        seen |= nxt
        out.append(seen)
        frontier = nxt


def bfs_dists(adj, src):
    """Hop distances from src; -1 where unreachable.

    Read off balls: each level's vertices are written into the vector.
    """
    dist = [-1] * len(adj)
    inner = 0
    for d, ball in enumerate(balls(adj, src)):
        f = ball & ~inner
        while f:
            b = f & -f
            dist[b.bit_length() - 1] = d
            f ^= b
        inner = ball
    return dist


def sum_dist(adj, src):
    """Sum of hop distances from src to every vertex; -1 if any unreachable."""
    seen, total, _ = reach(adj, src)
    return total if seen == (1 << len(adj)) - 1 else -1


def is_connected(adj):
    return reach(adj, 0)[0] == (1 << len(adj)) - 1


def eccentricity(adj, src):
    """Max hop distance from src; -1 if some vertex is unreachable."""
    seen, _, ecc = reach(adj, src)
    return ecc if seen == (1 << len(adj)) - 1 else -1


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
    returned mask is deterministic.  Not built on reach: it colours level
    by level, tests each level for an inner edge and floods every
    component, where reach returns one component's totals only.
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
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            if nxt & level:
                return -1  # edge inside one BFS level closes an odd cycle
            if col:
                side1 |= level
            nxt &= ~seen
            seen |= nxt
            col ^= 1
            level = nxt
        seen_all |= seen
    return side1


def swapped_rows(adj, u, v, vp):
    """Rows with edge {u,v} replaced by {u,vp} (set semantics)."""
    rows = list(adj)
    rows[u] = (rows[u] & ~(1 << v)) | (1 << vp)
    rows[v] &= ~(1 << u)
    rows[vp] |= 1 << u
    return rows


def swapped_sum_dist(adj, u, v, vp):
    """sum_dist from u after replacing edge {u,v} by {u,vp}."""
    return sum_dist(swapped_rows(adj, u, v, vp), u)


def _reaches_all_in_two(adj, u, full):
    """True iff every vertex lies within distance 2 of u (ecc(u) <= 2).

    Not built on reach: it stops after two levels, where reach would run
    the whole BFS for every agent the swap scan considers.
    """
    ball = (1 << u) | adj[u]
    f = adj[u]
    while f:
        b = f & -f
        ball |= adj[b.bit_length() - 1]
        f ^= b
    return ball == full


def first_improving_swap(adj):
    """First improving (u, v, vp, delta) in (u, v, vp) order; None at equilibrium.

    A swap of agent u drops {u,v} for a neighbour v and adds {u,vp} for a
    non-adjacent vp; delta is u's distance sum after minus before.  Assumes
    a connected graph.

    Agents of eccentricity <= 2 are skipped: such a swap brings vp from
    distance 2 to 1, sends v from 1 to at least 2 and brings no other
    vertex closer, so its delta is >= 0 (Alon, Demaine, Hajiaghayi and
    Leighton's swap model).  No improving swap is lost.  This is the
    A(u,vp) <= 1 case of best_swap's bound, tested without balls.
    """
    n = len(adj)
    full = (1 << n) - 1
    for u in range(n):
        nbrs = adj[u]
        others = full & ~nbrs & ~(1 << u)
        if not nbrs or not others or _reaches_all_in_two(adj, u, full):
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
                    return u, v, vp, d1 - d0
    return None


def best_swap(adj):
    """Improving swap minimising (delta, u, v, vp); None at equilibrium.

    Assumes a connected graph.  The search is bounded.  For an agent u, a
    non-neighbour vp and x over all vertices, let
    A(u,vp) = sum of max(0, d(u,x) - 1 - d(vp,x)).  Then every swap
    {u,v} -> {u,vp} has delta >= 1 - A(u,vp):

    - the swapped graph is a subgraph of G + {u,vp}, so
      d'(u,x) >= min(d(u,x), 1 + d(vp,x)) for every x;
    - v is no longer adjacent to u and v != vp, so d'(u,v) >= 2 = d(u,v) + 1,
      where the first line gives only d'(u,v) >= 1;
    - summed over x, delta >= -A(u,vp) + 1.

    A is read off the balls of u and vp.  With ball_s(j) the vertices within
    distance j of s and far_u(k) those at distance >= k from u,
    A(u,vp) = sum over j = 0..ecc(u)-2 of popcount(far_u(j+2) & ball_vp(j)),
    because x counts once for each j with d(vp,x) <= j <= d(u,x) - 2.  The
    j = 0 term is 1 for every non-neighbour vp (ball_vp(0) is vp alone and
    d(u,vp) >= 2), so it is added as a constant.

    So a pair with A <= 1 has no improving swap.  An agent of eccentricity
    <= 2 has A <= 1 for every vp (only x = vp can count, and it counts 1),
    so it is skipped outright.  The other pairs are evaluated exactly, over
    every v, in ascending (1 - A, u, vp) order, until a pair's bound exceeds
    the best delta found.  A pair whose bound equals it is still evaluated,
    so ties break on (u, v, vp) exactly as in an exhaustive scan.
    """
    n = len(adj)
    full = (1 << n) - 1
    ball = [balls(adj, s) for s in range(n)]
    # level[j - 1][vp] = ball_vp(j) for j >= 1; past its last entry, a ball
    # of a connected graph is every vertex
    level = list(zip(*[b[1:] + [full] * (n - len(b)) for b in ball]))
    pairs = []
    for u in range(n):
        bu = ball[u]
        if len(bu) <= 3:
            continue
        # a[vp] = A(u, vp), summed level by level; read for non-neighbours only
        a = [1] * n
        for b, bv in zip(bu[2:-1], level):
            far = full & ~b  # far_u(j + 2)
            a = [x + (far & v).bit_count() for x, v in zip(a, bv)]
        shut = adj[u] | 1 << u
        pairs += [(1 - x, u, vp) for vp, x in enumerate(a)
                  if x >= 2 and not shut >> vp & 1]
    pairs.sort()
    best = None
    for bound, u, vp in pairs:
        if best is not None and bound > best[0]:
            break
        d0 = sum(n - b.bit_count() for b in ball[u])
        f = adj[u]
        while f:
            b = f & -f
            v = b.bit_length() - 1
            f ^= b
            d1 = swapped_sum_dist(adj, u, v, vp)
            if 0 <= d1 < d0 and (best is None or (d1 - d0, u, v, vp) < best):
                best = d1 - d0, u, v, vp
    return best


def mask_to_adj(n, mask):
    """Rows of a row-major edge mask; row i's higher neighbours are its next n-1-i bits."""
    adj = [0] * n
    full = (1 << n) - 1
    for i in range(n - 1):
        hi = mask << (i + 1) & full
        mask >>= n - 1 - i
        adj[i] |= hi
        while hi:
            b = hi & -hi
            adj[b.bit_length() - 1] |= 1 << i
            hi ^= b
    return tuple(adj)


def adj_to_mask(adj):
    """Row-major edge mask of adjacency rows; inverse of mask_to_adj."""
    n = len(adj)
    mask = 0
    for i in range(n - 1, -1, -1):
        mask = mask << (n - 1 - i) | adj[i] >> (i + 1)
    return mask


def triangle_rows(n, bits):
    """Rows of a column-major upper triangle of n(n-1)/2 bits."""
    rows = [0] * n
    k = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if bits >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def triangle_bits(adj):
    """Column-major upper triangle of adjacency rows; inverse of triangle_rows."""
    bits = 0
    for j in range(1, len(adj)):
        for i in range(j):
            bits = bits << 1 | (adj[j] >> i & 1)
    return bits


def scan_masks(n, lo, hi):
    """Survey scan over edge masks in [lo, hi).

    Yields (mask, bipartite, is_equilibrium, witness) for each connected
    mask, in ascending mask order; masks are decoded by mask_to_adj.
    """
    out = []
    for mask in range(lo, hi):
        adj = mask_to_adj(n, mask)
        if not is_connected(adj):
            continue
        bip = bipartite_side(adj) >= 0
        wit = first_improving_swap(adj)
        out.append((mask, bip, wit is None, wit))
    return out
