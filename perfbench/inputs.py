"""Seeded input generators for the benchmark workloads.

Everything here is independent of the swapeq package: graphs are plain
adjacency-set lists, and graph6 / edge-list text is produced by the local
encoders below.  The program under test only ever sees the generated text,
so set-up time does not move when the package changes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass


def _adj_sets(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _dists(adj, src):
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def connected(n, edges):
    return min(_dists(_adj_sets(n, edges), 0)) >= 0


def diameter(n, edges):
    adj = _adj_sets(n, edges)
    return max(max(_dists(adj, s)) for s in range(n))


def has_bridge(n, edges):
    """Brute force: some edge whose removal disconnects (inputs have n <= 14)."""
    for k in range(len(edges)):
        if not connected(n, edges[:k] + edges[k + 1:]):
            return True
    return False


def gnp(rng, n, p):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def graph6(n, edges):
    """graph6 text (n <= 62): size byte, then the upper triangle column by
    column, six bits per printable character."""
    eset = {(min(a, b), max(a, b)) for a, b in edges}
    bits = [1 if (i, j) in eset else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        out.append(chr(63 + group))
    return "".join(out)


def graph6_edges(text):
    """(n, edges) of a graph6 line written by graph6()."""
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - i) & 1 for ch in text[1:] for i in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def edge_list(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def claim_order(seed, names):
    """The enumeration workload's only seeded input: the order in which the
    claims are configured.  Summary counts must not depend on it."""
    names = list(names)
    random.Random(seed).shuffle(names)
    return tuple(names)


def _edge_count_pmf(pairs, lo, hi, steps=1000):
    """P(m = k) for G(n, p) with p uniform on [lo, hi] (midpoint rule)."""
    pmf = [0.0] * (pairs + 1)
    for s in range(steps):
        p = lo + (hi - lo) * (s + 0.5) / steps
        for k in range(pairs + 1):
            pmf[k] += math.comb(pairs, k) * p ** k * (1 - p) ** (pairs - k) / steps
    return pmf


STREAM_N = 8
STREAM_P = (0.25, 0.9)
STREAM_COPY_SHARE = 0.3


def stream_lines(seed, lines):
    """graph6 lines: G(STREAM_N, p) with p uniform on STREAM_P, and
    STREAM_COPY_SHARE of the lines relabelled copies of earlier ones.

    The canonical-labelling cost of a stream is dominated by its few
    complete and near-complete graphs, so sampling is stratified to keep it
    from swinging with the seed: edge counts are drawn at stratified
    quantiles of the G(n, p) mixture (a graph is uniform given its edge
    count, so each line still has the mixture's distribution), and copies
    take a systematic sample of the fresh graphs ordered by edge count.
    """
    rng = random.Random(seed)
    n = STREAM_N
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    copies = round(lines * STREAM_COPY_SHARE)
    fresh = lines - copies
    cdf = list(itertools.accumulate(_edge_count_pmf(len(pairs), *STREAM_P)))
    graphs = []  # (stream position key, edges)
    for k in range(fresh):
        u = (k + rng.random()) / fresh * cdf[-1]
        m = next((i for i, c in enumerate(cdf) if c > u), len(pairs))
        graphs.append((rng.random(), sorted(rng.sample(pairs, m))))
    by_size = sorted(range(fresh), key=lambda i: (len(graphs[i][1]), graphs[i][0]))
    start = rng.random()
    for j in range(copies):
        key, edges = graphs[by_size[int((j + start) * fresh / copies)]]
        graphs.append((rng.uniform(key, 1.0), relabel(rng, n, edges)))
    graphs.sort(key=lambda item: item[0])
    return [graph6(n, edges) for _key, edges in graphs]


@dataclass(frozen=True)
class Request:
    command: str  # check | dynamics | theory
    n: int
    edges: tuple

    def argv(self, path: str) -> list:
        if self.command == "dynamics":
            return ["dynamics", path, "--max-steps", "200"]
        if self.command == "theory":
            return ["theory", path, "--observer", "all"]
        return ["check", path]


def _connected_gnp(rng, n, mean_degree):
    while True:
        edges = gnp(rng, n, mean_degree / (n - 1))
        if connected(n, edges):
            return edges


def _bipartite_2ec_far(rng, max_n):
    """Connected, bridgeless, bipartite, diameter > 2 (the theory family)."""
    while True:
        r = rng.randint(2, 6)
        s = rng.randint(2, max_n - r)
        p = rng.uniform(0.3, 0.75)
        edges = [(i, r + j) for i in range(r) for j in range(s) if rng.random() < p]
        n = r + s
        if not connected(n, edges) or diameter(n, edges) <= 2 or has_bridge(n, edges):
            continue
        return n, relabel(rng, n, edges)


# request counts per pass, chosen so each command takes about a third of the
# pass time on the pure-Python kernels (measured shares are printed in
# info.command_share)
REQUEST_MIX = {"check": 220, "dynamics": 45, "theory": 45}


def _stratified(rng, count, lo, hi):
    """count values spread evenly over [lo, hi), one per equal-width
    stratum, in random order."""
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def requests(seed, mix=REQUEST_MIX):
    """The single-graph request list.  Request cost grows steeply with graph
    size, so sizes and densities are stratified, and the theory graphs are a
    systematic sample, by size, of three times as many from the rejection
    sampler: the pass cost then varies little from seed to seed."""
    rng = random.Random(seed)
    out = []
    for command, count, (n_lo, n_hi), (d_lo, d_hi) in (
            ("check", mix["check"], (16, 33), (2.5, 4.0)),
            ("dynamics", mix["dynamics"], (16, 25), (2.2, 3.2))):
        for n, degree in zip(_stratified(rng, count, n_lo, n_hi),
                             _stratified(rng, count, d_lo, d_hi)):
            n = int(n)
            out.append(Request(command, n, tuple(_connected_gnp(rng, n, degree))))
    pool = sorted((_bipartite_2ec_far(rng, 14) for _ in range(3 * mix["theory"])),
                  key=lambda g: (g[0], len(g[1])))
    start = rng.random()
    for k in range(mix["theory"]):
        n, edges = pool[int((k + start) * len(pool) / mix["theory"])]
        out.append(Request("theory", n, tuple(edges)))
    rng.shuffle(out)
    return out
