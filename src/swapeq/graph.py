"""Immutable simple graphs with exact hop-distance arithmetic.

Vertices are 0..n-1 (n <= 64); adjacency is stored as one neighbour bitmask
per vertex so the distance and set computations downstream reduce to word
operations.  All distance values are exact ints or the INF sentinel, never
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Iterable

from . import kernels

MAX_VERTICES = 64

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


@total_ordering
class _Infinity:
    """Sentinel for unreachable distances: greater than every int, absorbing
    under addition.  It has no order with floats or Fractions."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("swapeq.INF")

    def __lt__(self, other):
        if isinstance(other, (int, _Infinity)):
            return False
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, _Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("INF has no negative")


INF = _Infinity()

@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    @cached_property
    def m(self) -> int:
        """Edge count, summed once per graph on first read."""
        return sum(a.bit_count() for a in self.adj) // 2

    def __reduce__(self):
        # Pickle (n, adj) only, never the cached edge count.
        return (Graph, (self.n, self.adj))

    @property
    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return tuple(out)

    def neighbors(self, u: int) -> tuple[int, ...]:
        row = self.adj[u]
        out = []
        while row:
            b = row & -row
            out.append(b.bit_length() - 1)
            row ^= b
        return tuple(out)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise VertexRangeError(f"vertex {u} out of range 0..{self.n - 1}")

    def replace_edge(self, u: int, drop: int, add: int) -> "Graph":
        """New graph with edge {u, drop} removed and {u, add} present.

        Set semantics: if {u, add} already exists the result simply loses
        {u, drop}.
        """
        return Graph(self.n, tuple(kernels.swapped_rows(self.adj, u, drop, add)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def build_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Validate and build a graph from an edge list.

    Rejects self-loops, duplicate edges (in either orientation) and
    out-of-range vertex ids, each with its own error type.
    """
    if not isinstance(n, int) or n < 1:
        raise VertexRangeError(f"vertex count must be a positive int, got {n!r}")
    if n > MAX_VERTICES:
        raise VertexRangeError(f"at most {MAX_VERTICES} vertices supported, got {n}")
    rows = [0] * n
    for e in edges:
        u, v = e
        if not (isinstance(u, int) and isinstance(v, int)):
            raise VertexRangeError(f"non-integer vertex in edge {e!r}")
        if u == v:
            raise SelfLoopError(f"self-loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if rows[u] >> v & 1:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def graph_from_adj(n: int, adj: tuple[int, ...]) -> Graph:
    """Wrap pre-validated adjacency rows (internal fast path)."""
    return Graph(n, tuple(adj))


def diameter(g: Graph):
    """Largest pairwise distance; INF when disconnected."""
    d = kernels.diameter(g.adj)
    return INF if d < 0 else d

