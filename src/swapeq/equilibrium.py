"""Equilibrium verdicts, their per-agent minima and best-response dynamics.

A deviation of agent u replaces one incident edge {u, v} by {u, v'}; its
cost difference, read off ``kernels.swapped_sum_dist``, is D(u) in the
deviated graph minus D(u) in the original, with +INF when the swap
disconnects the agent from somebody.  A connected graph is an equilibrium
when every deviation of every agent has non-negative cost difference.

Targets v' already adjacent to u are not scanned: the swap would merely
delete {u, v}, and removing an edge never shortens any distance, so such a
move can never be strictly improving and cannot change a verdict.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .graph import INF, Graph
from .structure import _require_connected


@dataclass(frozen=True, order=True)
class Deviation:
    """Swap of edge {agent, drop} for edge {agent, add}."""

    agent: int
    drop: int
    add: int


@dataclass(frozen=True)
class EquilibriumVerdict:
    is_equilibrium: bool
    witness: tuple[Deviation, int] | None
    per_agent_min: Mapping  # agent -> minimal cost delta (agents with >= 1 deviation)


@dataclass(frozen=True)
class DynamicsTrace:
    states: tuple[Graph, ...]
    moves: tuple[Deviation, ...]
    outcome: str  # converged | cycled | step_limit


def is_equilibrium(g: Graph) -> EquilibriumVerdict:
    """Verdict and witness from ``kernels.first_improving_swap``.

    The witness, when present, is the first strictly improving deviation in
    (agent, drop, add) order, paired with its cost delta.  ``per_agent_min``
    scans every deviation through the swap kernel, but only on first read.
    """
    _require_connected(g)
    found = kernels.first_improving_swap(g.adj)
    witness = None if found is None else (Deviation(*found[:3]), found[3])
    return EquilibriumVerdict(found is None, witness, _AgentMinima(g.adj))


class _AgentMinima(Mapping):
    """Lazy ``per_agent_min``: u -> least swapped_sum_dist - sum_dist over v in
    N(u) and vp outside N[u], INF for a disconnecting swap; no key if u has none."""

    def __init__(self, adj):
        self._adj = adj

    @cached_property
    def _mins(self) -> dict:
        adj = self._adj
        n = len(adj)
        out = {}
        for u, row in enumerate(adj):
            d0 = kernels.sum_dist(adj, u)
            shut = row | 1 << u
            d1s = [kernels.swapped_sum_dist(adj, u, v, vp) for v in range(n) if row >> v & 1
                   for vp in range(n) if not shut >> vp & 1]
            if d1s:
                out[u] = min(d1 - d0 if d1 >= 0 else INF for d1 in d1s)
        return out

    def __getitem__(self, u):
        return self._mins[u]

    def __iter__(self):
        return iter(self._mins)

    def __len__(self):
        return len(self._mins)


def run_dynamics(g: Graph, step_limit: int) -> DynamicsTrace:
    """Iterate best responses until equilibrium, a repeated labelled state,
    or the step limit.

    Each step calls ``kernels.best_swap`` on the current rows, which gives
    the improving swap minimising (delta, agent, drop, add), and applies it
    with ``Graph.replace_edge``.  Connectivity is tested once, on g: an
    improving swap leaves the agent a finite distance sum, so every later
    state is connected too.
    """
    _require_connected(g)
    states = [g]
    moves: list[Deviation] = []
    seen = {g.adj}
    current = g
    while True:
        found = kernels.best_swap(current.adj)
        if found is None:
            return DynamicsTrace(tuple(states), tuple(moves), "converged")
        if len(moves) >= step_limit:
            return DynamicsTrace(tuple(states), tuple(moves), "step_limit")
        _, u, v, vp = found
        current = current.replace_edge(u, v, vp)
        moves.append(Deviation(u, v, vp))
        states.append(current)
        if current.adj in seen:
            return DynamicsTrace(tuple(states), tuple(moves), "cycled")
        seen.add(current.adj)
