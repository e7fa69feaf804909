"""Single-edge swap deviations, their exact cost differences, equilibrium
verdicts and best-response dynamics.

A deviation of agent u replaces one incident edge {u, v} by {u, v'}; its
cost difference is D(u) in the deviated graph minus D(u) in the original,
with +INF when the swap disconnects the agent from somebody.  A connected
graph is an equilibrium when every deviation of every agent has
non-negative cost difference.

Targets v' already adjacent to u are not enumerated: the swap would merely
delete {u, v} (the multigraph collapses), and removing an edge never
shortens any distance, so such a move can never be strictly improving and
cannot change a verdict.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .graph import INF, Graph, GraphError
from .structure import _require_connected


@dataclass(frozen=True, order=True)
class Deviation:
    """Swap of edge {agent, drop} for edge {agent, add}."""

    agent: int
    drop: int
    add: int

    def validate(self, g: Graph) -> None:
        g.check_vertex(self.agent)
        g.check_vertex(self.drop)
        g.check_vertex(self.add)
        if not g.has_edge(self.agent, self.drop):
            raise GraphError(f"{self} drops a non-edge")
        if self.add in (self.agent, self.drop):
            raise GraphError(f"{self} adds an edge to itself or the dropped end")


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


def enumerate_deviations(g: Graph, u: int) -> list[Deviation]:
    """All swaps available to u, ordered by (drop, add)."""
    g.check_vertex(u)
    out = []
    for v in g.neighbors(u):
        for vp in range(g.n):
            if vp == u or vp == v or g.has_edge(u, vp):
                continue
            out.append(Deviation(u, v, vp))
    return out


def cost_delta(g: Graph, d: Deviation):
    """D(agent) after the swap minus before; +INF on disconnection.

    Only distances from the agent change sign-relevantly, so one BFS in the
    deviated graph suffices.
    """
    d.validate(g)
    before = kernels.sum_dist(g.adj, d.agent)
    if before < 0:
        raise GraphError("cost_delta requires a connected graph")
    after = kernels.swapped_sum_dist(g.adj, d.agent, d.drop, d.add)
    if after < 0:
        return INF
    return after - before


def is_equilibrium(g: Graph) -> EquilibriumVerdict:
    """Verdict and witness from ``kernels.first_improving_swap``.

    The witness, when present, is the first strictly improving deviation in
    (agent, drop, add) order, paired with its cost delta.  ``per_agent_min``
    scans every deviation of every agent, but only when it is first read.
    """
    _require_connected(g)
    found = kernels.first_improving_swap(g.adj)
    witness = None if found is None else (Deviation(*found[:3]), found[3])
    return EquilibriumVerdict(found is None, witness, _AgentMinima(g))


class _AgentMinima(Mapping):
    """Lazy ``per_agent_min``: every agent's deviations are scanned on first read."""

    def __init__(self, g: Graph):
        self._g = g

    @cached_property
    def _mins(self) -> dict:
        g = self._g
        return {u: min(cost_delta(g, d) for d in devs)
                for u in range(g.n) if (devs := enumerate_deviations(g, u))}

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
