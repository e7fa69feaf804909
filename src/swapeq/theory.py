"""Aggregated swap-cost analysis over 2-edge-connected components.

For a component H of a connected graph and an observer w, each ordered pair
(u, v) with v an H-neighbour of u spawns the family of swaps {u,v} -> {u,v'}
over the other H-neighbours v' of v.  The *shift* of the pair is the average
change of d(u, w) over that family; summing shifts over all pairs gives the
per-observer total, and summing full cost differences the same way gives the
grand total, which must coincide with the sum of the per-observer totals.
On a bipartite component the shift has a closed form in terms of the sets
of H-neighbours one step closer / farther from the observer.

Each answer is one function that checks its own arguments.  aggregate_swaps
is the one simulator: it builds every deviated graph of every family.
layer_profile gives plain data for one observer, and is where the closed form
and the inequality chain check bipartiteness, of the component only;
closed_form_shift checks its edge and check_inequalities its aggregate.  The
closed form is tested against the simulator, and the simulator against the
independent brute-force oracle in tests/oracle.py.

All values are exact rationals: the family averages divide by deg_H(v) - 1,
and sign decisions must not round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from . import kernels
from .graph import Graph, GraphError
from .structure import decompose, pendant_world


class ComponentError(GraphError):
    pass


class NotBipartiteError(GraphError):
    pass


def _validate_tecc(g: Graph, component) -> frozenset[int]:
    comp = frozenset(component)
    if comp not in decompose(g).tecc:
        raise ComponentError(f"{sorted(comp)} is not a 2-edge-connected component")
    return comp


def _h_neighbors(g: Graph, comp: frozenset[int], u: int) -> list[int]:
    return [v for v in g.neighbors(u) if v in comp]


@dataclass(frozen=True)
class LayerProfile:
    """Per-observer layer structure of a bipartite component.

    closer[u] / farther[u]: H-neighbours of u one step closer / farther from
    the observer; together they are all of u's H-neighbours.  entry: the
    unique H-vertex whose closer-set is empty (the vertex through which the
    observer sees H).  mixed: H-vertices with both sets nonempty.
    """

    component: frozenset[int]
    observer: int
    closer: dict
    farther: dict
    entry: int
    mixed: frozenset[int]


def layer_profile(g: Graph, component, w: int) -> LayerProfile:
    """The layers of component as seen from w.  Distances from w to H are
    d(w, entry) + d_H(entry, .), so every H-edge joins two layers unless H has
    an odd cycle: then NotBipartiteError, whatever the rest of g is."""
    comp = _validate_tecc(g, component)
    g.check_vertex(w)
    dw = kernels.bfs_dists(g.adj, w)
    closer = {}
    farther = {}
    level_edge = False
    for u in sorted(comp):
        nbrs = _h_neighbors(g, comp, u)
        closer[u] = frozenset(v for v in nbrs if dw[v] == dw[u] - 1)
        farther[u] = frozenset(v for v in nbrs if dw[v] == dw[u] + 1)
        level_edge = level_edge or len(closer[u]) + len(farther[u]) < len(nbrs)
    entry = min(comp, key=lambda u: (dw[u], u))
    if [u for u in comp if not closer[u]] != [entry]:
        raise AssertionError("entry vertex must be the unique one with no closer neighbour")
    if w not in pendant_world(g, comp, entry):
        raise AssertionError("observer must live in the entry's world")
    if level_edge:
        raise NotBipartiteError(f"component {sorted(comp)} is not bipartite")
    mixed = frozenset(u for u in comp if closer[u] and farther[u])
    return LayerProfile(comp, w, closer, farther, entry, mixed)


def closed_form_shift(profile: LayerProfile, agent: int, dropped: int) -> Fraction:
    """Average change of d(agent, observer) over the swap family of the
    component edge {agent, dropped}, by the bipartite three-case formula (no
    deviated graphs are built).  The edge lies on a cycle of the bridgeless
    component, so deg_H(dropped) >= 2 and the family is never empty."""
    if dropped not in profile.closer.get(agent, ()):
        if dropped not in profile.farther.get(agent, ()):
            raise ComponentError("agent and dropped must be adjacent vertices of the component")
        return Fraction(0)
    down, up = len(profile.closer[dropped]), len(profile.farther[dropped])
    num = up - down - 1 if len(profile.closer[agent]) == 1 else -down
    return Fraction(num, down + up - 1)


@dataclass(frozen=True)
class SwapAggregate:
    """Every aggregate the analysis uses, kept as integer numerators over one
    common denominator; the exact Fraction views are built on first read.

    common: lcm of the deg_H(v) - 1 values.
    families[(u, v)]: (numerators indexed by observer w, cost numerator) of
        the (u, v) swap family.
    observer_nums[w]: sum of the family numerators for observer w.
    total_num: sum of the cost numerators, from the distance sums of the
        deviated graphs, not from the per-observer distances.

    shifts[(w, u, v)]: average d(u, w) change for the (u, v) swap family.
    per_observer[w]: sum of shifts over all pairs.
    swap_costs[(u, v)]: average full cost difference of the family.
    total: sum of swap_costs — must equal the sum of per_observer.

    diameter: largest distance between component vertices (graph metric).
    diameter_endpoint: the first component vertex, in sorted order, whose
        eccentricity within the component is the diameter.
    """

    component: frozenset[int]
    common: int
    families: dict
    observer_nums: tuple[int, ...]
    total_num: int
    diameter: int
    diameter_endpoint: int

    @cached_property
    def shifts(self) -> dict:
        c = self.common
        return {(w, u, v): Fraction(x, c)
                for (u, v), (nums, _cost) in self.families.items()
                for w, x in enumerate(nums)}

    @cached_property
    def per_observer(self) -> dict:
        return {w: Fraction(x, self.common) for w, x in enumerate(self.observer_nums)}

    @cached_property
    def swap_costs(self) -> dict:
        return {pair: Fraction(cost, self.common)
                for pair, (_nums, cost) in self.families.items()}

    @property
    def total(self) -> Fraction:
        return Fraction(self.total_num, self.common)

    @property
    def observer_total(self) -> Fraction:
        return Fraction(sum(self.observer_nums), self.common)


def aggregate_swaps(g: Graph, component) -> SwapAggregate:
    """Brute-force aggregation over every swap family of the component.

    Each deviated graph is built explicitly; per-observer shifts come from
    distance vectors and the grand total from independently computed
    distance sums, so the accounting identity is a real cross-check.  The
    distance vectors from the component's vertices also give its diameter.
    """
    comp = _validate_tecc(g, component)
    members = sorted(comp)
    nbrs = {u: _h_neighbors(g, comp, u) for u in members}
    if any(len(nbrs[u]) == 1 for u in members):
        raise ComponentError("component vertices must not have degree 1 inside it")
    common = lcm(*(len(nbrs[u]) - 1 for u in members if nbrs[u]))

    families = {}
    obs = [0] * g.n
    total_num = 0
    diam, endpoint = 0, members[0]
    for agent in members:
        d0vec = kernels.bfs_dists(g.adj, agent)
        ecc = max(d0vec[v] for v in members)
        if ecc > diam:
            diam, endpoint = ecc, agent
        sum0 = kernels.sum_dist(g.adj, agent)
        for dropped in nbrs[agent]:
            targets = [v for v in nbrs[dropped] if v != agent]
            den = len(targets)
            acc = [-den * d for d in d0vec]
            cost = -den * sum0
            for vp in targets:
                rows = kernels.swapped_rows(g.adj, agent, dropped, vp)
                after = kernels.sum_dist(rows, agent)
                if after < 0:
                    raise AssertionError("swap inside a bridgeless component cannot disconnect")
                acc = list(map(add, acc, kernels.bfs_dists(rows, agent)))
                cost += after
            scale = common // den  # den divides common: numerators over common
            nums = tuple(x * scale for x in acc)
            obs = list(map(add, obs, nums))
            families[(agent, dropped)] = (nums, cost * scale)
            total_num += cost * scale

    return SwapAggregate(comp, common, families, tuple(obs), total_num, diam, endpoint)


@dataclass(frozen=True)
class RatioCase:
    """One vertex whose closer-set is a singleton, with the bounded ratio."""

    vertex: int
    via: int  # its unique closer neighbour
    ratio: Fraction
    tight: bool
    via_is_entry: bool


@dataclass(frozen=True)
class InequalityReport:
    """Numeric evaluation of the chain bounding the per-observer total.

    down_mass >= z_count lower-bounds the descending contributions;
    each ratio (and hence up_mass <= single_down_count) upper-bounds the
    ascending ones; together the per-observer total is at most
    single_down_count - z_count <= 0.
    """

    observer: int
    down_mass: Fraction
    z_count: int
    down_tight: bool
    ratio_cases: tuple[RatioCase, ...]
    up_mass: Fraction
    single_down_count: int
    up_tight: bool
    formula_total: Fraction
    observer_total: Fraction
    bound: Fraction
    final_bound_holds: bool


def check_inequalities(profile: LayerProfile, aggregate: SwapAggregate) -> InequalityReport:
    """Evaluate both sides of every inequality in the nonpositivity argument
    for the profile's observer.  aggregate must be aggregate_swaps of the
    profile's component."""
    if aggregate.component != profile.component:
        raise ComponentError("aggregate belongs to another component")
    degs = {u: len(profile.closer[u]) + len(profile.farther[u]) for u in profile.component}

    down_mass = Fraction(0)
    for v in profile.mixed:
        down_mass += Fraction(len(profile.closer[v]) * len(profile.farther[v]), degs[v] - 1)
    z_count = len(profile.mixed)

    cases = []
    up_mass = Fraction(0)
    for u in sorted(profile.component):
        if len(profile.closer[u]) != 1:
            continue
        x = next(iter(profile.closer[u]))
        ratio = Fraction(len(profile.farther[x]) - 1, degs[x] - 1)
        up_mass += ratio
        cases.append(RatioCase(u, x, ratio, ratio == 1, x == profile.entry))
    single_down_count = len(cases)

    observer_total = aggregate.per_observer[profile.observer]
    bound = Fraction(single_down_count - z_count)
    return InequalityReport(
        observer=profile.observer,
        down_mass=down_mass,
        z_count=z_count,
        down_tight=down_mass == z_count,
        ratio_cases=tuple(cases),
        up_mass=up_mass,
        single_down_count=single_down_count,
        up_tight=up_mass == single_down_count,
        formula_total=up_mass - down_mass,
        observer_total=observer_total,
        bound=bound,
        final_bound_holds=observer_total <= bound <= 0,
    )


@dataclass(frozen=True)
class StrictWitness:
    observer: int
    shift_total: Fraction  # strictly negative


def strict_witness(g: Graph, aggregate: SwapAggregate) -> StrictWitness | None:
    """An observer with strictly negative per-observer total, whenever the
    component's diameter exceeds 2 (bipartite graphs).

    aggregate is aggregate_swaps(g, component).  The observer is the
    lexicographically first endpoint of a diametral pair (it belongs to its
    own pendant world).  Returns None when the diameter is at most 2.
    """
    if kernels.bipartite_side(g.adj) < 0:
        raise NotBipartiteError("strict_witness requires a bipartite graph")
    _validate_tecc(g, aggregate.component)
    diam, endpoint = aggregate.diameter, aggregate.diameter_endpoint
    if diam <= 2:
        return None
    total = aggregate.per_observer[endpoint]
    if not total < 0:
        raise AssertionError(
            f"diameter {diam} component without a negative observer total "
            f"(observer {endpoint}, total {total}) — reportable finding"
        )
    return StrictWitness(endpoint, total)
