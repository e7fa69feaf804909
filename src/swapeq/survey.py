"""Exhaustive sweep of small connected graphs with claim verification.

Enumerates every labeled simple connected graph on n vertices (or consumes a
graph6 stream), decides the equilibrium verdict for each, and evaluates the
paper's claims, each one row of _CLAIMS.  Work is split into tasks that
one loop, _process_chunk, runs; workers take the tasks, and their results
are merged back in enumeration order, so reports are byte-identical for any
worker count.

Records and graph6 streams are checked graph by graph, in edge-mask chunks
or line chunks.  A summary-only enumeration (n set, keep_records False) is
one task over isomorphism classes instead: the verdict and every claim are
invariant under relabelling, so it checks one graph per class and weights
every count by the class's n!/|Aut| labeled copies.  Its summary is the
labeled one, violations included.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import os
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import kernels
from .equilibrium import EquilibriumVerdict
from .graph import Graph, GraphError, graph_from_adj
from .io import Graph6Error, encode_graph6, parse_graph6
from .structure import block_vertices, classify, decompose, pendant_world
from .theory import aggregate_swaps

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"
_SLOT = {HOLDS: 0, VIOLATED: 1, NOT_APPLICABLE: 2}  # index into a claim's counts


class _Facts:
    """What the claims read about one graph.  The classification and the
    diameter are computed on first use, at most once per graph, and the
    record reuses them."""

    def __init__(self, g: Graph, connected: bool, eq: bool, bip: bool):
        self.g = g
        self.connected = connected
        self.eq = eq
        self.bip = bip
        m = g.m
        self.tree = m == g.n - 1
        self.cyclic = m >= g.n

    @cached_property
    def cls(self):
        return classify(self.g)

    @cached_property
    def diam(self) -> int:
        return kernels.diameter(self.g.adj)


def _bridge_degree(f: _Facts):
    """Every bridge has a degree-1 endpoint."""
    g = f.g
    for a, b in decompose(g).bridges:
        if g.degree(a) != 1 and g.degree(b) != 1:
            return f"bridge {(a, b)} with both endpoints of degree >= 2"
    return None


def _single_pendant(f: _Facts):
    """Every 2-edge-connected component carries at most one nontrivial world."""
    g = f.g
    for comp in decompose(g).tecc:
        # W(u) is nontrivial exactly when u has a neighbour outside comp
        outside = ~sum(1 << v for v in comp)
        if sum(1 for u in comp if g.adj[u] & outside) > 1:
            return "component with two nontrivial pendant worlds"
    return None


def _adjacent_cut(f: _Facts):
    """No edge joins two cut vertices.

    The claim reads "for adjacent cut vertices a, b of a block B, W(a) or
    W(b) relative to B is trivial".  Two blocks share at most one vertex,
    and a vertex in two blocks is a cut vertex (Diestel, Graph Theory,
    §3.1), so a vertex of B has a neighbour outside B, and hence a
    nontrivial world, exactly when it is a cut vertex.  Every edge lies in
    exactly one block, so the claim is one AND per cut vertex against the
    mask of all cut vertices."""
    cuts = decompose(f.g).cut_vertices
    cut_mask = sum(1 << v for v in cuts)
    if any(f.g.adj[a] & cut_mask for a in cuts):
        return "adjacent cut vertices with two nontrivial worlds"
    return None


def _cycle_bounds(f: _Facts):
    """Every cycle of a cactus has length <= 5, 4- and 5-cycles carry
    equal-size worlds, and at most one cycle is longer than a triangle."""
    g = f.g
    cycles = [block_vertices(b) for b in decompose(g).bcc if len(b) >= 3]
    problems = []
    if any(len(c) > 5 for c in cycles):
        problems.append("cycle longer than 5")
    sizes = [{len(pendant_world(g, c, u)) for u in c} for c in cycles if len(c) in (4, 5)]
    if any(len(s) > 1 for s in sizes):
        problems.append("unbalanced worlds on a long cycle")
    if sum(1 for c in cycles if len(c) > 3) > 1:
        problems.append("more than one long cycle")
    return "; ".join(problems) or None


def _delta_nonpos(f: _Facts):
    """Nonpositive per-observer totals and the exact accounting identity on
    every cyclic component of a bipartite graph."""
    g = f.g
    for comp in decompose(g).tecc:
        if len(comp) < 3:
            continue
        agg = aggregate_swaps(g, comp)
        # integer numerators over agg.common; Fractions only for a message
        if agg.total_num != sum(agg.observer_nums):
            return (f"accounting identity broken on component {sorted(comp)}: "
                    f"{agg.total} != {agg.observer_total}")
        for w, num in enumerate(agg.observer_nums):
            if num > 0:
                return (f"observer {w} has positive swap total "
                        f"{Fraction(num, agg.common)} on component {sorted(comp)}")
    return None


# claim -> (applies(facts), detail(facts)): detail is None when the claim
# holds, else the violation's description.  Order is the report order.
_CLAIMS = {
    "tree_star": (
        lambda f: f.eq and f.tree,
        lambda f: None if f.cls.star else f"tree equilibrium with diameter {f.diam}"),
    "bipartite_krs": (
        lambda f: f.eq and f.bip and f.g.n >= 2,
        lambda f: None if f.cls.complete_bipartite
        else "bipartite equilibrium that is not complete bipartite"),
    "block_diam2": (
        lambda f: f.eq and f.cls.block_graph,
        lambda f: None if f.diam <= 2 else f"block-graph equilibrium with diameter {f.diam}"),
    "cactus_diam2": (
        lambda f: f.eq and f.cls.cactus,
        lambda f: None if f.diam <= 2 else f"cactus equilibrium with diameter {f.diam}"),
    "bridge_degree": (lambda f: f.eq, _bridge_degree),
    "single_pendant": (lambda f: f.eq and f.cyclic, _single_pendant),
    "adjacent_cut": (lambda f: f.eq, _adjacent_cut),
    "cycle_bounds": (lambda f: f.eq and f.cls.cactus, _cycle_bounds),
    "delta_nonpos": (lambda f: f.bip and f.cyclic, _delta_nonpos),
}

CLAIM_NAMES = tuple(_CLAIMS)

_CHUNK_MASKS = 1 << 14
_CHUNK_LINES = 2048


class SurveyConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SurveyConfig:
    """Exactly one of n (built-in enumeration, 3..8) and graph6_lines is set.
    A config checks itself when it is made: SurveyConfigError otherwise."""

    n: int | None = None
    graph6_lines: tuple[str, ...] | None = None
    claims: tuple[str, ...] = CLAIM_NAMES
    dedup: bool = False
    workers: int = 1
    keep_records: bool = True
    progress: bool = False

    def __post_init__(self):
        for k, c in enumerate(self.claims):
            if c not in _CLAIMS:
                raise SurveyConfigError(
                    f"unknown claim {c!r}; known: {', '.join(CLAIM_NAMES)}")
            if c in self.claims[:k]:
                raise SurveyConfigError(f"duplicate claim {c!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise SurveyConfigError(
                f"workers must be an int, got {type(self.workers).__name__}")
        if self.workers < 1:
            raise SurveyConfigError(f"workers must be >= 1, got {self.workers}")
        if isinstance(self.graph6_lines, str) \
                or not isinstance(self.graph6_lines, (Sequence, type(None))):
            raise SurveyConfigError(f"graph6_lines must be a sequence of lines, "
                                    f"got {type(self.graph6_lines).__name__}")
        if self.n is not None and self.graph6_lines is not None:
            raise SurveyConfigError("survey takes either n or a graph6 stream, not both")
        if self.n is None and self.graph6_lines is None:
            raise SurveyConfigError("survey needs either n or a graph6 stream")
        if self.n is not None and not (isinstance(self.n, int) and 3 <= self.n <= 8):
            raise SurveyConfigError(f"survey n must be in 3..8, got {self.n}")
        if self.n == 8 and self.keep_records:
            raise SurveyConfigError("n=8 with records would hold 251,548,592 records; "
                                    "use the summary-only survey (keep_records=False)")


@dataclass(frozen=True)
class SurveyRecord:
    graph6: str
    n: int
    m: int
    connected: bool
    bipartite: bool
    tree: bool
    block: bool
    cactus: bool
    equilibrium: bool
    diameter: object  # int, or "INF" for disconnected stream input
    witness_deviation: str  # "" or "agent:drop->add"
    claim_violations: str  # violated claims in CLAIM_NAMES order, ";"-joined
    claims: dict

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class SurveySummary:
    graphs: int = 0
    equilibria: int = 0
    claim_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    equilibrium_classes: list | None = None

    def as_dict(self) -> dict:
        out = {
            "graphs": self.graphs,
            "equilibria": self.equilibria,
            "claims": {
                name: dict(zip((HOLDS, VIOLATED, NOT_APPLICABLE), counts))
                for name, counts in self.claim_counts.items()
            },
            "violations": list(self.violations),
        }
        if self.equilibrium_classes is not None:
            out["equilibrium_classes"] = self.equilibrium_classes
        return out


@dataclass(frozen=True)
class SurveyResult:
    records: list | None
    summary: SurveySummary


def enumerate_labeled_connected(n: int):
    """Every labeled simple connected graph on 0..n-1, by ascending edge mask."""
    if not isinstance(n, int) or not 3 <= n <= 8:
        raise SurveyConfigError(f"enumeration supports 3 <= n <= 8, got {n}")
    for mask in range(1 << (n * (n - 1) // 2)):
        adj = kernels.mask_to_adj(n, mask)
        if kernels.is_connected(adj):
            yield graph_from_adj(n, adj)


@dataclass(frozen=True)
class CanonicalForm:
    """Minimal column-major upper-triangle bit string over all relabellings;
    equal forms characterise isomorphism."""

    n: int
    bits: int

    def graph(self) -> Graph:
        """The class representative whose upper triangle these bits spell."""
        return graph_from_adj(self.n, kernels.triangle_rows(self.n, self.bits))


def _canonical_bits(adj) -> tuple[int, int, list]:
    """(bits, aut, gens): the minimum over all vertex orders of the
    column-major upper triangle of adjacency rows, the number of orders that
    reach it, and permutations that generate the automorphism group.

    Column k holds the adjacency of the k-th vertex placed to the vertices
    placed before it, the first of them as the high bit.  Columns have fixed
    widths, so bit strings compare as their column lists do.  Three cuts
    keep the minimum exact:

    - a node branches only on the unused vertices whose column is the
      smallest there, because a larger column makes every completion larger;
    - a node whose prefix already exceeds the best string's prefix is cut;
    - twins, x and y with N(x) - y == N(y) - x, are swapped by an
      automorphism that fixes every vertex placed so far, so a node branches
      on only one unused member of each twin class.

    The orders that reach the minimum form one coset of the automorphism
    group, so aut is |Aut|.  None of them is cut, and a twin branch not
    taken reaches as many as the branch of its tried twin, so each branch
    counts once per unused member of its twin class.

    gens act on the canonical labelling, where vertex i is the i-th vertex
    of the first order that reached the minimum, so each one maps
    triangle_rows(n, bits) onto itself.  They are:

    - for each twin class, the transpositions of its least member with each
      other member;
    - for each other order that reaches the minimum, its quotient against
      the first one.

    Together they generate Aut: an order that reaches the minimum and is
    not reached is a reached one with unused twins swapped at the nodes
    where a twin branch was skipped, and each such swap is an automorphism.
    """
    n = len(adj)
    twins = [0] * n
    for x in range(n):
        for y in range(n):
            if y != x and adj[x] & ~(1 << y) == adj[y] & ~(1 << x):
                twins[x] |= 1 << y
    width = n * (n - 1) // 2
    best = -1
    aut = 0
    order = [0] * n  # order[i]: the i-th vertex placed on the current path
    leaves: list = []  # the orders that reached best, the first one first

    def rec(k: int, free: int, prefix: int, rest: list, orders: int) -> None:
        # rest: (column, x) for each unused x, the column its adjacency to
        # the k vertices placed so far; free: the unused vertices as a mask;
        # orders: the vertex orders this node stands for
        nonlocal best, aut, leaves
        if not rest:
            if best < 0 or prefix < best:
                best, aut, leaves = prefix, orders, [order[:]]
            elif prefix == best:
                aut += orders
                leaves.append(order[:])
            return
        low = min(rest)[0]
        prefix = (prefix << k) | low
        if best >= 0 and prefix > best >> (width - k * (k + 1) // 2):
            return
        tried = 0
        for c, x in rest:
            if c != low or twins[x] & tried:
                continue
            tried |= 1 << x
            row = adj[x]
            order[k] = x
            rec(k + 1, free & ~(1 << x), prefix,
                [(d << 1 | row >> y & 1, y) for d, y in rest if y != x],
                orders * (1 + (twins[x] & free).bit_count()))

    rec(0, (1 << n) - 1, 0, [(0, x) for x in range(n)], 1)
    pos = [0] * n  # canonical label of each vertex
    for i, x in enumerate(leaves[0]):
        pos[x] = i
    gens = [tuple(pos[x] for x in leaf) for leaf in leaves[1:]]
    for x, tw in enumerate(twins):
        y = (tw & -tw).bit_length() - 1
        if 0 <= y < x:  # y is the least of x's twin class
            swap = list(range(n))
            swap[pos[x]], swap[pos[y]] = pos[y], pos[x]
            gens.append(tuple(swap))
    return best, aut, gens


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > 8:
        raise GraphError("canonical form search is capped at 8 vertices")
    return CanonicalForm(g.n, _canonical_bits(g.adj)[0])


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative (relabelled copy) of g's isomorphism class."""
    return canonical_form(g).graph()


def _orbit_minima(m: int, gens) -> list:
    """The subsets of range(m), as masks, that are the least of their orbit
    under the group that the permutations gens generate; one flood over all
    2^m subsets."""
    size = 1 << m
    images = []  # images[i][s]: the image of subset s under gens[i]
    for perm in gens:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    minima = []
    for s in range(size):
        if seen[s]:
            continue
        # every smaller subset's orbit is flooded, so s is its orbit's least
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for image in images:
                u = image[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return minima


def _neighbour_degrees(row: int, deg: list) -> list:
    """The degrees of row's vertices, ascending."""
    return sorted(d for v, d in enumerate(deg) if row >> v & 1)


def _graph_classes(n: int, progress: bool = False) -> dict:
    """Canonical bits -> |Aut| for every graph on n vertices up to isomorphism.

    Level k extends each class P on k - 1 vertices by a new vertex v,
    joined to a set S of P's vertices, and searches the child only if:

    - S is the least of its orbit under Aut(P), read off the generators
      that P's canonical search returned;
    - v is of minimum degree in the child;
    - no other vertex of minimum degree has a larger sorted tuple of
      neighbour degrees than v.

    Every class is still reached.  In a graph G on k vertices, take a vertex
    u of minimum degree whose neighbour degree tuple is the largest among
    them.  G - u is isomorphic to some P, so an isomorphism sends G to P + S
    for some S, and u to v.  Some a in Aut(P) sends S to the least S' of its
    orbit, and a, extended by v -> v, sends P + S to P + S'.  Degrees and
    degree tuples are invariant under isomorphism, so v passes both degree
    tests in P + S'.  This needs only that every generator is an
    automorphism; that they generate all of Aut(P) keeps the candidates
    few.  Canonical bits merge the repeats that remain (canonical
    augmentation; McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998).  Each level's generators are dropped once the
    next level is built.  The survey's n <= 8 keeps the canonical search
    within its cap.
    """
    level = {0: (1, [])}  # the one graph on a single vertex
    for k in range(2, n + 1):
        new = 1 << (k - 1)
        found: dict = {}
        for bits, (_, gens) in level.items():
            rows = kernels.triangle_rows(k - 1, bits)
            degs = [r.bit_count() for r in rows]
            for nbrs in _orbit_minima(k - 1, gens):
                d = nbrs.bit_count()
                deg = [c + (nbrs >> v & 1) for v, c in enumerate(degs)] + [d]  # the child's
                if min(deg) < d:
                    continue
                adj = [r | new if nbrs >> v & 1 else r for v, r in enumerate(rows)]
                adj.append(nbrs)
                mine = _neighbour_degrees(nbrs, deg)
                if any(deg[u] == d and _neighbour_degrees(adj[u], deg) > mine
                       for u in range(k - 1)):
                    continue
                form, aut, child_gens = _canonical_bits(adj)
                found.setdefault(form, (aut, child_gens))
        level = found
        if progress:
            print(f"survey: level {k}/{n}, {len(level)} classes", file=sys.stderr)
    return {bits: aut for bits, (aut, _) in level.items()}


def _labeled_masks(adj) -> list[int]:
    """Row-major edge masks of every distinct relabelling of adj, ascending."""
    n = len(adj)
    masks = set()
    for perm in itertools.permutations(range(n)):
        rows = [0] * n
        for i, row in enumerate(adj):
            rows[perm[i]] = sum(1 << perm[j] for j in range(n) if row >> j & 1)
        masks.add(kernels.adj_to_mask(rows))
    return sorted(masks)


def _check(f: _Facts, claims, violations: list) -> dict:
    """claim -> status for one graph; appends (claim, detail) to violations
    for each claim that fails.  No claim applies to a disconnected graph."""
    out = {}
    for claim in claims:
        try:
            applies, detail = _CLAIMS[claim]
        except KeyError:
            raise SurveyConfigError(f"unknown claim {claim!r}") from None
        if not (f.connected and applies(f)):
            out[claim] = NOT_APPLICABLE
            continue
        why = detail(f)
        if why is None:
            out[claim] = HOLDS
        else:
            out[claim] = VIOLATED
            violations.append((claim, why))
    return out


def verify_claims(g: Graph, verdict: EquilibriumVerdict, claims=CLAIM_NAMES) -> dict:
    """Public per-graph claim evaluation; returns claim -> status string."""
    facts = _Facts(g, kernels.is_connected(g.adj), verdict.is_equilibrium,
                   kernels.bipartite_side(g.adj) >= 0)
    return _check(facts, claims, [])


def _scanned(kind, payload):
    """(graph, connected, bipartite, equilibrium, witness, position, class
    form, weight) for every graph of one task.  The position is the edge
    mask or the line number, ascending; a class is given as its canonical
    form and weighted by its n!/|Aut| labeled copies, every other graph
    has no form and weight 1."""
    if kind == "classes":
        n, progress = payload
        labelings = math.factorial(n)
        for bits, aut in _graph_classes(n, progress).items():
            adj = kernels.triangle_rows(n, bits)
            if kernels.is_connected(adj):
                bip = kernels.bipartite_side(adj) >= 0
                wit = kernels.first_improving_swap(adj)
                yield (graph_from_adj(n, adj), True, bip, wit is None, wit, None,
                       CanonicalForm(n, bits), labelings // aut)
        return
    if kind == "masks":
        n, lo, hi = payload
        for mask, bip, eq, wit in kernels.scan_masks(n, lo, hi):
            yield (graph_from_adj(n, kernels.mask_to_adj(n, mask)), True, bip, eq, wit, mask,
                   None, 1)
        return
    for lineno, line in payload:
        try:
            g = parse_graph6(line)
        except (Graph6Error, GraphError) as err:
            raise GraphError(f"graph6 line {lineno} ({line}): {err}") from err
        connected = kernels.is_connected(g.adj)
        bip = kernels.bipartite_side(g.adj) >= 0
        wit = kernels.first_improving_swap(g.adj) if connected else None
        yield g, connected, bip, connected and wit is None, wit, lineno, None, 1


def _process_chunk(task):
    """One worker unit; returns partial results in enumeration order, with
    the canonical form of each equilibrium counted when deduplicating.
    graph6 is encoded only for a kept record or a reported violation.

    A class that violates a claim is checked again on each labeled copy,
    and every violation is reported at its graph's position, so a class
    task reports violations as the labeled enumeration does."""
    kind, payload, claims, keep_records, dedup = task
    counts = {c: [0, 0, 0] for c in claims}
    flagged: list = []  # (position, graph6, (claim, detail)s) of each violator
    records: list | None = [] if keep_records else None
    eq_forms: Counter = Counter()
    graphs = equilibria = 0

    for g, connected, bip, eq, wit, position, form, weight in _scanned(kind, payload):
        graphs += weight
        if eq:
            equilibria += weight
            if dedup:
                try:
                    eq_forms[form or canonical_form(g)] += weight
                except GraphError as err:
                    raise GraphError(
                        f"graph6 line {position} ({encode_graph6(g)}): {err}") from err
        found: list = []
        facts = _Facts(g, connected, eq, bip)
        statuses = _check(facts, claims, found)
        if found and form is not None:
            for mask in _labeled_masks(g.adj):
                copy = graph_from_adj(g.n, kernels.mask_to_adj(g.n, mask))
                found = []
                for c, s in _check(_Facts(copy, True, eq, bip), claims, found).items():
                    counts[c][_SLOT[s]] += 1
                if found:
                    flagged.append((mask, encode_graph6(copy), found))
            continue
        for c, s in statuses.items():
            counts[c][_SLOT[s]] += weight
        g6 = encode_graph6(g) if keep_records or found else None
        if found:
            flagged.append((position, g6, found))
        if keep_records:
            if connected:
                cls = facts.cls
                tree, block, cactus, diam = cls.tree, cls.block_graph, cls.cactus, facts.diam
            else:
                tree = block = cactus = False
                diam = "INF"
            records.append(SurveyRecord(
                graph6=g6,
                n=g.n,
                m=g.m,
                connected=connected,
                bipartite=bip,
                tree=tree,
                block=block,
                cactus=cactus,
                equilibrium=eq,
                diameter=diam,
                witness_deviation="" if wit is None else f"{wit[0]}:{wit[1]}->{wit[2]}",
                claim_violations=";".join(
                    c for c in CLAIM_NAMES if statuses.get(c) == VIOLATED),
                claims=statuses,
            ))

    flagged.sort(key=lambda f: f[0])
    violations = [{"graph6": g6, "claim": c, "detail": d}
                  for _, g6, found in flagged for c, d in found]
    return graphs, equilibria, counts, violations, eq_forms, records


def _tasks(config: SurveyConfig):
    n, rest = config.n, (config.claims, config.keep_records, config.dedup)
    if n is not None and not config.keep_records:
        yield ("classes", (n, config.progress), *rest)
    elif n is not None:
        total = 1 << (n * (n - 1) // 2)
        for lo in range(0, total, _CHUNK_MASKS):
            yield ("masks", (n, lo, min(lo + _CHUNK_MASKS, total)), *rest)
    else:
        # (1-based line number, stripped line) for every non-blank line
        lines = [(k, ln.strip()) for k, ln in enumerate(config.graph6_lines, 1)
                 if ln.strip()]
        for k in range(0, len(lines), _CHUNK_LINES):
            yield ("g6", tuple(lines[k:k + _CHUNK_LINES]), *rest)


def run_survey(config: SurveyConfig) -> SurveyResult:
    """Run the sweep; results are independent of the worker count."""
    tasks = list(_tasks(config))
    # never more processes than tasks or CPUs
    workers = min(config.workers, len(tasks), os.cpu_count() or 1)
    parallel = workers > 1

    summary = SurveySummary(claim_counts={c: [0, 0, 0] for c in config.claims})
    records: list | None = [] if config.keep_records else None
    classes: Counter = Counter()
    with multiprocessing.Pool(workers) if parallel else contextlib.nullcontext() as pool:
        parts = pool.imap(_process_chunk, tasks) if parallel else map(_process_chunk, tasks)
        for i, (graphs, equilibria, counts, violations, forms, recs) in enumerate(parts, 1):
            summary.graphs += graphs
            summary.equilibria += equilibria
            for c, part in counts.items():
                total = summary.claim_counts[c]
                for k in range(3):
                    total[k] += part[k]
            summary.violations.extend(violations)
            classes.update(forms)
            if config.keep_records:
                records.extend(recs)
            if config.progress:
                print(f"survey: chunk {i}/{len(tasks)}", file=sys.stderr)

    if config.dedup:
        summary.equilibrium_classes = [
            {"graph6": encode_graph6(form.graph()), "count": count}
            for form, count in sorted(
                classes.items(), key=lambda kv: (kv[0].n, kv[0].bits))
        ]

    return SurveyResult(records, summary)


def survey_report(result: SurveyResult, config: SurveyConfig) -> dict:
    """Report payload for write_report; echoes the config without the
    worker count so reports stay byte-identical across worker settings."""
    return {
        "config": {
            "source": "enumeration" if config.n is not None else "graph6",
            "n": config.n,
            "claims": list(config.claims),
            "dedup": config.dedup,
        },
        "records": [r.as_dict() for r in (result.records or [])],
        "summary": result.summary.as_dict(),
    }
