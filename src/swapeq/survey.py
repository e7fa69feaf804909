"""Exhaustive sweep of small connected graphs with claim verification.

Enumerates every labeled simple connected graph on n vertices (or consumes a
graph6 stream), decides the equilibrium verdict for each, and evaluates the
structural claims the theory module encodes.  Workers split the edge-mask
space into fixed chunks merged back in enumeration order, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import sys
from collections import Counter
from dataclasses import dataclass, field

from . import kernels
from .equilibrium import Deviation, EquilibriumVerdict
from .graph import Graph, GraphError, graph_from_adj
from .io import Graph6Error, ReportDocument, encode_graph6, parse_graph6
from .structure import classify, decompose
from .theory import (
    adjacent_cut_condition,
    aggregate_swaps,
    bridge_degree_condition,
    cactus_cycle_report,
    single_pendant_condition,
)

from . import __version__ as _tool_version

CLAIM_NAMES = (
    "tree_star",
    "bipartite_krs",
    "block_diam2",
    "cactus_diam2",
    "bridge_degree",
    "single_pendant",
    "adjacent_cut",
    "cycle_bounds",
    "delta_nonpos",
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"

_CHUNK_MASKS = 1 << 14
_CHUNK_LINES = 2048


class SurveyConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SurveyConfig:
    """Either n (built-in enumeration, 3..8) or graph6_lines must be set."""

    n: int | None = None
    graph6_lines: tuple[str, ...] | None = None
    claims: tuple[str, ...] = CLAIM_NAMES
    dedup: bool = False
    workers: int = 1
    keep_records: bool = True
    progress: bool = False


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
    witness_deviation: Deviation | None
    claims: dict

    def as_dict(self) -> dict:
        wit = self.witness_deviation
        return {
            "graph6": self.graph6,
            "n": self.n,
            "m": self.m,
            "connected": self.connected,
            "bipartite": self.bipartite,
            "tree": self.tree,
            "block": self.block,
            "cactus": self.cactus,
            "equilibrium": self.equilibrium,
            "diameter": self.diameter,
            "witness_deviation": "" if wit is None else f"{wit.agent}:{wit.drop}->{wit.add}",
            "claim_violations": ";".join(
                c for c in CLAIM_NAMES if self.claims.get(c) == VIOLATED
            ),
            "claims": dict(self.claims),
        }


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
        rows = [0] * self.n
        pos = self.n * (self.n - 1) // 2
        for j in range(1, self.n):
            for i in range(j):
                pos -= 1
                if self.bits >> pos & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return graph_from_adj(self.n, tuple(rows))


def _canonical_bits(g: Graph) -> int:
    """Minimum over all vertex orders of the column-major upper triangle.

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
    """
    n = g.n
    adj = g.adj
    twins = [0] * n
    for x in range(n):
        for y in range(n):
            if y != x and adj[x] & ~(1 << y) == adj[y] & ~(1 << x):
                twins[x] |= 1 << y
    width = n * (n - 1) // 2
    best = -1

    def rec(k: int, used: int, prefix: int, cols: list[int]) -> None:
        # cols[x]: adjacency of x to the k vertices placed so far
        nonlocal best
        if k == n:
            if best < 0 or prefix < best:
                best = prefix
            return
        low = min(cols[x] for x in range(n) if not used >> x & 1)
        prefix = (prefix << k) | low
        if best >= 0 and prefix > best >> (width - k * (k + 1) // 2):
            return
        tried = 0
        for x in range(n):
            if used >> x & 1 or cols[x] != low or twins[x] & tried:
                continue
            tried |= 1 << x
            rec(k + 1, used | 1 << x, prefix,
                [(c << 1) | (a >> x & 1) for c, a in zip(cols, adj)])

    rec(0, 0, 0, [0] * n)
    return best


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > 8:
        raise GraphError("canonical form search is capped at 8 vertices")
    return CanonicalForm(g.n, _canonical_bits(g))


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative (relabelled copy) of g's isomorphism class."""
    return canonical_form(g).graph()


def _delta_nonpos_result(g: Graph):
    """Check every cyclic component of a bipartite graph for nonpositive
    per-observer totals and the exact accounting identity."""
    for comp in decompose(g).tecc:
        if len(comp) < 3:
            continue
        agg = aggregate_swaps(g, comp)
        if agg.total != agg.observer_total:
            return VIOLATED, (
                f"accounting identity broken on component {sorted(comp)}: "
                f"{agg.total} != {agg.observer_total}"
            )
        for w in range(g.n):
            if agg.per_observer[w] > 0:
                return VIOLATED, (
                    f"observer {w} has positive swap total "
                    f"{agg.per_observer[w]} on component {sorted(comp)}"
                )
    return HOLDS, None


def _claim_results(g: Graph, eq: bool, bip: bool, claims) -> dict:
    """Evaluate the selected claims; values are status or (status, detail)."""
    n, m = g.n, g.m
    tree = m == n - 1
    cyclic = m >= n
    out = {}
    cls = None
    diam = None

    def full():
        nonlocal cls, diam
        if cls is None:
            cls = classify(g)
            diam = kernels.diameter(g.adj)

    for claim in claims:
        status: object = NOT_APPLICABLE
        if claim == "tree_star":
            if eq and tree:
                full()
                status = HOLDS if cls.star else (
                    VIOLATED, f"tree equilibrium with diameter {diam}")
        elif claim == "bipartite_krs":
            if eq and bip and n >= 2:
                full()
                status = HOLDS if cls.complete_bipartite else (
                    VIOLATED, "bipartite equilibrium that is not complete bipartite")
        elif claim == "block_diam2":
            if eq:
                full()
                if cls.block_graph:
                    status = HOLDS if diam <= 2 else (
                        VIOLATED, f"block-graph equilibrium with diameter {diam}")
        elif claim == "cactus_diam2":
            if eq:
                full()
                if cls.cactus:
                    status = HOLDS if diam <= 2 else (
                        VIOLATED, f"cactus equilibrium with diameter {diam}")
        elif claim == "bridge_degree":
            if eq:
                ok, bad = bridge_degree_condition(g)
                status = HOLDS if ok else (
                    VIOLATED, f"bridge {bad} with both endpoints of degree >= 2")
        elif claim == "single_pendant":
            if eq and cyclic:
                status = HOLDS if single_pendant_condition(g) else (
                    VIOLATED, "component with two nontrivial pendant worlds")
        elif claim == "adjacent_cut":
            if eq:
                status = HOLDS if adjacent_cut_condition(g) else (
                    VIOLATED, "adjacent cut vertices with two nontrivial worlds")
        elif claim == "cycle_bounds":
            if eq:
                full()
                if cls.cactus:
                    rep = cactus_cycle_report(g)
                    problems = []
                    if not rep.max_cycle_len_ok:
                        problems.append("cycle longer than 5")
                    if not rep.world_balance_ok:
                        problems.append("unbalanced worlds on a long cycle")
                    if not rep.long_cycle_count_ok:
                        problems.append("more than one long cycle")
                    status = HOLDS if not problems else (VIOLATED, "; ".join(problems))
        elif claim == "delta_nonpos":
            if bip and cyclic:
                res, detail = _delta_nonpos_result(g)
                status = res if detail is None else (res, detail)
        else:
            raise SurveyConfigError(f"unknown claim {claim!r}")
        out[claim] = status
    return out


def verify_claims(g: Graph, verdict: EquilibriumVerdict, claims=CLAIM_NAMES) -> dict:
    """Public per-graph claim evaluation; returns claim -> status string."""
    bip = kernels.bipartite_side(g.adj) >= 0
    raw = _claim_results(g, verdict.is_equilibrium, bip, claims)
    return {c: (s[0] if isinstance(s, tuple) else s) for c, s in raw.items()}


def _evaluate(g: Graph, g6: str, connected: bool, bip: bool, eq: bool, wit,
              claims, keep_records: bool):
    """Claim + record computation for one graph (already scanned)."""
    if connected:
        raw = _claim_results(g, eq, bip, claims)
    else:
        raw = {c: NOT_APPLICABLE for c in claims}
    statuses = {c: (s[0] if isinstance(s, tuple) else s) for c, s in raw.items()}
    violations = [
        {"graph6": g6, "claim": c, "detail": s[1]}
        for c, s in raw.items()
        if isinstance(s, tuple) and s[0] == VIOLATED
    ]
    record = None
    if keep_records:
        if connected:
            cls = classify(g)
            diam = kernels.diameter(g.adj)
            tree, block, cactus = cls.tree, cls.block_graph, cls.cactus
        else:
            diam = "INF"
            tree = block = cactus = False
        record = SurveyRecord(
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
            witness_deviation=None if wit is None else Deviation(wit[0], wit[1], wit[2]),
            claims=statuses,
        )
    return record, statuses, violations


def _process_chunk(task):
    """One worker unit; returns partial results in enumeration order, with
    the canonical form of each equilibrium when deduplicating."""
    kind, payload, claims, keep_records, dedup = task
    counts = {c: [0, 0, 0] for c in claims}
    violations: list = []
    records: list | None = [] if keep_records else None
    eq_forms: list = []
    graphs = equilibria = 0

    if kind == "masks":
        n, lo, hi = payload
        scanned = kernels.scan_masks(n, lo, hi)
        items = []
        for mask, bip, eq, wit in scanned:
            g = graph_from_adj(n, kernels.mask_to_adj(n, mask))
            items.append((g, encode_graph6(g), True, bip, eq, wit, None))
    else:
        items = []
        for lineno, line in payload:
            try:
                g = parse_graph6(line)
            except (Graph6Error, GraphError) as err:
                raise GraphError(f"graph6 line {lineno} ({line}): {err}") from err
            connected = kernels.is_connected(g.adj)
            bip = kernels.bipartite_side(g.adj) >= 0
            if connected:
                wit = kernels.first_improving_swap(g.adj)
                eq = wit is None
            else:
                wit, eq = None, False
            items.append((g, encode_graph6(g), connected, bip, eq, wit, lineno))

    for g, g6, connected, bip, eq, wit, lineno in items:
        graphs += 1
        if eq and connected:
            equilibria += 1
            if dedup:
                try:
                    eq_forms.append(canonical_form(g))
                except GraphError as err:
                    raise GraphError(f"graph6 line {lineno} ({g6}): {err}") from err
        record, statuses, viols = _evaluate(
            g, g6, connected, bip, eq, wit, claims, keep_records)
        for c, s in statuses.items():
            counts[c][(HOLDS, VIOLATED, NOT_APPLICABLE).index(s)] += 1
        violations.extend(viols)
        if keep_records:
            records.append(record)

    return graphs, equilibria, counts, violations, eq_forms, records


def _tasks(config: SurveyConfig):
    claims = config.claims
    if config.n is not None:
        n = config.n
        if not isinstance(n, int) or not 3 <= n <= 8:
            raise SurveyConfigError(f"survey n must be in 3..8, got {n}")
        total = 1 << (n * (n - 1) // 2)
        for lo in range(0, total, _CHUNK_MASKS):
            yield ("masks", (n, lo, min(lo + _CHUNK_MASKS, total)),
                   claims, config.keep_records, config.dedup)
    elif config.graph6_lines is not None:
        # (1-based line number, stripped line) for every non-blank line
        lines = [(k, ln.strip()) for k, ln in enumerate(config.graph6_lines, 1)
                 if ln.strip()]
        for k in range(0, len(lines), _CHUNK_LINES):
            yield ("g6", tuple(lines[k:k + _CHUNK_LINES]),
                   claims, config.keep_records, config.dedup)
    else:
        raise SurveyConfigError("survey needs either n or a graph6 stream")


def run_survey(config: SurveyConfig) -> SurveyResult:
    """Run the sweep; results are independent of the worker count."""
    for c in config.claims:
        if c not in CLAIM_NAMES:
            raise SurveyConfigError(f"unknown claim {c!r}")
    tasks = list(_tasks(config))
    total_tasks = len(tasks)

    if config.workers > 1 and total_tasks > 1:
        with multiprocessing.Pool(config.workers) as pool:
            partials = []
            for i, part in enumerate(pool.imap(_process_chunk, tasks)):
                partials.append(part)
                if config.progress:
                    print(f"survey: chunk {i + 1}/{total_tasks}", file=sys.stderr)
    else:
        partials = []
        for i, task in enumerate(tasks):
            partials.append(_process_chunk(task))
            if config.progress:
                print(f"survey: chunk {i + 1}/{total_tasks}", file=sys.stderr)

    summary = SurveySummary(claim_counts={c: [0, 0, 0] for c in config.claims})
    records: list | None = [] if config.keep_records else None
    classes: Counter = Counter()
    for graphs, equilibria, counts, violations, forms, recs in partials:
        summary.graphs += graphs
        summary.equilibria += equilibria
        for c in config.claims:
            for k in range(3):
                summary.claim_counts[c][k] += counts[c][k]
        summary.violations.extend(violations)
        classes.update(forms)
        if config.keep_records:
            records.extend(recs)

    if config.dedup:
        summary.equilibrium_classes = [
            {"graph6": encode_graph6(form.graph()), "count": count}
            for form, count in sorted(
                classes.items(), key=lambda kv: (kv[0].n, kv[0].bits))
        ]

    return SurveyResult(records, summary)


def survey_report(result: SurveyResult, config: SurveyConfig) -> ReportDocument:
    """Report document for write_report; echoes the config without the
    worker count so reports stay byte-identical across worker settings."""
    payload = {
        "tool_version": _tool_version,
        "config": {
            "source": "enumeration" if config.n is not None else "graph6",
            "n": config.n,
            "claims": list(config.claims),
            "dedup": config.dedup,
        },
        "records": [r.as_dict() for r in (result.records or [])],
        "summary": result.summary.as_dict(),
    }
    return ReportDocument(schema_version="1", payload=payload)
