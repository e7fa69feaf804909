"""The three workloads: set-up, timed loop, output checks, traced pass.

Import this module only after ``run.pin_environment()``: it imports swapeq
and the repository's brute-force oracle (``tests/oracle.py``).
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs
import metrics
import spans
from hostspeed import HostSpeed
from metrics import median, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracle  # noqa: E402
from swapeq import cli, equilibrium, graph, io, kernels, structure, survey, theory  # noqa: E402


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the self-test shrinks them."""

    enum_n: int = 6
    stream_lines: int = 4000
    request_mix: tuple = tuple(inputs.REQUEST_MIX.items())
    setup_reps: int = 11


STREAM_WORKERS = 2
ORACLE_SAMPLE = 40  # stream records checked against the oracle in each run

TINY = Sizes(enum_n=4, stream_lines=50,
             request_mix=(("check", 6), ("dynamics", 2), ("theory", 2)),
             setup_reps=2)

# known counts for the enumeration: connected labeled graphs (OEIS A001187),
# labeled stars, labeled complete bipartite graphs K_{r,s}
EXPECTED_ENUM = {
    4: {"graphs": 38, "tree_star": 4, "bipartite_krs": 4 + 3},
    6: {"graphs": 26704, "tree_star": 6, "bipartite_krs": 6 + 15 + 10},
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    workdir: Path
    expected: dict = field(default_factory=dict)
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> value (units in metrics.UNITS)
    info: dict = field(default_factory=dict)  # samples, digests, sizes
    tracer: spans.Tracer | None = None
    host: HostSpeed = field(default_factory=HostSpeed)

    def op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def check(self, op: int, ok: bool, message: str) -> bool:
        if not ok:
            self.failed_ops.add(op)
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok


def fresh_import() -> None:
    """Start a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SWAPEQ_PURE="1")
    subprocess.run([sys.executable, "-c", "import swapeq.cli, swapeq.survey"], env=env,
                   cwd=ROOT, check=True, timeout=120)


def timed_setup(run: Run, build):
    """Median over sizes.setup_reps of: a fresh interpreter importing the
    package, plus build() (input generation and writing), at the reference
    host speed.  Returns build()'s last result."""
    times, raw = [], []
    with run.host:
        for _ in range(run.sizes.setup_reps):
            mark = run.host.mark()
            fresh_import()
            built = build()
            raw.append(run.host.elapsed(mark))
            times.append(raw[-1] * run.host.scale(mark))
    run.metrics["setup_s"] = median(times)
    run.info.setdefault("raw", {})["setup_s"] = median(raw)
    return built


def rusage_children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- survey workloads ---------------------------------------------------------

@dataclass
class Pass:
    wall: float  # as measured
    graphs: int
    worker_cpu: float
    result: object
    report: bytes | None
    scale: float = 1.0  # host-speed factor (hostspeed.py)


def survey_pass(run: Run, config, write: bool) -> Pass:
    c0 = rusage_children_cpu()
    with run.host:
        mark = run.host.mark()
        result = survey.run_survey(config)
        report = io.write_report(survey.survey_report(result, config), "json") if write else None
        wall = run.host.elapsed(mark)
        scale = run.host.scale(mark)
    return Pass(wall, result.summary.graphs, rusage_children_cpu() - c0, result, report, scale)


def timed_survey(run: Run, config, write: bool, check) -> list:
    """Whole passes until run.seconds have elapsed; check(op, pass) runs
    outside each pass's timing."""
    passes = []
    t_start = perf_counter()
    while True:
        op = run.op()
        try:
            p = survey_pass(run, config, write)
        except Exception as err:  # a failed pass is counted, the run goes on
            run.check(op, False, f"pass raised {err!r}")
        else:
            check(op, p)
            p.result = p.report = None  # so memory does not grow with the pass count
            passes.append(p)
        if perf_counter() - t_start >= run.seconds:
            break
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    for out, scaled in ((run.info.setdefault("raw", {}), False), (run.metrics, True)):
        walls = [p.wall * (p.scale if scaled else 1) for p in passes] or [float("nan")]
        out["graphs_per_s"] = median([p.graphs / w for p, w in zip(passes, walls)])
        out["requests_per_s"] = median([1 / w for w in walls])
        out["request_p50_ms"] = 1000 * median(walls)
        out["request_p95_ms"] = 1000 * nearest_rank(walls, 0.95)
    workers = config.workers if config.workers > 1 else 0
    if workers and passes:
        run.metrics["survey.pool.worker_cpu_s"] = median([p.worker_cpu * p.scale for p in passes])
        run.metrics["survey.pool.efficiency"] = median(
            [p.worker_cpu / (p.wall * workers) for p in passes])
    run.info["latency_samples"] = len(passes)
    run.info["pass_ms"] = [round(1000 * p.wall, 1) for p in passes]
    run.info["pass_scale"] = [round(p.scale, 3) for p in passes]
    return passes


@contextlib.contextmanager
def decompose_hits(run: Run):
    """Sets structure.decompose.hit_ratio for the calls made inside; starts
    from the empty cache a fresh process would see."""
    structure.decompose.cache_clear()
    yield
    info = structure.decompose.cache_info()
    calls = info.hits + info.misses
    run.metrics["structure.decompose.hit_ratio"] = info.hits / calls if calls else 0.0


def traced_pass(run: Run, config, write: bool) -> Pass:
    """One 1-worker pass in this process with every measured function wrapped."""
    run.tracer.request_id += 1
    with decompose_hits(run), spans.installed(run.tracer, span_specs()):
        return survey_pass(run, config, write)


def replay_claims(run: Run, graphs_and_verdicts, claims) -> None:
    """Per-claim time and applicability: survey.verify_claims for one claim
    at a time on every graph, claims in configured order per graph (so the
    decompose cache behaves as in the pass).  Each claim's time is net of
    verify_claims with no claims, which costs the bipartiteness test."""
    spent = dict.fromkeys(claims, 0.0)
    applicable = dict.fromkeys(claims, 0)
    for g, verdict in graphs_and_verdicts:
        t0 = perf_counter()
        survey.verify_claims(g, verdict, ())
        base = perf_counter() - t0
        for c in claims:
            t0 = perf_counter()
            status = survey.verify_claims(g, verdict, (c,))[c]
            spent[c] += perf_counter() - t0 - base
            applicable[c] += status != survey.NOT_APPLICABLE
    total = len(graphs_and_verdicts)
    for c in claims:
        run.metrics[f"claim.{c}.s"] = max(spent[c], 0.0)
        run.metrics[f"claim.{c}.applicable_ratio"] = applicable[c] / total if total else 0.0


def run_enum(run: Run) -> None:
    n = run.sizes.enum_n
    expected = {**EXPECTED_ENUM[n], **run.expected}
    claims = timed_setup(run, lambda: inputs.claim_order(run.seed, metrics.CLAIMS))
    run.info["input_digest"] = inputs.digest([n, claims])
    config = survey.SurveyConfig(n=n, claims=claims, keep_records=False, workers=1)
    survey.run_survey(survey.SurveyConfig(n=3, claims=claims, keep_records=False))
    op = run.op()
    run.check(op, tuple(survey.CLAIM_NAMES) == metrics.CLAIMS,
              "survey.CLAIM_NAMES differs from the claims this benchmark reports")

    first = {}

    def check(op, p):
        s = p.result.summary
        run.check(op, s.graphs == expected["graphs"], f"graphs {s.graphs} != {expected['graphs']}")
        run.check(op, s.violations == [], f"{len(s.violations)} claim violations")
        for c in ("tree_star", "bipartite_krs"):
            run.check(op, s.claim_counts[c][0] == expected[c],
                      f"{c} holds {s.claim_counts[c][0]} != {expected[c]}")
        first.setdefault("summary", s.as_dict())
        run.check(op, s.as_dict() == first["summary"], "summary differs between passes")

    passes = timed_survey(run, config, False, check)
    if not run.trace:
        return
    p = traced_pass(run, config, False)
    op = run.op()
    run.check(op, p.result.summary.as_dict() == first.get("summary"),
              "traced summary differs from the untraced one")
    if passes:
        run.metrics["trace.overhead_ratio"] = (
            p.wall * p.scale / median([q.wall * q.scale for q in passes]) - 1)
    total = 1 << (n * (n - 1) // 2)
    pairs = []
    for mask, _bip, eq, _wit in kernels.scan_masks(n, 0, total):
        g = graph.graph_from_adj(n, kernels.mask_to_adj(n, mask))
        pairs.append((g, equilibrium.EquilibriumVerdict(eq, None, {})))
    replay_claims(run, pairs, claims)


def run_stream(run: Run) -> None:
    lines = timed_setup(run, lambda: inputs.stream_lines(run.seed, run.sizes.stream_lines))
    run.info["input_digest"] = inputs.digest(lines)
    config = survey.SurveyConfig(graph6_lines=tuple(lines), dedup=True, keep_records=True,
                                 workers=STREAM_WORKERS)
    survey.run_survey(replace(config, graph6_lines=tuple(lines[:20]), workers=1))
    first = {}

    def check(op, p):
        first.setdefault("report", p.report)
        first.setdefault("op", op)
        run.check(op, p.report == first["report"], "report differs between passes")

    timed_survey(run, config, True, check)
    if "report" in first:
        checked(run, first["op"], "report", check_stream_report, run, first["op"], lines,
                first["report"])
    run.info["report_digest"] = inputs.digest([first.get("report")])
    if not run.trace:
        return
    serial = replace(config, workers=1)
    op = run.op()
    base = survey_pass(run, serial, True)
    run.check(op, base.report == first.get("report"),
              "1-worker report differs from the multi-worker report")
    p = traced_pass(run, serial, True)
    op = run.op()
    run.check(op, p.report == first.get("report"),
              "traced 1-worker report differs from the untraced multi-worker report")
    run.metrics["trace.overhead_ratio"] = p.wall * p.scale / (base.wall * base.scale) - 1
    s = p.result.summary
    run.metrics["survey.classes_per_equilibrium"] = (
        len(s.equilibrium_classes) / s.equilibria if s.equilibria else 0.0)
    pairs = [(io.parse_graph6(r.graph6), equilibrium.EquilibriumVerdict(r.equilibrium, None, {}))
             for r in p.result.records if r.connected]
    replay_claims(run, pairs, config.claims)
    run.info["graphs"] = s.graphs
    run.info["equilibria"] = s.equilibria
    run.info["equilibrium_classes"] = len(s.equilibrium_classes)
    run.info["disconnected"] = sum(not r.connected for r in p.result.records)


def check_stream_report(run: Run, op: int, lines, report: bytes) -> None:
    """Report consistency plus a seeded sample of verdicts and witnesses
    against the brute-force oracle."""
    doc = json.loads(report)
    summary, records = doc["summary"], doc["records"]
    run.check(op, summary["graphs"] == len(lines) == len(records), "graph count mismatch")
    run.check(op, summary["violations"] == [], f"{len(summary['violations'])} claim violations")
    run.check(op, sum(c["count"] for c in summary["equilibrium_classes"]) == summary["equilibria"],
              "class counts do not add up to the equilibria")
    run.check(op, [r["graph6"] for r in records] == list(lines),
              "record graph6 strings differ from the input lines")
    rng = random.Random(run.seed)
    for k in rng.sample(range(len(lines)), min(ORACLE_SAMPLE, len(lines))):
        rec = records[k]
        n, edges = inputs.graph6_edges(lines[k])
        if not oracle.is_connected(n, edges):
            run.check(op, not rec["connected"] and not rec["equilibrium"],
                      f"line {k}: disconnected graph reported connected")
            continue
        verdict, _ = oracle.equilibrium(n, edges)
        run.check(op, rec["equilibrium"] == verdict, f"line {k}: verdict differs from the oracle")
        if rec["witness_deviation"]:
            u, v, vp = map(int, re.split(r"[:>-]+", rec["witness_deviation"]))
            delta = oracle.deviation_delta(n, edges, u, v, vp)
            run.check(op, delta is not None and delta < 0,
                      f"line {k}: witness {rec['witness_deviation']} does not improve")


def checked(run: Run, op: int, what: str, check, *args) -> None:
    """Run an output check; output it cannot even parse fails the op."""
    try:
        check(*args)
    except Exception as err:  # malformed output is a failed check, not the end of the run
        run.check(op, False, f"{what}: malformed output ({err!r})")


# -- single-graph requests ----------------------------------------------------

def call_cli(argv):
    """(exit code, stdout) of one in-process CLI call; (None, error) if it
    raised, which the checks count as a failed request."""
    out, err = stdio.StringIO(), stdio.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # a request that raises is a failure, not the end of the run
        return None, repr(exc)
    return code, out.getvalue()


MIN_PASSES = 3
CALIBRATE_EVERY = 25


def run_single(run: Run) -> None:
    reqdir = run.workdir / "requests"
    reqdir.mkdir(parents=True, exist_ok=True)

    def build():
        reqs = inputs.requests(run.seed, dict(run.sizes.request_mix))
        paths = []
        for k, r in enumerate(reqs):
            path = reqdir / f"{k:04d}.edges"
            path.write_text(inputs.edge_list(r.n, r.edges))
            paths.append(str(path))
        return reqs, paths

    reqs, paths = timed_setup(run, build)
    run.info["input_digest"] = inputs.digest(reqs)
    argvs = [r.argv(p) for r, p in zip(reqs, paths)]
    for command in ("check", "dynamics", "theory"):
        k = next(i for i, r in enumerate(reqs) if r.command == command)
        call_cli(argvs[k])

    # Whole passes over the list, at least MIN_PASSES of them.  A request's
    # latency is its median over the passes, so a slow spell of the host
    # during one pass does not move it; a block of CALIBRATE_EVERY requests
    # shares one host-speed scale.
    outputs = {}  # request index -> (exit code, stdout) of its first run
    ops = {}
    raw = [[] for _ in reqs]
    lat = [[] for _ in reqs]
    passes = 0
    t_start = perf_counter()
    with run.host:
        while passes < MIN_PASSES or perf_counter() - t_start < run.seconds:
            for lo in range(0, len(argvs), CALIBRATE_EVERY):
                block = range(lo, min(lo + CALIBRATE_EVERY, len(argvs)))
                block_mark = run.host.mark()
                for k in block:
                    op = run.op()
                    mark = run.host.mark()
                    got = call_cli(argvs[k])
                    raw[k].append(run.host.elapsed(mark))
                    if k in outputs:
                        run.check(op, got == outputs[k],
                                  f"request {k}: output differs from its first run")
                    else:
                        outputs[k], ops[k] = got, op
                scale = run.host.scale(block_mark)
                for k in block:
                    lat[k].append(raw[k][-1] * scale)
            passes += 1
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    for out, samples in ((run.info.setdefault("raw", {}), raw), (run.metrics, lat)):
        typical = [median(x) for x in samples]
        out["requests_per_s"] = out["graphs_per_s"] = len(reqs) / sum(typical)
        out["request_p50_ms"] = 1000 * median(typical)
        out["request_p95_ms"] = 1000 * nearest_rank(typical, 0.95)
    run.info["latency_samples"] = len(reqs)
    typical = [median(x) for x in lat]
    run.info["command_share"] = {
        c: sum(t for t, r in zip(typical, reqs) if r.command == c) / sum(typical)
        for c in inputs.REQUEST_MIX}
    run.info["passes"] = passes
    run.info["pass_s"] = [round(sum(x[i] for x in raw), 3) for i in range(passes)]
    run.info["outcomes"] = {}
    t0 = perf_counter()
    for k, r in enumerate(reqs):
        checked(run, ops[k], f"request {k}", check_request, run, ops[k], k, r, *outputs[k])
    run.info["verify_s"] = perf_counter() - t0

    if not run.trace:
        return
    tracer = run.tracer
    with decompose_hits(run), run.host, spans.installed(tracer, span_specs()):
        mark = run.host.mark()
        for k, argv in enumerate(argvs):
            tracer.request_id = k + 1
            op = run.op()
            got = call_cli(argv)
            run.check(op, got == outputs[k], f"request {k}: traced output differs")
        traced_wall = run.host.elapsed(mark) * run.host.scale(mark)
    run.metrics["trace.overhead_ratio"] = traced_wall / sum(median(x) for x in lat) - 1


_WITNESS = re.compile(r"witness: agent (\d+) swaps \{\d+,(\d+)\} -> \{\d+,(\d+)\} "
                      r"\(cost delta (-?\d+)\)")
_MOVE = re.compile(r"step \d+: agent (\d+) swaps \{\d+,(\d+)\} -> \{\d+,(\d+)\}")


def check_request(run: Run, op: int, k: int, req, code, out: str) -> None:
    """Exit code and output of one request against the brute-force oracle,
    on every request."""
    tag = f"request {k} ({req.command})"
    edges = [tuple(e) for e in req.edges]
    seen = run.info["outcomes"].setdefault(req.command, {})
    if req.command == "check":
        seen[str(code)] = seen.get(str(code), 0) + 1
        if not run.check(op, code in (0, 1), f"{tag}: exit code {code}"):
            return
        run.check(op, out.startswith(f"equilibrium: {'true' if code == 0 else 'false'}"),
                  f"{tag}: output does not match exit code")
        witness = None
        if code == 1:
            m = _WITNESS.search(out)
            if run.check(op, m is not None, f"{tag}: no witness line"):
                witness = tuple(map(int, m.groups()))
                u, v, vp, delta = witness
                run.check(op, oracle.deviation_delta(req.n, edges, u, v, vp) == delta < 0,
                          f"{tag}: witness delta differs from the oracle")
        verdict, first = oracle.equilibrium(req.n, edges)
        run.check(op, verdict == (code == 0) and first == witness,
                  f"{tag}: verdict or first improving swap differs from the oracle")
    elif req.command == "theory":
        seen[str(code)] = seen.get(str(code), 0) + 1
        if not run.check(op, code == 0, f"{tag}: exit code {code}"):
            return
        doc = json.loads(out)
        per = [Fraction(x) for x in doc["per_observer"].values()]
        run.check(op, Fraction(doc["total"]) == sum(per), f"{tag}: total != sum of per_observer")
        run.check(op, all(i["final_bound_holds"] for i in doc["inequalities"]),
                  f"{tag}: final bound fails")
        run.check(op, doc["strict_witness"] is not None, f"{tag}: no strict witness")
    else:
        if not run.check(op, code == 0, f"{tag}: exit code {code}"):
            return
        outcome = re.search(r"outcome: (\w+) after (\d+) moves", out)
        moves = _MOVE.findall(out)
        if not run.check(op, outcome is not None and int(outcome.group(2)) == len(moves),
                         f"{tag}: malformed dynamics output"):
            return
        seen[outcome.group(1)] = seen.get(outcome.group(1), 0) + 1
        eset = {frozenset(e) for e in edges}
        for u, v, vp in ((int(a), int(b), int(c)) for a, b, c in moves):
            eset.remove(frozenset((u, v)))
            eset.add(frozenset((u, vp)))
        final = [tuple(sorted(e)) for e in eset]
        diam = re.search(r"final diameter: (\S+)", out).group(1)
        run.check(op, diam == str(oracle.diameter(req.n, final)), f"{tag}: final diameter differs")
        if outcome.group(1) == "converged":
            run.check(op, oracle.equilibrium(req.n, final)[0],
                      f"{tag}: converged to a non-equilibrium")


# -- traced functions ---------------------------------------------------------

def _count_scan(counts, args, result):
    _n, lo, hi = args
    counts["scan_masks.masks"] += hi - lo
    counts["scan_masks.connected"] += len(result)


def _count_bytes(counts, args, result):
    counts["report_bytes"] += len(result)


def span_specs():
    """(span name, defining module, attribute, counter, per-call namer)."""
    plain = [
        ("kernels.mask_to_adj", kernels, "mask_to_adj"),
        ("survey.graph_from_adj", graph, "graph_from_adj"),
        ("io.encode_graph6", io, "encode_graph6"),
        ("structure.classify", structure, "classify"),
        ("structure.decompose", structure, "decompose"),
        ("kernels.diameter", kernels, "diameter"),
        ("io.parse_graph6", io, "parse_graph6"),
        ("kernels.is_connected", kernels, "is_connected"),
        ("kernels.bipartite_side", kernels, "bipartite_side"),
        ("kernels.first_improving_swap", kernels, "first_improving_swap"),
        ("survey.canonical_form", survey, "canonical_form"),
        ("survey.canonical_graph", survey, "canonical_graph"),
        ("survey.survey_report", survey, "survey_report"),
        ("survey.run_survey", survey, "run_survey"),
        ("equilibrium.is_equilibrium", equilibrium, "is_equilibrium"),
        ("equilibrium.run_dynamics", equilibrium, "run_dynamics"),
        ("kernels.best_swap", kernels, "best_swap"),
        ("theory.aggregate_swaps", theory, "aggregate_swaps"),
        ("theory.check_inequalities", theory, "check_inequalities"),
        ("theory.closed_form_shift", theory, "closed_form_shift"),
        ("theory.strict_witness", theory, "strict_witness"),
        ("io.parse_edge_list", io, "parse_edge_list"),
    ]
    return [(name, mod, attr, None, None) for name, mod, attr in plain] + [
        ("kernels.scan_masks", kernels, "scan_masks", _count_scan, None),
        ("io.write_report", io, "write_report", _count_bytes, None),
        ("cli.run", cli, "run", None, lambda args: f"cli.{args[0][0]}"),
    ]


def layer_metrics(run: Run) -> None:
    """Self times and counts from the spans, then zeros for the layers this
    workload does not reach."""
    tracer = run.tracer
    self_s, calls = tracer.layer_times()
    for name in metrics.TIMED_LAYERS:
        run.metrics[f"{name}.s"] = self_s.get(name, 0.0)
    for name in metrics.COUNTED_LAYERS:
        run.metrics[f"{name}.calls"] = calls.get(name, 0)
    run.metrics["survey.run_survey.self_s"] = self_s.get("survey.run_survey", 0.0)
    masks = tracer.counts["scan_masks.masks"]
    run.metrics["kernels.scan_masks.connected_ratio"] = (
        tracer.counts["scan_masks.connected"] / masks if masks else 0.0)
    run.metrics["io.report_bytes"] = tracer.counts["report_bytes"]
    for name, _unit, _better in metrics.PER_LAYER:
        run.metrics.setdefault(name, 0.0)
    run.info["spans"] = len(tracer.start)


WORKLOADS = {"enum-n6": run_enum, "stream-n8-dedup": run_stream, "single-graph": run_single}


def run_workload(run: Run) -> Run:
    if run.trace:
        run.tracer = spans.Tracer(clock=run.host.clock)
    WORKLOADS[run.workload](run)
    if run.trace:
        layer_metrics(run)
    return run
