"""Command-line front end.

Subcommands: check, analyze, theory, dynamics, survey.  Exit codes: 0 on
success (check: graph is an equilibrium; survey: zero claim violations),
1 for a negative verdict, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import __version__, kernels
from .equilibrium import is_equilibrium, run_dynamics
from .graph import Graph, diameter
from .io import encode_graph6, parse_edge_list, parse_graph6, write_report
from .structure import DisconnectedError, classify, decompose, is_bipartite, pendant_world
from .survey import (
    CLAIM_NAMES,
    SurveyConfig,
    run_survey,
    survey_report,
)
from .theory import (
    aggregate_swaps,
    check_inequalities,
    closed_form_shift,
    layer_profile,
    strict_witness,
)

USAGE_ERROR = 2


class CliError(ValueError):
    """A usage or input error: run() prints ``error: <message>``, exit 2."""


def _load_graph(path: str, fmt: str | None) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    if fmt is None:
        fmt = "g6" if path.endswith(".g6") else "edges"
    try:
        if fmt == "g6":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if len(lines) > 1:
                raise ValueError(f"{len(lines)} graph6 lines, one graph expected")
            return parse_graph6(lines[0] if lines else "")
        return parse_edge_list(text)
    except ValueError as err:
        raise CliError(f"parse error in {path}: {err}") from err


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    data = write_report(payload, fmt)
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as err:
            raise CliError(f"cannot write {out}: {err}") from err
    else:
        sys.stdout.write(data.decode())
        sys.stdout.flush()


def _cmd_check(args) -> int:
    g = _load_graph(args.input, args.format)
    verdict = is_equilibrium(g)
    if verdict.is_equilibrium:
        print("equilibrium: true")
        return 0
    d, delta = verdict.witness
    print("equilibrium: false")
    print(f"witness: agent {d.agent} swaps {{{d.agent},{d.drop}}} -> "
          f"{{{d.agent},{d.add}}} (cost delta {delta})")
    return 1


def _cmd_analyze(args) -> int:
    g = _load_graph(args.input, args.format)
    payload: dict = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.m,
        "connected": kernels.is_connected(g.adj),
        "diameter": diameter(g),
    }
    bip = is_bipartite(g)
    payload["bipartite"] = bip.bipartite
    if bip.bipartite:
        payload["sides"] = bip.sides
    else:
        payload["odd_walk"] = bip.odd_walk
    if payload["connected"]:
        # tuples and frozensets serialise as lists, frozensets sorted
        dec = decompose(g)
        payload["classes"] = vars(classify(g))
        payload["bridges"] = dec.bridges
        payload["cut_vertices"] = dec.cut_vertices
        payload["two_edge_connected_components"] = dec.tecc
        payload["biconnected_components"] = dec.bcc
        payload["pendant_worlds"] = [
            {"component": t, "worlds": {str(u): pendant_world(g, t, u) for u in sorted(t)}}
            for t in dec.tecc
            if len(t) >= 3
        ]
    _emit(payload, "json", args.out)
    return 0


def _cmd_theory(args) -> int:
    g = _load_graph(args.input, args.format)
    cyclic = [t for t in decompose(g).tecc if len(t) >= 3]
    if not cyclic:
        raise CliError("no cyclic 2-edge-connected component to analyse")
    if not 0 <= args.component < len(cyclic):
        raise CliError(
            f"component index {args.component} out of range 0..{len(cyclic) - 1}")
    comp = cyclic[args.component]
    bip = kernels.bipartite_side(g.adj) >= 0

    if args.observer == "all":
        observers = list(range(g.n))
    else:
        try:
            observers = [int(args.observer)]
        except ValueError:
            raise CliError("--observer must be a vertex id or 'all'") from None
        if not 0 <= observers[0] < g.n:
            raise CliError(f"observer {observers[0]} out of range")

    agg = aggregate_swaps(g, comp)
    payload: dict = {
        "graph6": encode_graph6(g),
        "component": comp,
        "component_diameter": agg.diameter,
        "bipartite": bip,
    }
    if not bip:
        payload["warning"] = (
            "graph is not bipartite: closed-form columns and inequality "
            "reports are unavailable; simulated values are shown")

    # one layer profile per observer serves its closed-form column and its
    # inequality report
    profiles = {w: layer_profile(g, comp, w) for w in observers} if bip else {}
    pairs = sorted(agg.families)
    rows = []
    for w in observers:
        for u, v in pairs:
            row = {"observer": w, "agent": u, "dropped": v, "simulated": agg.shifts[(w, u, v)]}
            if bip:
                row["closed_form"] = closed_form_shift(profiles[w], u, v)
            rows.append(row)
    payload["shifts"] = rows
    payload["per_observer"] = {str(w): agg.per_observer[w] for w in observers}
    payload["total"] = agg.total

    if bip:
        # each report's fields in order, without its ratio cases
        payload["inequalities"] = [
            {k: v for k, v in vars(check_inequalities(profiles[w], agg)).items()
             if k != "ratio_cases"}
            for w in observers
        ]
        wit = strict_witness(g, agg)
        payload["strict_witness"] = None if wit is None else vars(wit)
    _emit(payload, "json", args.out)
    return 0


def _cmd_dynamics(args) -> int:
    if args.max_steps < 0:
        raise CliError("--max-steps must be >= 0")
    g = _load_graph(args.input, args.format)
    trace = run_dynamics(g, args.max_steps)
    for i, move in enumerate(trace.moves):
        print(f"step {i + 1}: agent {move.agent} swaps "
              f"{{{move.agent},{move.drop}}} -> {{{move.agent},{move.add}}}")
    print(f"outcome: {trace.outcome} after {len(trace.moves)} moves")
    print(f"final diameter: {diameter(trace.states[-1])}")
    return 0


def _cmd_survey(args) -> int:
    claims = CLAIM_NAMES if args.claims == "all" else tuple(
        c.strip() for c in args.claims.split(",") if c.strip())
    if not claims:
        raise CliError("--claims names no claim")
    if (args.n is None) == (args.g6 is None):
        raise CliError("survey needs exactly one of --n or --g6")
    lines = None
    if args.g6 is not None:
        try:
            lines = tuple(Path(args.g6).read_text().splitlines())
        except OSError as err:
            raise CliError(f"cannot read {args.g6}: {err}") from err
    config = SurveyConfig(
        n=args.n,
        graph6_lines=lines,
        claims=claims,
        dedup=args.dedup,
        workers=args.workers,
        progress=args.progress,
    )
    result = run_survey(config)
    _emit(survey_report(result, config), args.format, args.out)
    return 0 if not result.summary.violations else 1


@cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first run() of the process."""
    top = argparse.ArgumentParser(
        prog="swapeq",
        description="Swap-equilibrium analysis of small graphs")
    top.add_argument("--version", action="version", version=f"swapeq {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file (graph6 or edge list)")
        p.add_argument("--format", choices=("g6", "edges"), default=None,
                       help="input format (default: by extension, .g6 = graph6)")

    p = sub.add_parser("check", help="equilibrium verdict; exit 0 iff equilibrium")
    add_input(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="structural JSON report")
    add_input(p)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("theory", help="swap-cost tables for one component")
    add_input(p)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--component", type=int, default=0,
                   help="index into the cyclic components (default 0)")
    p.add_argument("--observer", default="all", help="vertex id or 'all'")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("dynamics", help="best-response dynamics trace")
    add_input(p)
    p.add_argument("--max-steps", type=int, default=1000)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("survey", help="exhaustive sweep with claim checks")
    p.add_argument("--n", type=int, default=None, help="vertex count (3..7)")
    p.add_argument("--g6", default=None, help="graph6 file, one graph per line")
    p.add_argument("--claims", default="all",
                   help="comma-separated claim list (default all)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dedup", action="store_true",
                   help="summarise equilibrium isomorphism classes")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_survey)

    return top


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except DisconnectedError:
        # check, theory and dynamics leave the connectivity test to the library
        print(f"error: {args.command} requires a connected graph", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as err:  # CliError and the library's input errors
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
