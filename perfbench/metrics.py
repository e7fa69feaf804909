"""Metric names, units and directions; BENCHMARK.json lists the same set.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the traced run (plus the untraced pool and overhead figures it needs), and
every workload emits every one of them, 0 where the layer does no work.
"""

from __future__ import annotations

import math
import statistics

CLAIMS = (
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

# name, unit, better, bound (share of the parent's median)
# Timings get the largest bound the benchmark contract allows: even after
# host-speed scaling, run medians on a shared 2-core machine spread by
# 2-10 % (quartile distance over median, 5-10 seeds).
END_TO_END = (
    ("graphs_per_s", "graphs/s", "higher", 0.25),
    ("requests_per_s", "req/s", "higher", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# spans whose self time (and, where listed, call count) is reported
TIMED_LAYERS = (
    "kernels.scan_masks",
    "kernels.mask_to_adj",
    "survey.graph_from_adj",
    "io.encode_graph6",
    "structure.classify",
    "structure.decompose",
    "kernels.diameter",
    "io.parse_graph6",
    "kernels.is_connected",
    "kernels.bipartite_side",
    "kernels.first_improving_swap",
    "survey.canonical_form",
    "survey.canonical_graph",
    "survey.survey_report",
    "io.write_report",
    "cli.check",
    "cli.dynamics",
    "cli.theory",
    "equilibrium.is_equilibrium",
    "equilibrium.run_dynamics",
    "kernels.best_swap",
    "theory.aggregate_swaps",
    "theory.check_inequalities",
    "theory.closed_form_shift",
    "theory.strict_witness",
    "io.parse_edge_list",
)
COUNTED_LAYERS = (
    "io.encode_graph6",
    "survey.canonical_form",
    "kernels.best_swap",
    "theory.aggregate_swaps",
    "theory.closed_form_shift",
)

PER_LAYER = (
    tuple((f"{name}.s", "s", "lower") for name in TIMED_LAYERS)
    + tuple((f"{name}.calls", "count", "lower") for name in COUNTED_LAYERS)
    + tuple((f"claim.{c}.s", "s", "lower") for c in CLAIMS)
    + tuple((f"claim.{c}.applicable_ratio", "ratio", "higher") for c in CLAIMS)
    + (
        ("kernels.scan_masks.connected_ratio", "ratio", "higher"),
        ("structure.decompose.hit_ratio", "ratio", "higher"),
        ("survey.classes_per_equilibrium", "ratio", "higher"),
        ("io.report_bytes", "bytes", "lower"),
        ("survey.run_survey.self_s", "s", "lower"),
        ("survey.pool.worker_cpu_s", "s", "lower"),
        ("survey.pool.efficiency", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def nearest_rank(values, q):
    """The q-quantile by nearest rank (q = 0.95: the value 95 % of the
    samples do not exceed)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def benchmark_spec() -> dict:
    """The metric part of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
