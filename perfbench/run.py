#!/usr/bin/env python3
"""swapeq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload enum-n6 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout against the pure-Python kernels
(``src`` on the path, ``SWAPEQ_PURE=1``), the configuration the tier-1
tests use.  Every metric is printed as ``metric <name> <value> <unit>``;
the last line is one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``).  Results, the configuration and,
for traced runs, the spans are also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
BACKEND = "pure-python"


class ConfigurationError(RuntimeError):
    pass


def pin_environment():
    """Put this checkout's package first on the path with the pure-Python
    kernels forced, and refuse to run anything else."""
    src = ROOT / "src"
    for need in (src / "swapeq" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not need.is_file():
            raise ConfigurationError(f"{need.relative_to(ROOT)} not found: "
                                     "run from the root of a swapeq checkout")
    os.environ["SWAPEQ_PURE"] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import swapeq

    if Path(swapeq.__file__).resolve().parent != src / "swapeq":
        raise ConfigurationError(f"imported swapeq from {swapeq.__file__}, not {src}")
    if swapeq.KERNEL_BACKEND != BACKEND:
        raise ConfigurationError(f"kernel backend is {swapeq.KERNEL_BACKEND!r}, not {BACKEND!r}")
    return swapeq


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def configuration(swapeq, run) -> dict:
    import workloads

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "backend": swapeq.KERNEL_BACKEND,
        "swapeq_version": swapeq.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "sizes": dict(vars(run.sizes), stream_workers=workloads.STREAM_WORKERS),
    }


def execute(workload, seed, seconds, trace, sizes=None, expected=None):
    """Run one workload; returns (run, configuration)."""
    swapeq = pin_environment()
    import workloads

    workdir = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    run = workloads.Run(workload, seed, seconds, trace, sizes or workloads.Sizes(),
                        workdir, dict(expected or {}))
    try:
        workloads.run_workload(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, configuration(swapeq, run)


def result_line(run, metric_specs) -> dict:
    failed = len(run.failed_ops)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": run.metrics[name], "unit": metrics.UNITS[name]}
                    for name, *_ in metric_specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("enum-n6", "stream-n8-dedup", "single-graph"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run, config = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    specs = metrics.PER_LAYER if run.trace else metrics.END_TO_END
    line = result_line(run, specs)
    print("config " + json.dumps(config, sort_keys=True))
    print("info " + json.dumps(run.info, sort_keys=True))
    printed = [n for n, *_ in metrics.END_TO_END] + ([n for n, *_ in metrics.PER_LAYER]
                                                    if run.trace else [])
    for name in printed:
        print(f"metric {name} {run.metrics[name]!r} {metrics.UNITS[name]}")
    print(f"metric failed_ratio {line['failed'] / line['attempted']!r} ratio")
    for message in run.failures:
        print(f"FAILED {message}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "config": config,
        "info": run.info,
        "metrics": {n: {"value": run.metrics[n], "unit": metrics.UNITS[n]} for n in printed},
        "attempted": line["attempted"],
        "failed": line["failed"],
        "failures": run.failures,
    }, indent=2, sort_keys=True) + "\n")
    if run.trace:
        run.tracer.write(OUT / f"{args.workload}.spans.tsv")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
