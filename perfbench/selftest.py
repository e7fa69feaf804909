#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (enumeration at n=4, a 50-line
stream, 10 requests):

- every metric named in BENCHMARK.json is emitted, with its unit, by every
  workload, and BENCHMARK.json matches metrics.py;
- the same seed gives the same input digest, another seed another one;
- on the current code every check passes, and a deliberately wrong
  expected value makes failed_ratio > 0.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import metrics
import run as bench

WORKLOADS = ("enum-n6", "stream-n8-dedup", "single-graph")


def main() -> int:
    bench.pin_environment()
    import workloads

    problems = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    own = metrics.benchmark_spec()
    expect(spec["end_to_end"] == own["end_to_end"] and spec["per_layer"] == own["per_layer"],
           "BENCHMARK.json lists the metrics metrics.py defines")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the three workloads")

    def tiny(workload, seed, trace, expected=None):
        r, _config = bench.execute(workload, seed, 0.01, trace, workloads.TINY, expected)
        return r

    for workload in WORKLOADS:
        digests = {}
        for seed, trace in ((1, False), (1, True), (2, False)):
            r = tiny(workload, seed, trace)
            digests.setdefault(seed, []).append(r.info["input_digest"])
            section = "per_layer" if trace else "end_to_end"
            line = bench.result_line(r, metrics.PER_LAYER if trace else metrics.END_TO_END)
            emitted = {n: m["unit"] for n, m in line["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            expect(emitted == wanted, f"{workload} trace={int(trace)}: every {section} "
                                      "metric emitted with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{workload} trace={int(trace)}: every value is a number")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                   f"{workload} trace={int(trace)}: all {line['attempted']} operations pass "
                   f"{r.failures}")
        expect(digests[1][0] == digests[1][1], f"{workload}: same seed, same input digest")
        expect(digests[1][0] != digests[2][0], f"{workload}: other seed, other input digest")

    r = tiny("enum-n6", 1, False, expected={"graphs": 39})
    line = bench.result_line(r, metrics.END_TO_END)
    expect(not line["correct"] and line["failed"] / line["attempted"] > 0,
           f"wrong expected graph count gives failed_ratio "
           f"{line['failed']}/{line['attempted']} > 0")

    print("selftest: " + ("PASS" if not problems else f"{len(problems)} FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
