#!/usr/bin/env python3
"""Compare two sets of benchmark results recorded by run.py --record.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric it prints the median of each
set, their ratio and whether NEW is worse than BASE by more than the
metric's bound in BENCHMARK.json. Results are comparable only when they
come from the same kind of host and build, so every record's provenance
(CPU counts, build type, FJS_SIMD / FJS_TELEMETRY / FJS_COUNT_ALLOCS,
compiler) must match across both sets; the commit and seed may differ.

Exit status: 0 no metric beyond its bound, 1 some metric beyond its
bound, 3 provenance mismatch (the mismatching fields are printed and
nothing is compared).
"""
import argparse
import json
import os
import statistics
import sys

HOST_BUILD_KEYS = ("nproc", "hardware_concurrency", "pool_workers",
                   "build_type", "FJS_SIMD", "FJS_TELEMETRY",
                   "FJS_COUNT_ALLOCS", "compiler")


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def host_build(record):
    return tuple((k, record["provenance"].get(k)) for k in HOST_BUILD_KEYS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base, new = load(args.base), load(args.new)

    kinds = {host_build(r) for r in base + new}
    if len(kinds) > 1:
        print("provenance mismatch: results come from different hosts or "
              "builds:")
        for kind in sorted(kinds, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in kind))
        return 3

    worse = False
    workloads = sorted({r["provenance"]["workload"] for r in base + new})
    print(f"{'workload':<10} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'new/base':>9}  verdict")
    for workload in workloads:
        for name, metric in spec.items():
            values = []
            for records in (base, new):
                values.append([
                    r["result"]["metrics"][name]["value"] for r in records
                    if r["provenance"]["workload"] == workload
                    and r["provenance"].get("trace") == 0
                    and name in r["result"]["metrics"]])
            if not all(values):
                continue
            b, n = (statistics.median(v) for v in values)
            ratio = n / b if b else float("inf")
            loss = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            beyond = loss > metric["bound"]
            worse |= beyond
            verdict = (f"WORSE beyond bound {metric['bound']}" if beyond
                       else "within bound")
            print(f"{workload:<10} {name:<16} {b:>12.5g} {n:>12.5g} "
                  f"{ratio:>9.4f}  {verdict} "
                  f"(n={len(values[0])}/{len(values[1])})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
