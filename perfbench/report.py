"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/report.py                       # every workload, seeds 1-10
    python3 perfbench/report.py --workloads grow --seeds 1 2 --trace
    python3 perfbench/report.py --workloads shipped --seeds 1 2

For each workload it prints every end-to-end metric by name and unit with
its median, quartiles and spread (quartile distance over the median)
against the bound in BENCHMARK.json, the attempted and failed operation
counts, and each failed operation with its reason.  With --trace it adds
a traced run per seed: every per-layer metric (median over seeds), the
tracing overhead (traced pass_s over untraced pass_s) and how much of the
traced pass the layer self times account for.  Operations whose pass/fail
differs between seeds are listed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance/median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    outcomes: dict[tuple[str, str], dict[int, bool]] = {}

    for workload in args.workloads:
        runs = {seed: run_once(workload, seed, args.seconds, 0)
                for seed in args.seeds}
        print(f"== {workload} ({len(runs)} runs, {args.seconds:g} s each)")
        env = next(iter(runs.values()))[0]["environment"]
        print("   environment: " + json.dumps(
            {k: v for k, v in env.items() if k != "seed"}))
        attempted = sum(r["attempted"] for _, r in runs.values())
        failed = sum(r["failed"] for _, r in runs.values())
        print(f"   operations: {attempted} attempted, {failed} failed")
        for seed, (detail, _) in runs.items():
            for op in detail["operations"]:
                outcomes.setdefault((workload, op["case"]), {})
                outcomes[(workload, op["case"])][seed] = (
                    outcomes[(workload, op["case"])].get(seed, True)
                    and op["ok"])
                if not op["ok"]:
                    said = op.get("log", "").strip().splitlines()[-1:]
                    print(f"   FAILED {op['case']} (seed {op['seed']}): "
                          + "; ".join(op["problems"] + said))
        untraced = {}
        for name in next(iter(runs.values()))[1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in runs.values()]
            unit = next(iter(runs.values()))[1]["metrics"][name]["unit"]
            med, q1, q3, rel = spread(values)
            untraced[name] = med
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"  bound {bound:.2f}: {'ok' if rel <= bound else 'WIDE'}")
            print(f"   {name:<10} {med:10.4f} {unit:<3} q1 {q1:.4f} "
                  f"q3 {q3:.4f} spread {rel:6.2%}{verdict}")
        if not args.trace:
            continue
        traced = [run_once(workload, seed, args.seconds, 1)[1]
                  for seed in args.seeds]
        layer = {name: statistics.median(t["metrics"][name]["value"]
                                         for t in traced)
                 for name in traced[0]["metrics"]}
        units = {name: m["unit"] for name, m in traced[0]["metrics"].items()}
        for name, value in layer.items():
            print(f"   {name:<30} {value:14.6g} {units[name]}")
        overhead = layer["trace.pass_s"] / untraced["pass_s"] - 1.0
        spans = sum(v for n, v in layer.items()
                    if units[n] == "s" and n != "trace.pass_s")
        print(f"   tracing overhead: {overhead:+.2%} of untraced pass_s")
        print(f"   layer self times account for {spans:.4f} s of "
              f"trace.pass_s {layer['trace.pass_s']:.4f} s")

    differing = {key: seeds for key, seeds in outcomes.items()
                 if len(set(seeds.values())) > 1}
    print("== seed robustness")
    if not differing:
        print(f"   every operation had the same pass/fail on seeds "
              f"{args.seeds}")
    for (workload, case), seeds in differing.items():
        print(f"   {workload}/{case}: passes on "
              f"{[s for s, ok in seeds.items() if ok]}, fails on "
              f"{[s for s, ok in seeds.items() if not ok]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
