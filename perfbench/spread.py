#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For each metric this prints the median of the runs, the first and third
quartiles as statistics.quantiles(values, n=4) gives them, and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. With --overhead it also makes a traced run per seed and
reports the traced run_wall_s against the untraced one.

    python3 perfbench/spread.py --workload paper-flow --seeds 1-10
    python3 perfbench/spread.py --workload sweep-remote --seeds 1-5 --overhead

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(cmd, workload, seed, secs, trace):
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(secs), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        print(f"seed {seed}: CHECK FAILED\n{proc.stderr}", file=sys.stderr)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd, secs = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, traced = {}, []
    for s in seeds(args.seeds):
        res = run(cmd, args.workload, s, secs, 0)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        wall = res["metrics"]["run_wall_s"]["value"]
        line = f"seed {s}: correct={res['correct']} run_wall_s={wall:.4g}"
        if args.overhead:
            tr = run(cmd, args.workload, s, secs, 1)
            traced.append((wall, tr["metrics"]["trace.run_wall_s"]["value"]))
            line += f" traced={traced[-1][1]:.4g}"
        print(line, flush=True)

    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        flag = "  > bound/3" if spread > bounds.get(name, 1) / 3 else ""
        print(f"{name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bounds.get(name, 0):>6}{flag}")
    if traced:
        ratio = statistics.median(t / u for u, t in traced)
        print(f"tracing overhead (median traced/untraced run_wall_s): {100 * (ratio - 1):+.1f}%")


if __name__ == "__main__":
    main()
