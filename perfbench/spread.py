#!/usr/bin/env python3
"""Runs each workload k times and prints every metric's median, quartiles
and spread (the distance between the quartiles as a share of the median).

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds 20] [--trace 0|1]
                                [--ab CHECKOUT_A CHECKOUT_B] [--values]

Run i uses seed --seed + i. Quartiles come from statistics.quantiles(n=4).
The bounds in BENCHMARK.json are set from this output: each end-to-end
bound must sit well above its metric's spread.

--ab alternates two checkouts (each built by its own perfbench/run.py into
its own .bench_build/) on the same seeds for an interleaved same-machine
A/B: run i executes A then B for even i and B then A for odd i. It prints
both sides and, per metric, B's median over A's and the share of pairs B
wins. Runs are sequential; nothing else should load the machine meanwhile.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread: {workload} seed {seed} in {checkout} "
                 f"exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def better(meta, a, b):
    return b < a if meta.get("better", "lower") == "lower" else b > a


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ab", nargs=2, metavar=("CHECKOUT_A", "CHECKOUT_B"))
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value, in seed order")
    args = parser.parse_args()

    metas = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    expected = [m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]]
    sides = [os.path.abspath(p) for p in args.ab] if args.ab else [ROOT]
    for workload in args.workloads.split(","):
        results = {side: [] for side in sides}
        for i in range(args.runs):
            order = sides if i % 2 == 0 else list(reversed(sides))
            for side in order:
                results[side].append(run_once(side, workload, args.seed + i,
                                              args.seconds, args.trace))
        for runs in results.values():
            for r in runs:
                if list(r["metrics"]) != expected:
                    sys.exit(f"spread: {workload} printed {list(r['metrics'])}, "
                             f"BENCHMARK.json lists {expected}")
        print(f"\n== {workload}  ({args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {args.seconds} s each)")
        for label, side in zip("AB", sides):
            runs = results[side]
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"[{label if args.ab else '-'}] {side}\n    failed share "
                  f"per run: {sorted(shares)}  all correct: "
                  f"{all(r['correct'] for r in runs)}")
            print(f"    {'metric':26s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(vals)
                bound = metas.get(name, {}).get("bound")
                print(f"    {name:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.3f} {bound if bound is not None else '':>6}")
                if args.values:
                    print("        " + " ".join(f"{v:.4g}" for v in vals))
        if args.ab:
            a_runs, b_runs = results[sides[0]], results[sides[1]]
            print(f"    {'metric':26s} {'B/A median':>10s} {'B wins':>7s}")
            for name in a_runs[0]["metrics"]:
                a = [r["metrics"][name]["value"] for r in a_runs]
                b = [r["metrics"][name]["value"] for r in b_runs]
                meta = metas.get(name, {})
                wins = sum(better(meta, x, y) for x, y in zip(a, b))
                ratio = statistics.median(b) / statistics.median(a) \
                    if statistics.median(a) else float("nan")
                print(f"    {name:26s} {ratio:10.4f} {wins:4d}/{len(a)}")


if __name__ == "__main__":
    main()
