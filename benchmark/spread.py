#!/usr/bin/env python3
"""Run each workload several times, each on another seed, and print for every
end-to-end metric its median, quartiles and spread: the distance between the
first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them. A spread above the metric's
bound in BENCHMARK.json is flagged and makes the exit code 1.

    benchmark/run.sh --repeat 10 [--workload <name>] [--seconds <s>] [--first-seed <n>] [--values]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--values", action="store_true", help="also print every run's values")
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat needs at least 2 runs")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = 0
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.repeat):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
            runs.append(result["metrics"])
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"{workload}: {args.repeat} runs of {args.seconds} s, seeds from {args.first_seed}")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bound and name != "setup_s":
                flag = "  <-- above its bound"
                flagged += 1
            elif spread > bound / 3:
                flag = "  (above a third of its bound)"
            print(f"  {name:<26} {median:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {bound:>6.2f}{flag}")
        if args.values:
            for name in bounds:
                print(f"  {name}: " + " ".join(f"{r[name]['value']:.4g}" for r in runs))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
