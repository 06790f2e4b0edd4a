#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median of the runs and the distance between their first and
third quartiles as a share of that median, the figure the bounds in
BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workloads sweep_grid,cv_fit --seeds 5

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            started = time.monotonic()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            elapsed = time.monotonic() - started
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect run")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            calib = [line.split()[2] for line in out.splitlines() if " host_calib_ms " in line]
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items())
                  + (f" host_calib_ms={calib[0]}" if calib else "")
                  + f" elapsed_s={elapsed:.1f}", flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med
            worst = max(worst, share / bound)
            flag = "" if share < bound / 3 else "  <-- above a third of its bound"
            print(f"{w:12} {name:14} median {med:14.6g}  iqr/median {share:.4f}  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
