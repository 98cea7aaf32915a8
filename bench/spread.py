"""Run-to-run spread of the end-to-end metrics, as quartiles per metric.

    python3 bench/spread.py [--runs 10] [--first-seed 0]

Runs ``run.py --trace 0`` RUNS times on every workload of BENCHMARK.json,
for its run_seconds, each time with another seed, taking the workloads in
turn so that slow drift of the machine shows in every workload's spread.
For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  Exits nonzero
if any run failed or any spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1])


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result = run_once(workload, seed, config["run_seconds"])
            failures += result["failed"] + (not result["correct"])
            for name in bounds.keys() & result["metrics"].keys():
                values[workload][name].append(result["metrics"][name]["value"])
            summary = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {summary}", flush=True)
    too_wide = 0
    for workload in workloads:
        for name, bound in bounds.items():
            vals = values[workload][name]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "WIDER THAN BOUND")
            if spread > bound and name != "setup_s":
                too_wide += 1
            print(f"{workload:16s} {name:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound:.2f} {verdict}")
    return 1 if failures or too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
