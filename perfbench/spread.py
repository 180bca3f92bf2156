#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then for each metric the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload read --seeds 1-10
    python3 perfbench/spread.py --workload serve --seeds 1-5 --out s.json

A spread under a third of the bound is steady; setup_s is exempt from
the spread rule but not from the median comparison between two sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write every run's metrics here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED (exit {proc.returncode})")
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    steady = True
    print(f"\n{'metric':<16}{'median':>14}{'spread':>10}{'bound':>8}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
        steady &= ok
        print(f"{m['name']:<16}{med:>14.6g}{spread:>10.4f}{m['bound']:>8}  "
              f"{'ok' if ok else 'UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
