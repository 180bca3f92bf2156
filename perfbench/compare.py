#!/usr/bin/env python3
"""Compares two perfbench reports (<build>/reports/*.json) metric by metric.

    python3 perfbench/compare.py old.json new.json

Prints each shared metric and detail with its relative change, and marks
with "!" every change larger than the largest end-to-end bound in
BENCHMARK.json: the per-kind detail rows (read_search_per_s, ...) carry
no bound of their own, and a slowdown of one op kind shows in ops_per_s
only at a fraction of its size. When the reports' provenance differs (build type, compiler, CPU, core count,
workers, repetitions, workload, seed, run length) the comparison says so
first: such numbers do not measure the same thing. Exit status 1 when the
provenance differs, 2 on unreadable input, else 0.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Provenance that must match for two reports to be comparable; commit,
# source digest and argv are expected to differ between a parent and a
# change.
SAME_CONFIG = ("workload", "seed", "seconds", "trace", "build_type", "compiler",
               "cpu_model", "nproc", "workers", "setup_repetitions")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare: {path}: {e}", file=sys.stderr)
        return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    if old is None or new is None:
        return 2
    differs = [(k, old["config"].get(k), new["config"].get(k)) for k in SAME_CONFIG
               if old["config"].get(k) != new["config"].get(k)]
    for key, a, b in differs:
        print(f"PROVENANCE DIFFERS {key}: {a!r} -> {b!r}")
    if differs:
        print("These reports were not made under the same configuration; "
              "the changes below do not isolate the code change.\n")
    spec = load(ROOT / "BENCHMARK.json")
    mark = max(m["bound"] for m in spec["end_to_end"]) if spec else 0.25
    print(f"commit {old['config'].get('commit')} -> {new['config'].get('commit')}")
    for section in ("metrics", "details"):
        for name, a in old.get(section, {}).items():
            b = new.get(section, {}).get(name)
            if b is None:
                continue
            delta = (b["value"] - a["value"]) / a["value"] if a["value"] else float("nan")
            flag = " !" if abs(delta) > mark else ""
            print(f"{name:<36} {a['value']:>14.6g} -> {b['value']:>14.6g} "
                  f"{a['unit']:<10} {delta:+.2%}{flag}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
