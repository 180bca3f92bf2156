#!/usr/bin/env python3
"""Check perfbench's counted results against committed values.

A perfbench workload's run digest (``config.run_digest``) and its
``msgs_per_op`` are counted over a fixed prefix of the run, so they do not
depend on ``--seconds``. This gate compares them, for every workload and
seed in tools/baselines/perfbench_digests.json, with the reports the runs
left behind. It catches a behaviour change without any timing noise.

Run the workloads first, then the check:

  for seed in 1 7; do for w in read ingest serve; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1
  done; done
  tools/check_perfbench_digests.py

Reports are read from ``<build>/reports/<workload>-seed<N>-trace0.json``,
where ``<build>`` is perfbench/run.py's own build directory,
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``).
A change that moves a value updates the baseline file and says why in
CHANGES.md.

Exit status: 0 = every value matches, 1 = a mismatch or a missing report
(each one is named; with --selftest, a self-test failure), 2 = an
unreadable baseline.

Usage:
  tools/check_perfbench_digests.py [--baseline FILE] [--reports DIR]
  tools/check_perfbench_digests.py --selftest
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "tools" / "baselines" / "perfbench_digests.json"
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "perfbench"))
from run import build_dir  # noqa: E402  (the benchmark's own build-dir rule)


def check(baseline, reports):
    """Returns one message per mismatch or missing report."""
    problems = []
    for workload, seeds in sorted(baseline["workloads"].items()):
        for seed, want in sorted(seeds.items()):
            path = Path(reports) / f"{workload}-seed{seed}-trace0.json"
            label = f"{workload} seed {seed}"
            if not path.exists():
                problems.append(f"{label}: no report at {path}")
                continue
            try:
                report = json.loads(path.read_text())
                digest = report["config"]["run_digest"]
                msgs = report["metrics"]["msgs_per_op"]["value"]
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems.append(f"{label}: unreadable report {path} ({err!r})")
                continue
            if str(digest) != want["run_digest"]:
                problems.append(f"{label}: run_digest {digest}, "
                                f"expected {want['run_digest']}")
            if msgs != want["msgs_per_op"]:
                problems.append(f"{label}: msgs_per_op {msgs!r}, "
                                f"expected {want['msgs_per_op']!r}")
    return problems


def write_report(directory, workload, seed, digest, msgs):
    report = {"config": {"run_digest": digest},
              "metrics": {"msgs_per_op": {"value": msgs, "unit": "msgs/op"}}}
    path = Path(directory) / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(report))


def selftest():
    """Proves the check passes on matching reports and names every
    injected mismatch."""
    baseline = {"workloads": {
        "read": {"1": {"run_digest": "11", "msgs_per_op": 2.5}},
        "serve": {"1": {"run_digest": "18446744073709551615",
                        "msgs_per_op": 10.609375},
                  "7": {"run_digest": "7", "msgs_per_op": 0.1}},
    }}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        write_report(tmp, "read", 1, "11", 2.5)
        write_report(tmp, "serve", 1, "18446744073709551615", 10.609375)
        write_report(tmp, "serve", 7, "7", 0.1)
        if check(baseline, tmp):
            print("selftest: matching reports were flagged", file=sys.stderr)
            ok = False
        # One digest off, one msgs_per_op off by one ulp, one report gone.
        write_report(tmp, "read", 1, "12", 2.5)
        write_report(tmp, "serve", 1, "18446744073709551615",
                     10.609375000000002)
        (Path(tmp) / "serve-seed7-trace0.json").unlink()
        problems = check(baseline, tmp)
        for needle in ("read seed 1: run_digest 12",
                       "serve seed 1: msgs_per_op",
                       "serve seed 7: no report"):
            if not any(p.startswith(needle) for p in problems):
                print(f"selftest: missed '{needle}' in {problems}",
                      file=sys.stderr)
                ok = False
        if len(problems) != 3:
            print(f"selftest: expected 3 problems, got {problems}",
                  file=sys.stderr)
            ok = False
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="expected values (default: %(default)s)")
    parser.add_argument("--reports", default=None,
                        help="report directory (default: <build>/reports)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the check catches injected mismatches")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    try:
        baseline = json.loads(Path(args.baseline).read_text())
        count = sum(len(seeds) for seeds in baseline["workloads"].values())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        print(f"check_perfbench_digests: bad baseline {args.baseline}: {err}",
              file=sys.stderr)
        return 2
    reports = Path(args.reports) if args.reports else build_dir() / "reports"
    problems = check(baseline, reports)
    for problem in problems:
        print(f"check_perfbench_digests: {problem}", file=sys.stderr)
    if problems:
        print(f"check_perfbench_digests: FAILED ({len(problems)} problems "
              f"over {count} runs)", file=sys.stderr)
        return 1
    print(f"check_perfbench_digests: ok ({count} runs match {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
