#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve|read|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ -- which compiles the library from src/ -- with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload, and prints its result as one JSON line, the last line of
standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The full report (provenance, per-workload details, named
check failures) lands in <build>/reports/. Exit status: 0 when every
check passed; 1 when a check failed (the JSON line says correct: false);
2 when the benchmark cannot be built or run (no JSON line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("serve", "read", "ingest")
# Everything the benchmark binary is built from.
SOURCE_GLOBS = ("src/**/*", "bench/harness.cpp", "bench/harness.hpp",
                "perfbench/CMakeLists.txt", "perfbench/cpp/*")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--", "src", "bench", "perfbench"],
                           capture_output=True, text=True).stdout.strip()
    return r.stdout.strip() + ("+dirty" if dirty else "") if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json asks for, or None without it."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.exists():
        return None
    spec = json.loads(manifest.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_determinism(workload, seed, digest_id, run_digest):
    """Same build, same workload and seed: the same run digest as any
    earlier run in this build tree. Returns a failure message or None."""
    registry = build_dir() / "digests.json"
    seen = json.loads(registry.read_text()) if registry.exists() else {}
    key = f"{workload}/{seed}/{digest_id}"
    if key in seen and seen[key] != run_digest:
        return (f"CHECK FAILED determinism.digest: {workload} seed {seed} "
                f"gave digest {run_digest}, an earlier run gave {seen[key]}")
    seen[key] = run_digest
    registry.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return None


def run(args):
    started = time.monotonic()
    if not build("perfbench"):
        log("build failed")
        return 2
    reports = build_dir() / "reports"
    reports.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = reports / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    digest_id = source_digest()
    cmd = [str(build_dir() / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--report", str(report_path),
           "--commit", commit(), "--source-digest", digest_id]
    if args.trace:
        cmd += ["--spans", str(reports / f"{stem}-spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 3) or not report_path.exists():
        log(f"perfbench exited with status {proc.returncode}")
        return 2
    report = json.loads(report_path.read_text())

    correct = report["correct"] and proc.returncode == 0
    metrics = report["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None:
        for name, unit in expected.items():
            if name not in metrics or metrics[name]["unit"] != unit:
                log(f"metric {name} ({unit}) missing from the report")
                return 2
        metrics = {name: metrics[name] for name in expected}
    if not args.trace:
        failure = check_determinism(args.workload, args.seed, digest_id,
                                    report["config"]["run_digest"])
        if failure:
            print(failure)
            correct = False
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """The tests of the benchmark's own math and manifests."""
    ok = True
    if build("perfbench_math_test"):
        ok &= subprocess.run([str(build_dir() / "perfbench_math_test")]).returncode == 0
    else:
        log("perfbench_math_test did not build (is GTest installed?)")
        ok = False
    tests = BENCH_DIR / "tests"
    ok &= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          str(tests), "-p", "test_*.py"]).returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
