#!/usr/bin/env bash
# Tier-1 gate: static analysis, sanitized build, and the fast test tier.
# This is the pre-merge check — tier2 (whole-system integration sweeps)
# runs in the full `ctest` invocation instead.
#
# Usage: tools/run_tier1.sh [build-dir]
#   build-dir    defaults to build-tier1 (kept separate from the plain
#                `build` tree so sanitizer flags never pollute it)
#
# Environment:
#   METEO_SANITIZE  sanitizer list passed to CMake (default
#                   "address,undefined"; set to "" to disable)
#   METEO_TSAN      set to 0 to skip the ThreadSanitizer pass over the
#                   whole tier1 label (default: run it; TSan and ASan
#                   cannot share a build tree, hence the second
#                   ${build_dir}-tsan configuration)
#   METEO_LINT      set to 0 to skip the meteo-lint determinism pass
#   METEO_TIDY      set to 0 to skip clang-tidy (self-skips with a
#                   notice when clang-tidy is not installed)
#   METEO_FMT       set to 0 to skip the clang-format check (self-skips
#                   with a notice when clang-format is not installed)

set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-tier1}"
sanitize="${METEO_SANITIZE-address,undefined}"
tsan="${METEO_TSAN-1}"
lint="${METEO_LINT-1}"
tidy="${METEO_TIDY-1}"
fmt="${METEO_FMT-1}"

# --- static analysis (DESIGN.md §10) ---------------------------------------
# meteo-lint first: it needs no build tree and catches the determinism
# hazards (unordered iteration, wall clocks, FP reduction order) that
# the dynamic tiers only catch as golden-fingerprint drift.
if [[ "$lint" != 0 ]]; then
  python3 tools/meteo_lint.py --selftest
  # The token engine is the documented fallback when python-libclang is
  # absent; exercise it explicitly so its coverage is pinned either way.
  python3 tools/meteo_lint.py --selftest --engine token
  python3 tools/meteo_lint.py
else
  echo "meteo-lint: skipped (METEO_LINT=0)"
fi

if [[ "$fmt" != 0 ]]; then
  if command -v clang-format > /dev/null 2>&1; then
    git ls-files -- 'src/*.cpp' 'src/*.hpp' 'tests/*.cpp' 'tests/*.hpp' \
        'bench/*.cpp' 'bench/*.hpp' 'tools/*.cpp' 'examples/*.cpp' \
      | xargs clang-format --dry-run -Werror
  else
    echo "clang-format: not installed, stage skipped (.clang-format is" \
         "still the authoritative style)"
  fi
else
  echo "clang-format: skipped (METEO_FMT=0)"
fi

cmake -B "$build_dir" -S . \
  -DMETEO_SANITIZE="$sanitize" \
  -DMETEO_BUILD_BENCH=OFF \
  -DMETEO_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)"

# clang-tidy wants the compilation database the configure step above
# just exported (CMAKE_EXPORT_COMPILE_COMMANDS in the top-level lists).
if [[ "$tidy" != 0 ]]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    git ls-files -- 'src/*.cpp' \
      | xargs clang-tidy -p "$build_dir" --quiet
  else
    echo "clang-tidy: not installed, stage skipped (.clang-tidy carries" \
         "the curated check set)"
  fi
else
  echo "clang-tidy: skipped (METEO_TIDY=0)"
fi

ctest --test-dir "$build_dir" -L tier1 --output-on-failure -j "$(nproc)"

# Observability gate: the trace_dump CLI must round-trip its own export
# format (docs/OBSERVABILITY.md, DESIGN.md §8).
"$build_dir/tools/trace_dump" --selftest

# Benchmark-regression gate: the comparator must prove it can catch an
# injected regression, then the committed throughput numbers must sit
# within 15% of the baseline snapshots (tools/baselines/).
python3 tools/bench_compare.py --selftest
python3 tools/bench_compare.py tools/baselines/BENCH_batch.json BENCH_batch.json
python3 tools/bench_compare.py tools/baselines/BENCH_local_index.json BENCH_local_index.json
python3 tools/bench_compare.py tools/baselines/BENCH_serve.json BENCH_serve.json
python3 tools/bench_compare.py tools/baselines/BENCH_ablation_naming.json BENCH_ablation_naming.json
python3 tools/bench_compare.py tools/baselines/BENCH_kernels.json BENCH_kernels.json
python3 tools/bench_compare.py tools/baselines/BENCH_scale.json BENCH_scale.json

# Docs-coherence gate: every benchmark artifact, lint rule, and profile
# zone named in docs/ must exist in the tree, every METEO_ZONE in src/
# must be documented in docs/PERFORMANCE.md, and every metric name in
# src/obs/names.hpp must be documented in docs/OBSERVABILITY.md.
tools/check_docs.sh

# ThreadSanitizer over the whole tier1 label (not a hand-picked filter
# list): every new tier-1 test is TSan-covered by default, so a test
# that exercises fresh concurrency cannot silently dodge the pass.
if [[ "$tsan" != 0 ]]; then
  cmake -B "${build_dir}-tsan" -S . \
    -DMETEO_SANITIZE=thread \
    -DMETEO_BUILD_BENCH=OFF \
    -DMETEO_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}-tsan" -j "$(nproc)"
  ctest --test-dir "${build_dir}-tsan" -L tier1 --output-on-failure \
    -j "$(nproc)"
  # The epoch-snapshot suites carry their own label; `-L tier1` above
  # already matches it by substring, but the explicit invocation keeps
  # the concurrency tier TSan-covered even if the label ever stops
  # sharing the tier1 prefix.
  ctest --test-dir "${build_dir}-tsan" -L tier1-concurrency \
    --output-on-failure -j "$(nproc)"
fi
