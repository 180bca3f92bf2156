#!/usr/bin/env bash
# Documentation-coherence gate. Five checks:
#
#   1. Every BENCH_*.json artifact named in docs/ or README.md exists
#      at the repo root.
#   2. Lint rule ids are bidirectionally coherent: every id (R1, R2,
#      ...) cited in docs/ or DESIGN.md §10 exists in
#      tools/meteo_lint.py's RULES table, and every id RULES defines
#      is documented in DESIGN.md's rule catalog.
#   3. Every dotted series token in docs/OBSERVABILITY.md names a real
#      metric/label string in src/obs/names.hpp (stale-doc direction).
#   4. Every METEO_ZONE("...") literal in src/ is documented in
#      docs/PERFORMANCE.md, and every dotted token PERFORMANCE.md
#      mentions is either a live zone or a live metric name.
#   5. Every quoted string in src/obs/names.hpp (metric names, label
#      keys, label values listed in the comments) appears in
#      docs/OBSERVABILITY.md (code->doc direction of check 3).
#
# Run from anywhere; tier-1 (the meteo_check_docs ctest and
# tools/run_tier1.sh) and CI's docs-coherence step fail on any drift.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

fail=0
problem() {
  echo "check_docs: $*" >&2
  fail=1
}

for f in docs/PERFORMANCE.md docs/ARCHITECTURE.md docs/OBSERVABILITY.md; do
  [[ -f "$f" ]] || problem "missing ${f}"
done
[[ ${fail} -eq 0 ]] || { echo "check_docs: FAILED" >&2; exit 1; }

# --- 1. benchmark artifacts --------------------------------------------------
mapfile -t bench_names < <(grep -rhoE 'BENCH_[A-Za-z0-9_]+\.json' \
  docs/*.md README.md | sort -u)
if [[ ${#bench_names[@]} -eq 0 ]]; then
  problem "extracted no BENCH_*.json names from docs/ (pattern drift?)"
fi
for b in "${bench_names[@]}"; do
  if [[ ! -f "${b}" ]]; then
    problem "docs name ${b} but it does not exist at the repo root"
  fi
done

# --- 2. lint rule ids (bidirectional) ----------------------------------------
# docs -> code: every rule id a doc cites must exist in the RULES table.
mapfile -t rule_ids < <(grep -rhoE '\bR[0-9]+\b' docs/*.md DESIGN.md | sort -u)
for r in "${rule_ids[@]}"; do
  if ! grep -qE "^\s*\"${r}\":" tools/meteo_lint.py; then
    problem "docs cite lint rule ${r} but tools/meteo_lint.py does not define it"
  fi
done
# code -> docs: every rule RULES defines must have a catalog row in
# DESIGN.md §10 (`| R<n> |` table syntax), so a new rule cannot land
# undocumented.
mapfile -t defined_rules < <(grep -oE '^\s*"R[0-9]+":' tools/meteo_lint.py \
  | grep -oE 'R[0-9]+' | sort -u)
if [[ ${#defined_rules[@]} -eq 0 ]]; then
  problem "extracted no rule ids from tools/meteo_lint.py (pattern drift?)"
fi
for r in "${defined_rules[@]}"; do
  if ! grep -qE "^\| ${r} \|" DESIGN.md; then
    problem "tools/meteo_lint.py defines rule ${r} but DESIGN.md's rule catalog has no | ${r} | row"
  fi
done

# Dotted lowercase tokens (`op.count`, `search.walk`, ...) — the shared
# shape of metric series and profile zones. File names are excluded by
# rejecting anything ending in a known source/doc extension.
extract_dotted() {
  grep -hoE '`[a-z_]+(\.[a-z_]+)+`' "$1" | tr -d '`' \
    | grep -vE '\.(md|sh|py|hpp|cpp|json|txt|cmake)$' | sort -u
}

# --- 3. metric series named in OBSERVABILITY.md ------------------------------
mapfile -t obs_tokens < <(extract_dotted docs/OBSERVABILITY.md || true)
for t in "${obs_tokens[@]}"; do
  if ! grep -qF "\"${t}\"" src/obs/names.hpp; then
    problem "docs/OBSERVABILITY.md names series '${t}' which is not in" \
            "src/obs/names.hpp"
  fi
done

# --- 4. profile zones --------------------------------------------------------
mapfile -t zones < <(grep -rhoE 'METEO_ZONE\("[^"]+"\)' src \
  | sed -E 's/METEO_ZONE\("([^"]+)"\)/\1/' | sort -u)
if [[ ${#zones[@]} -eq 0 ]]; then
  problem "extracted no METEO_ZONE literals from src/ (pattern drift?)"
fi
for z in "${zones[@]}"; do
  if ! grep -qF "\`${z}\`" docs/PERFORMANCE.md; then
    problem "zone '${z}' (src/) is not documented in docs/PERFORMANCE.md"
  fi
done
mapfile -t perf_tokens < <(extract_dotted docs/PERFORMANCE.md || true)
for t in "${perf_tokens[@]}"; do
  known=0
  for z in "${zones[@]}"; do [[ "$t" == "$z" ]] && known=1 && break; done
  if [[ ${known} -eq 0 ]] && ! grep -qF "\"${t}\"" src/obs/names.hpp; then
    problem "docs/PERFORMANCE.md names '${t}' which is neither a live" \
            "METEO_ZONE nor a metric in src/obs/names.hpp"
  fi
done

# --- 5. observability schema documented --------------------------------------
# Every "quoted string" in the header, deduplicated: the constant values
# and the enumerated label values in the doc comments.
mapfile -t schema_names < <(grep -o '"[^"]\+"' src/obs/names.hpp \
  | tr -d '"' | sort -u)
if [[ ${#schema_names[@]} -eq 0 ]]; then
  problem "extracted no names from src/obs/names.hpp (pattern drift?)"
fi
for name in "${schema_names[@]}"; do
  if ! grep -qF -- "${name}" docs/OBSERVABILITY.md; then
    problem "'${name}' (src/obs/names.hpp) is not documented in" \
            "docs/OBSERVABILITY.md"
  fi
done

if [[ ${fail} -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: ok (${#bench_names[@]} benchmark artifacts," \
     "${#rule_ids[@]} lint rules, ${#obs_tokens[@]} series tokens," \
     "${#zones[@]} zones, ${#schema_names[@]} schema names)"
