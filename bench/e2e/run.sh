#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs its workloads.
#
#   bench/e2e/run.sh [--seed N] [--traced] [--smoke]    # all five workloads
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Every workload runs in its own process, one after another. Each prints
# its metrics and, as its last line, one JSON object. The per-workload
# results land in bench/e2e/out/<workload>.json and are gathered into
# bench/e2e/out/results.json. The exit status is non-zero if any simulated
# outcome was wrong or anything failed to build or run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
out="$here/out"

workloads=(chain4-clean incast16-greedy incast4-load90 star8-noisy sweep-tiny)
selected=()
pass=()
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed) seed="$2"; pass+=(--seed "$2"); shift 2 ;;
    --seconds|--trace) pass+=("$1" "$2"); shift 2 ;;
    --traced) pass+=(--trace 1); shift ;;
    --smoke) pass+=(--smoke); shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

# Build output goes to stderr: the last line of stdout is the result.
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j 4 >&2

mkdir -p "$out"
status=0
files=()
for workload in "${selected[@]}"; do
  rm -f "$out/$workload.json"
  "$build/e2e_bench" --workload "$workload" "${pass[@]}" \
    --expected "$here/expected/fingerprints.txt" --out "$out" || status=1
  if [[ -f "$out/$workload.json" ]]; then files+=("$out/$workload.json"); fi
done

{
  printf '{"seed": %s, "workloads": [' "$seed"
  first=1
  for file in "${files[@]}"; do
    [[ $first -eq 1 ]] || printf ', '
    first=0
    tr -d '\n' < "$file"
  done
  printf ']}\n'
} > "$out/results.json"
exit "$status"
