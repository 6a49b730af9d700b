#!/usr/bin/env bash
# Cross-checks the per-layer budget against gprof.
#
#   bench/e2e/profile.sh
#
# Builds build-e2e-prof/ with -pg, runs chain4-clean and sweep-tiny once
# each with per-layer metrics on, and prints gprof's flat profile beside
# the budget.* lines of the same run. The profile also covers the run's
# unit-cost loops and traced ops, which the timed reps dominate.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e-prof"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" --target e2e_bench -j 4 >&2

for workload in chain4-clean sweep-tiny; do
  dir="$build/profile-$workload"
  mkdir -p "$dir"
  rm -f "$dir/gmon.out"
  # gprof writes gmon.out into the working directory.
  (cd "$dir" && "$build/e2e_bench" --workload "$workload" --seconds 0 \
    --trace 1 > run.txt)
  echo "== $workload: op CPU and budget (-pg build) =="
  grep -E '^ +(op_cpu_us_p50|sim\.host_ns_per_wire_flit|budget\.)' "$dir/run.txt"
  echo "== $workload: gprof flat profile =="
  gprof -b -p "$build/e2e_bench" "$dir/gmon.out" | sed -n '1,30p'
  echo
done
