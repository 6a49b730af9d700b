#!/usr/bin/env bash
# Reachability gate: every function librxl.a defines must be kept by at
# least one root binary, or be named in tools/reachability_allowlist.txt
# with a reason. The roots are the bench_* programs, the examples,
# rxl_lint, rxl_trace and bench/e2e's e2e_bench. Tests are not roots, so a
# library function that only tests call fails the gate.
#
# Limit: it checks out-of-line functions only. An inline header function
# that no library source uses, or a template librxl.a never instantiates,
# leaves no symbol in librxl.a, so dead header-only code passes unseen.
#
# Method: the roots are built at -O0 (inlining would hide callers) with
# -ffunction-sections -fdata-sections and linked with --gc-sections, so
# each binary keeps only the functions its call graph reaches. A symbol
# counts when its own qualified name is in namespace rxl; a std:: template
# instantiated over an rxl type does not. Symbols are compared mangled and
# reported demangled.
#
# The gate also fails on a stale allowlist entry: one that a root now
# reaches, or that librxl.a no longer defines.
#
# Usage: tools/check_reachability.sh [build-dir]   (default: build-reach)
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-reach}
allowlist=$root/tools/reachability_allowlist.txt

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
)
cmake -S "$root" -B "$build/main" "${flags[@]}" \
  -DRXL_BUILD_TESTS=OFF -DRXL_HEADER_SELFCHECK=OFF > /dev/null
cmake --build "$build/main" --parallel "$(nproc)" > /dev/null
cmake -S "$root/bench/e2e" -B "$build/e2e" "${flags[@]}" > /dev/null
cmake --build "$build/e2e" --parallel "$(nproc)" > /dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Mangled names of functions in namespace rxl: a nested name (optionally
# cv- and ref-qualified), or a local entity such as a lambda inside one.
rxl_function='^_ZZ?N[rVK]*[RO]?3rxl'

nm --defined-only "$build/main/librxl.a" |
  awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' |
  grep -E "$rxl_function" | sort -u > "$tmp/defined"

mapfile -t roots < <(
  find "$build/main/bench" "$build/main/examples" -maxdepth 1 -type f \
    -executable | sort
  echo "$build/main/tools/rxl_lint/rxl_lint"
  echo "$build/main/tools/rxl_trace/rxl_trace"
  echo "$build/e2e/e2e_bench")
for binary in "${roots[@]}"; do
  nm --defined-only "$binary" | awk 'NF == 3 { print $3 }'
done | sort -u > "$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" | c++filt | sort -u > "$tmp/unreached"
sed -E -e '/^[[:space:]]*(#|$)/d' -e 's/[[:space:]]+#[[:space:]].*$//' \
  "$allowlist" |
  sort -u > "$tmp/allowed"

comm -23 "$tmp/unreached" "$tmp/allowed" > "$tmp/new"
comm -13 "$tmp/unreached" "$tmp/allowed" > "$tmp/stale"

echo "reachability: $(wc -l < "$tmp/defined") rxl functions in librxl.a," \
  "${#roots[@]} root binaries, $(wc -l < "$tmp/unreached") unreached," \
  "$(wc -l < "$tmp/allowed") allowlisted"
status=0
if [[ -s $tmp/new ]]; then
  echo "unreached by any root binary and not allowlisted ($(wc -l < "$tmp/new")):"
  sed 's/^/  /' "$tmp/new"
  status=1
fi
if [[ -s $tmp/stale ]]; then
  echo "stale allowlist entries, now reached or gone ($(wc -l < "$tmp/stale")):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
exit "$status"
