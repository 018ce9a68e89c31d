#!/usr/bin/env bash
# profile.sh — capture CPU and allocation profiles of the simulator hot
# path: BenchmarkExportAllPairs in ./internal/scenario, scenario.Export of
# fattree-allpairs at 0.2 s (the pipeline benchmark's sim stage, and the
# run DESIGN.md's per-packet budget is read from).
#
#   scripts/profile.sh [dir]   # profile BenchmarkExportAllPairs
#
# It takes two passes of `go test`. The CPU profile is taken at the default
# memory profile rate: -memprofilerate=1 records every allocation's stack,
# which inflates runtime.mallocgc in the CPU profile. The allocation profile
# is taken in a second pass with -memprofilerate=1, so every allocation is
# attributed exactly and the per-op counts match -benchmem. Profiles land in
# <dir> (default ./profiles) as cpu.pprof / mem.pprof plus a pre-rendered
# top-25 text summary; inspect interactively with:
#
#   go tool pprof -http=: profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-profiles}"
mkdir -p "$dir"
bench='BenchmarkExportAllPairs$'

echo "profile.sh: CPU profile of $bench..." >&2
go test -run '^$' -bench "$bench" -benchtime 30x -benchmem \
  -cpuprofile "$dir/cpu.pprof" -o "$dir/scenario.test" ./internal/scenario
echo "profile.sh: allocation profile of $bench (exact alloc attribution)..." >&2
go test -run '^$' -bench "$bench" -benchtime 5x \
  -memprofile "$dir/mem.pprof" -memprofilerate=1 -o "$dir/scenario.test" ./internal/scenario

go tool pprof -top -nodecount=25 "$dir/scenario.test" "$dir/cpu.pprof" > "$dir/cpu.top.txt"
go tool pprof -top -nodecount=25 -sample_index=alloc_objects "$dir/scenario.test" "$dir/mem.pprof" > "$dir/mem.top.txt"

echo "profile.sh: wrote $dir/cpu.pprof, $dir/mem.pprof (+ .top.txt summaries)" >&2
grep -m1 -A3 "flat  flat%" "$dir/cpu.top.txt" || true
