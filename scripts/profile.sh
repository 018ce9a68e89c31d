#!/usr/bin/env bash
# profile.sh — capture CPU and allocation profiles of a hot path:
#
#   scripts/profile.sh [dir]         # the simulator: BenchmarkExportAllPairs
#   scripts/profile.sh query [dir]   # the merged /flows query: BenchmarkFleetFlowsReadPath
#
# The simulator target is BenchmarkExportAllPairs in ./internal/scenario,
# scenario.Export of fattree-allpairs at 0.2 s (the pipeline benchmark's sim
# stage, and the run DESIGN.md's per-packet budget is read from). The query
# target is BenchmarkFleetFlowsReadPath in ./internal/fleet, the pipeline
# benchmark's read_path /flows query in isolation: two rlird instances behind
# a front-end, so the profile holds both sides of the query (the instances'
# /snapshot and the front-end's fetch, decode, merge and render).
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

bench='BenchmarkExportAllPairs$' pkg=./internal/scenario cpuN=30x memN=5x
if [ "${1:-}" = query ]; then
  bench='BenchmarkFleetFlowsReadPath$' pkg=./internal/fleet cpuN=2000x memN=100x
  shift
fi
dir="${1:-profiles}"
mkdir -p "$dir"
bin="$dir/$(basename "$pkg").test"

echo "profile.sh: CPU profile of $bench..." >&2
go test -run '^$' -bench "$bench" -benchtime "$cpuN" -benchmem \
  -cpuprofile "$dir/cpu.pprof" -o "$bin" "$pkg"
echo "profile.sh: allocation profile of $bench (exact alloc attribution)..." >&2
go test -run '^$' -bench "$bench" -benchtime "$memN" \
  -memprofile "$dir/mem.pprof" -memprofilerate=1 -o "$bin" "$pkg"

go tool pprof -top -nodecount=25 "$bin" "$dir/cpu.pprof" > "$dir/cpu.top.txt"
go tool pprof -top -nodecount=25 -sample_index=alloc_objects "$bin" "$dir/mem.pprof" > "$dir/mem.top.txt"

echo "profile.sh: wrote $dir/cpu.pprof, $dir/mem.pprof (+ .top.txt summaries)" >&2
grep -m1 -A3 "flat  flat%" "$dir/cpu.top.txt" || true
