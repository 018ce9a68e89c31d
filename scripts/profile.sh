#!/usr/bin/env bash
# profile.sh — capture CPU and allocation profiles of the simulator hot
# path, the evidence base for allocation burn-down work (the kind that took
# BenchmarkSimulatorThroughput from 812 to 166 allocs/op).
#
#   scripts/profile.sh [dir]   # profile BenchmarkSimulatorThroughput
#
# It uses `go test -cpuprofile/-memprofile` with -memprofilerate=1 so every
# allocation is attributed exactly (slower, but the per-op counts then match
# -benchmem). Profiles land in <dir> (default ./profiles) as cpu.pprof /
# mem.pprof plus a pre-rendered top-25 text summary; inspect interactively
# with:
#
#   go tool pprof -http=: profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-profiles}"
mkdir -p "$dir"

echo "profile.sh: profiling BenchmarkSimulatorThroughput (exact alloc attribution)..." >&2
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchtime 5x \
  -cpuprofile "$dir/cpu.pprof" -memprofile "$dir/mem.pprof" -memprofilerate=1 .

go tool pprof -top -nodecount=25 "$dir/cpu.pprof" > "$dir/cpu.top.txt"
go tool pprof -top -nodecount=25 -sample_index=alloc_objects "$dir/mem.pprof" > "$dir/mem.top.txt"
rm -f rlir.test

echo "profile.sh: wrote $dir/cpu.pprof, $dir/mem.pprof (+ .top.txt summaries)" >&2
grep -m1 -A3 "flat  flat%" "$dir/cpu.top.txt" || true
