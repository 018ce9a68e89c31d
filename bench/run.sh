#!/usr/bin/env bash
# run.sh — build the pipeline benchmark from source and run it.
#
# BENCHMARK.json names this script as its command; every argument is passed
# through to the binary (see README.md). The build and Go's build cache stay
# inside the checkout (.bench_build/), so a run reads and writes nothing
# outside it. The script fails before printing any result when the
# repository's Go packages are not next to bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$root/.bench_build"
go -C bench build -o "$root/.bench_build/rlirbench" . >&2
exec "$root/.bench_build/rlirbench" "$@"
