#!/usr/bin/env bash
# loc.sh — the size numbers ROADMAP aim 2 calls a success metric, printed
# the same way on every commit so a PR can report before/after: non-test Go
# lines outside bench/ (comments and blank lines included), the number of
# packages holding them, the exported identifiers of the public facade, and
# the internal/ packages only one other package imports (ROADMAP item 7's
# fold-into-the-caller candidates).
#
# Usage:
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh /some/dir  # another checkout (e.g. the parent commit)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

src() { find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' "$@"; }

echo "non-test Go lines (outside bench/): $(src -print0 | xargs -0 cat | wc -l)"
echo "packages:                           $(src -printf '%h\n' | sort -u | wc -l)"
# Top-level declarations plus the names inside const/var blocks.
echo "rlir.go exported identifiers:       $(grep -cE '^(func|type|const|var) [A-Z]|^	[A-Z][A-Za-z0-9_]* +=' rlir.go)"
# Non-test imports only (.Imports leaves TestImports out); bench/ is its own
# module and is not walked.
echo "internal packages with one non-test importer:"
go list -f '{{$p := .ImportPath}}{{range .Imports}}{{.}} {{$p}}{{"\n"}}{{end}}' ./... |
	awk '$1 ~ /\/internal\// { n[$1]++; by[$1] = $2 } END { for (p in n) if (n[p] == 1) print "  " p " <- " by[p] }' | sort
