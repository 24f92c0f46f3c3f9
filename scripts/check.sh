#!/bin/sh
# check.sh — the pre-merge gate; `make verify` runs this script, so the two
# cannot drift: full build, the benchmark module's own vet and tests (it
# compiles against the library's signatures but has its own go.mod, so the
# root build never sees it), gofmt -l (must list nothing), vet, the sptc-lint
# analyzer suite, the hot-path escape/BCE budget (sptc-lint -perf vs
# lint/hotpath_budget.json), the race detector over the whole module, then
# the hot packages again with -tags assert so the internal/invariant checks
# are compiled in.
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"
# The packages that run again with -tags assert: the lock-free builds,
# open-addressed tables and worker arenas live here, plus the server, whose
# tiers share stored operands across concurrent requests, the LN codec,
# whose -tags assert range checks guard every key decode, and the COO
# sorter, whose post-condition (rows in tuple order, every row moved once)
# is checked after each sort that moves rows.
hot="./internal/hashtab ./internal/core ./internal/engine ./internal/plan ./internal/sortx ./internal/obs ./internal/dist ./internal/lnum ./internal/coo ./cmd/sptc-serve"
$GO build ./...
(cd benchmark && $GO vet . && $GO test .)
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi
$GO vet ./...
$GO run ./cmd/sptc-lint ./...
$GO run ./cmd/sptc-lint -perf
$GO test -race ./...
$GO test -race -tags assert $hot
