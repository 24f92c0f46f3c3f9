GO ?= go

.PHONY: build test lint perf-baseline verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the in-tree analyzer suite (cmd/sptc-lint): atomicmix,
# chunkloop, lnoverflow, hotpanic, bareerr, spanleak, ctxloop,
# deferinloop, atomicalign (go vet's copylocks check, which verify runs first,
# covers lock and atomic values copied by value). Zero dependencies, exits non-zero on any
# unsuppressed finding. The -perf pass then diffs the compiler's heap-escape
# and bounds-check diagnostics over the hot-path packages against the
# committed budget (lint/hotpath_budget.json): any new escape or bounds
# check in a budgeted function fails here, not in a flamegraph.
lint:
	$(GO) run ./cmd/sptc-lint ./...
	$(GO) run ./cmd/sptc-lint -perf

# perf-baseline deliberately re-stamps lint/hotpath_budget.json from the
# current compiler diagnostics (after an accepted hot-path change). The
# marquee loops in perfClean (cmd/sptc-lint/perf.go) must still be at zero
# escapes and zero bounds checks or the stamp is refused.
perf-baseline:
	$(GO) run ./cmd/sptc-lint -perf-baseline

# verify is the pre-merge gate: full build, the benchmark module's vet and
# smoke test (it has its own go.mod, so nothing else compiles the harness
# against the library), gofmt -l, vet, the sptc-lint analyzers,
# the hot-path performance budget, and the race detector over every package
# (the parallel HtY build and open-addressed tables live or die by this),
# then the hot packages (hashtab, core, engine, plan, sortx, obs, dist,
# lnum, coo, cmd/sptc-serve) once more with the -tags assert invariant
# checks compiled in (probe bounds, load factor, arena-offset monotonicity,
# DP split partitions, estimator non-negativity, LRU recency generations, LN
# key ranges, the sort's post-condition; see internal/invariant). The commands and the hot-package
# list live in scripts/check.sh, which also runs without make. The only
# performance gate is the benchmark, bash benchmark/run.sh (BENCHMARK.json).
verify:
	GO="$(GO)" ./scripts/check.sh

clean:
	$(GO) clean ./...
