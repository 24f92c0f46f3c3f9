GO ?= go

.PHONY: build test lint perf-baseline verify bench-json bench-grid grid-stamp grid-check loadgen slo-check slo-baseline clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the in-tree analyzer suite (cmd/sptc-lint): atomicmix,
# chunkloop, lnoverflow, hotpanic, bareerr, spanleak, ctxloop, mutexcopy,
# deferinloop, atomicalign. Zero dependencies, exits non-zero on any
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
# (the parallel HtY build and open-addressed tables live or die by this).
# The bench experiments run -short under race — at full tilt they exceed
# the test timeout on small machines — while the hot packages (hashtab,
# core, engine, plan, sortx, obs, dist, lnum, cmd/sptc-serve), which have no expensive short-mode
# skips, always race-run in full, once plain and once with the -tags assert
# invariant checks compiled in (probe bounds, load factor, arena-offset
# monotonicity, DP split partitions, estimator non-negativity, LRU recency
# generations, LN key ranges; see internal/invariant). The commands and the hot-package
# list live in scripts/check.sh, which also runs without make.
verify:
	GO="$(GO)" ./scripts/check.sh

# bench-json regenerates the committed BENCH_*.json files at the repo root
# (scale 20000 so every cell's work dwarfs scheduling noise):
# BENCH_3.json the contraction-order planner duel, BENCH_5.json the
# out-of-core streaming duel, and BENCH_6.json the sharded scatter/gather
# duel (BENCH_4.json is the loadgen SLO baseline, stamped by slo-baseline). Every file carries the shared "meta" block
# (commit, go version, GOMAXPROCS, scale, seed, reps, dataset); the commit
# is stamped here because `go run` builds carry no VCS revision.
COMMIT := $(shell git rev-parse --short HEAD 2>/dev/null)
bench-json:
	$(GO) run ./cmd/sptc-bench -exp planner -scale 20000 -commit "$(COMMIT)" -json BENCH_3.json
	$(GO) run ./cmd/sptc-bench -exp ooc -scale 20000 -commit "$(COMMIT)" -json BENCH_5.json
	$(GO) run ./cmd/sptc-bench -exp shard -scale 20000 -commit "$(COMMIT)" -json BENCH_6.json

# bench-grid sweeps the planner/ooc/shard duels across scales
# and thread counts with warmup and a summary table
# (scripts/paper/run_all.sh). Errored cells emit ERR rows and fail the run.
bench-grid:
	./scripts/paper/run_all.sh

# grid-check gates a fresh grid run against the committed per-cell
# thresholds (lint/grid_thresholds.json): every duel's speedup/slowdown
# ratios must stay within slack of the stamped values, and every
# identical_output oracle must still hold. Machine-portable because only
# ratios are gated, never absolute walls.
GRID_DIR ?= bench_grid
grid-check:
	$(GO) run ./cmd/sptc-grid -check -dir "$(GRID_DIR)" -thresholds lint/grid_thresholds.json

# grid-stamp re-stamps lint/grid_thresholds.json from the grid runs in
# GRID_DIR (after an accepted perf change). Stamping refuses cells whose
# identical_output oracle failed.
grid-stamp:
	$(GO) run ./cmd/sptc-grid -stamp -dir "$(GRID_DIR)" -thresholds lint/grid_thresholds.json

# loadgen runs one open-loop load test against a private sptc-serve
# instance (scripts/loadgen_run.sh) and writes loadgen_fresh.json plus the
# server's access log and Chrome trace next to it.
loadgen:
	./scripts/loadgen_run.sh

# slo-check gates a fresh run against the committed baseline: >50% client
# p95 regression or >1pp shed-rate increase fails (see cmd/sptc-slo; the
# default threshold absorbs same-machine run-to-run noise — tighten with
# -max-p95-pct on a quiet box).
slo-check:
	OUT=loadgen_fresh.json ./scripts/loadgen_run.sh
	$(GO) run ./cmd/sptc-slo -baseline BENCH_4.json -fresh loadgen_fresh.json

# slo-baseline re-stamps BENCH_4.json from a fresh run. sptc-slo -stamp
# refuses runs with sheds or errors, so a degraded run can never become the
# bar later changes are measured against.
slo-baseline:
	OUT=loadgen_fresh.json ./scripts/loadgen_run.sh
	$(GO) run ./cmd/sptc-slo -stamp -baseline BENCH_4.json -fresh loadgen_fresh.json
	rm -f loadgen_fresh.json

clean:
	$(GO) clean ./...
