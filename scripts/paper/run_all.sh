#!/usr/bin/env bash
# run_all.sh — the paper-style grid runner: sweep the sptc-bench duel
# experiments (planner, ooc, shard) across scales and thread
# counts with a warmup pass per cell, collect every duel's JSON rows under an
# artifact directory, and print one summary table at the end.
#
# Each cell shells out to `sptc-bench -exp <e> -scale <s> -t <t> -json ...`;
# the duels themselves take min-of-3 reps internally, so the grid adds the
# axes (scale, threads, experiment), not the noise rejection. A warmup run
# (discarded) precedes each cell so first-touch page faults and the
# generator's tensor cache don't land in the first measured rep.
#
# A cell whose bench run fails does NOT abort the grid: it records an
# explicit ERR row in summary.tsv (wall and json columns both ERR, the log
# keeps the failure output) and the script exits non-zero after the sweep,
# so CI sees the failure but the surviving cells' artifacts still land.
#
# Knobs (environment):
#   EXPS     comma-separated experiments   (default planner,ooc,shard)
#   SCALES   space-separated scales        (default "4000 20000")
#   THREADS  space-separated thread counts (default "0" = all cores)
#   REPEATS  measured runs per cell        (default 1; the duels already
#            keep min-of-3 walls internally)
#   WARMUP   warmup runs per cell          (default 1)
#   OUTDIR   artifact directory            (default bench_grid)
set -euo pipefail

EXPS="${EXPS:-planner,ooc,shard}"
SCALES="${SCALES:-4000 20000}"
THREADS="${THREADS:-0}"
REPEATS="${REPEATS:-1}"
WARMUP="${WARMUP:-1}"
OUTDIR="${OUTDIR:-bench_grid}"

cd "$(dirname "$0")/../.."
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/sptc-bench" ./cmd/sptc-bench

mkdir -p "$OUTDIR"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || true)"
SUMMARY="$OUTDIR/summary.tsv"
printf 'experiment\tscale\tthreads\trun\twall_s\tjson\n' > "$SUMMARY"

FAILED=0
IFS=',' read -r -a EXP_LIST <<< "$EXPS"
for exp in "${EXP_LIST[@]}"; do
  for scale in $SCALES; do
    for t in $THREADS; do
      cell="${exp}_s${scale}_t${t}"
      for _ in $(seq 1 "$WARMUP"); do
        # Warmup failures are not fatal by themselves; the measured run
        # below records the ERR row.
        "$BIN/sptc-bench" -exp "$exp" -scale "$scale" -t "$t" >/dev/null 2>&1 || true
      done
      for run in $(seq 1 "$REPEATS"); do
        json="$OUTDIR/${cell}_r${run}.json"
        log="$OUTDIR/${cell}_r${run}.log"
        start="$(date +%s.%N)"
        if "$BIN/sptc-bench" -exp "$exp" -scale "$scale" -t "$t" \
            -commit "$COMMIT" -json "$json" > "$log" 2>&1; then
          cat "$log"
          end="$(date +%s.%N)"
          wall="$(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.2f", b-a}')"
          printf '%s\t%s\t%s\t%s\t%s\t%s\n' \
            "$exp" "$scale" "$t" "$run" "$wall" "$json" >> "$SUMMARY"
        else
          echo "ERROR: cell $cell run $run failed — see $log" >&2
          cat "$log" >&2
          rm -f "$json" # a partial JSON must not look like a result
          printf '%s\t%s\t%s\t%s\tERR\tERR\n' \
            "$exp" "$scale" "$t" "$run" >> "$SUMMARY"
          FAILED=1
        fi
      done
    done
  done
done

echo
echo "grid complete — artifacts in $OUTDIR/"
if command -v column >/dev/null 2>&1; then
  column -t -s "$(printf '\t')" "$SUMMARY"
else
  cat "$SUMMARY"
fi
if [ "$FAILED" -ne 0 ]; then
  echo "grid FAILED: one or more cells errored (ERR rows above)" >&2
  exit 1
fi
