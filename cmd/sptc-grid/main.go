// Command sptc-grid gates the bench-grid artifacts (scripts/paper/run_all.sh)
// against committed per-cell thresholds, the same stamp/diff discipline
// sptc-slo applies to the loadgen baseline:
//
//	make bench-grid                 # sweep the duels into bench_grid/
//	make grid-check                 # gate against lint/grid_thresholds.json
//	make grid-stamp                 # re-stamp after an accepted perf change
//
// A grid cell is one (experiment, scale, threads) run — the JSON file
// `<exp>_s<scale>_t<threads>_rN.json`. Within each cell the gate walks every
// duel row generically:
//
//   - fields named "speedup*" fold to the cell's minimum; the stamped bound
//     is that minimum times the slack, and a fresh run fails when any fresh
//     minimum drops below the bound.
//   - fields containing "slowdown" fold to the maximum; the stamped bound is
//     the maximum divided by the slack (i.e. allowed to grow by 1/slack).
//   - "identical_output" must be true in every row, stamping or checking —
//     a correctness oracle never gets slack.
//
// Only ratios are gated, never absolute walls, so the committed thresholds
// transfer across machines; the default slack of 0.5 absorbs run-to-run
// noise on shared boxes. Checking also refuses any grid whose summary.tsv
// recorded ERR cells. Cells present in the thresholds but missing from the
// fresh run are skipped unless -require-all — CI sweeps a small subset of
// the full grid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

type cellBounds struct {
	// MinSpeedup maps a speedup field name to the lowest value any row of
	// the cell may report.
	MinSpeedup map[string]float64 `json:"min_speedup,omitempty"`
	// MaxSlowdown maps a slowdown field name to the highest allowed value.
	MaxSlowdown map[string]float64 `json:"max_slowdown,omitempty"`
}

type thresholdsFile struct {
	// Slack records what the bounds were stamped with, for humans reading
	// the file; the bounds themselves already include it.
	Slack float64                `json:"slack"`
	Cells map[string]*cellBounds `json:"cells"`
}

// cellStats is one cell's folded fresh measurements.
type cellStats struct {
	minSpeedup   map[string]float64
	maxSlowdown  map[string]float64
	notIdentical []string // files with a failed identical_output oracle
	files        int
}

var cellRe = regexp.MustCompile(`^(.+)_r\d+\.json$`)

func main() {
	var (
		stamp      = flag.Bool("stamp", false, "re-stamp the thresholds file from the grid runs in -dir")
		check      = flag.Bool("check", false, "gate the grid runs in -dir against the thresholds file")
		dirs       = flag.String("dir", "bench_grid", "comma-separated grid artifact directories")
		thresholds = flag.String("thresholds", "lint/grid_thresholds.json", "committed thresholds file")
		slack      = flag.Float64("slack", 0.5, "stamp: speedup bounds shrink to measured*slack, slowdown bounds grow to measured/slack")
		requireAll = flag.Bool("require-all", false, "check: fail when a stamped cell is missing from the fresh grid")
	)
	flag.Parse()
	if *stamp == *check {
		fmt.Fprintln(os.Stderr, "sptc-grid: exactly one of -stamp or -check is required")
		os.Exit(2)
	}
	if *slack <= 0 || *slack > 1 {
		fmt.Fprintln(os.Stderr, "sptc-grid: -slack must be in (0, 1]")
		os.Exit(2)
	}

	cells, errs := collect(strings.Split(*dirs, ","))
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "sptc-grid: %v\n", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "sptc-grid: no grid cells found (run make bench-grid first)")
		os.Exit(1)
	}

	if *stamp {
		if err := doStamp(cells, *thresholds, *slack); err != nil {
			fmt.Fprintf(os.Stderr, "sptc-grid: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := doCheck(cells, *thresholds, *requireAll); err != nil {
		fmt.Fprintf(os.Stderr, "sptc-grid: %v\n", err)
		os.Exit(1)
	}
}

// collect folds every grid JSON in the given directories into per-cell
// stats, and surfaces ERR rows from each directory's summary.tsv.
func collect(dirs []string) (map[string]*cellStats, []error) {
	cells := map[string]*cellStats{}
	var errs []error
	for _, dir := range dirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		if sum, err := os.ReadFile(filepath.Join(dir, "summary.tsv")); err == nil {
			for _, line := range strings.Split(string(sum), "\n") {
				if strings.Contains(line, "\tERR") {
					errs = append(errs, fmt.Errorf("%s/summary.tsv records a failed cell: %s", dir, strings.TrimSpace(line)))
				}
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, f := range files {
			m := cellRe.FindStringSubmatch(filepath.Base(f))
			if m == nil {
				continue // not a grid cell artifact
			}
			cell := m[1]
			st := cells[cell]
			if st == nil {
				st = &cellStats{minSpeedup: map[string]float64{}, maxSlowdown: map[string]float64{}}
				cells[cell] = st
			}
			if err := foldFile(f, st); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", f, err))
			}
		}
	}
	return cells, errs
}

// foldFile walks one duel JSON generically: every top-level array of objects
// (or a top-level array) contributes rows; speedup fields fold to minima,
// slowdown fields to maxima, identical_output oracles are collected.
func foldFile(path string, st *cellStats) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rows []map[string]any
	var top any
	if err := json.Unmarshal(raw, &top); err != nil {
		return err
	}
	appendRows := func(arr []any) {
		for _, r := range arr {
			if obj, ok := r.(map[string]any); ok {
				rows = append(rows, obj)
			}
		}
	}
	switch v := top.(type) {
	case []any:
		appendRows(v)
	case map[string]any:
		for _, field := range v {
			if arr, ok := field.([]any); ok {
				appendRows(arr)
			}
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no duel rows found")
	}
	st.files++
	for _, row := range rows {
		for k, v := range row {
			if k == "identical_output" {
				if ok, isBool := v.(bool); isBool && !ok {
					st.notIdentical = append(st.notIdentical, filepath.Base(path))
				}
				continue
			}
			f, isNum := v.(float64)
			if !isNum {
				continue
			}
			switch {
			case strings.HasPrefix(k, "speedup"):
				if cur, seen := st.minSpeedup[k]; !seen || f < cur {
					st.minSpeedup[k] = f
				}
			case strings.Contains(k, "slowdown"):
				if cur, seen := st.maxSlowdown[k]; !seen || f > cur {
					st.maxSlowdown[k] = f
				}
			}
		}
	}
	return nil
}

func doStamp(cells map[string]*cellStats, path string, slack float64) error {
	out := thresholdsFile{Slack: slack, Cells: map[string]*cellBounds{}}
	for name, st := range cells {
		if len(st.notIdentical) > 0 {
			return fmt.Errorf("refusing to stamp: cell %s has identical_output=false in %s — fix correctness first",
				name, strings.Join(st.notIdentical, ", "))
		}
		b := &cellBounds{}
		if len(st.minSpeedup) > 0 {
			b.MinSpeedup = map[string]float64{}
			for k, v := range st.minSpeedup {
				b.MinSpeedup[k] = round3(v * slack)
			}
		}
		if len(st.maxSlowdown) > 0 {
			b.MaxSlowdown = map[string]float64{}
			for k, v := range st.maxSlowdown {
				b.MaxSlowdown[k] = round3(v / slack)
			}
		}
		out.Cells[name] = b
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("stamped %d cells into %s (slack %.2f)\n", len(out.Cells), path, slack)
	return nil
}

func doCheck(cells map[string]*cellStats, path string, requireAll bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading thresholds (run make grid-stamp first?): %w", err)
	}
	var th thresholdsFile
	if err := json.Unmarshal(raw, &th); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	var violations []string
	checked := 0
	for _, name := range sortedKeys(th.Cells) {
		bounds := th.Cells[name]
		st, present := cells[name]
		if !present {
			if requireAll {
				violations = append(violations, fmt.Sprintf("%s: stamped cell missing from the fresh grid", name))
			}
			continue
		}
		checked++
		if len(st.notIdentical) > 0 {
			violations = append(violations, fmt.Sprintf("%s: identical_output=false in %s",
				name, strings.Join(st.notIdentical, ", ")))
		}
		for _, k := range sortedKeys(bounds.MinSpeedup) {
			bound := bounds.MinSpeedup[k]
			got, seen := st.minSpeedup[k]
			if !seen {
				violations = append(violations, fmt.Sprintf("%s: field %s missing from the fresh run", name, k))
				continue
			}
			if got < bound {
				violations = append(violations, fmt.Sprintf("%s: %s = %.3f below the stamped bound %.3f", name, k, got, bound))
			}
		}
		for _, k := range sortedKeys(bounds.MaxSlowdown) {
			bound := bounds.MaxSlowdown[k]
			got, seen := st.maxSlowdown[k]
			if !seen {
				violations = append(violations, fmt.Sprintf("%s: field %s missing from the fresh run", name, k))
				continue
			}
			if got > bound {
				violations = append(violations, fmt.Sprintf("%s: %s = %.3f above the stamped bound %.3f", name, k, got, bound))
			}
		}
	}
	// Fresh cells with no stamped bounds are advisory: a new experiment
	// lands, then gets stamped.
	for _, name := range sortedKeys(cells) {
		if _, ok := th.Cells[name]; !ok {
			fmt.Printf("note: cell %s has no stamped thresholds (run make grid-stamp to adopt it)\n", name)
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", v)
		}
		return fmt.Errorf("%d grid threshold violation(s)", len(violations))
	}
	if checked == 0 {
		return fmt.Errorf("no stamped cell matched the fresh grid — nothing was gated")
	}
	fmt.Printf("grid check passed: %d cell(s) within thresholds\n", checked)
	return nil
}

func round3(v float64) float64 {
	return float64(int(v*1000+0.5)) / 1000
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
