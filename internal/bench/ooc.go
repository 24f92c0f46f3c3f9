package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
	"sparta/internal/gen"
	"sparta/internal/parallel"
	"sparta/internal/stats"
)

// This file is the -exp ooc duel (BENCH_5.json): the out-of-core streaming
// driver contracting an mmap-backed X whose modeled hetmem footprint is
// several times the DRAM budget, against the in-memory driver on the same
// inputs as oracle. Each row asserts the streamed output is bitwise
// identical (Equal + checksum), so the duel doubles as the end-to-end proof
// that window-aligned streaming preserves the paper's exact pipeline.

// oocDuelRow is the streamed-vs-in-memory cell.
type oocDuelRow struct {
	NNZX int `json:"nnzx"`
	NNZY int `json:"nnzy"`
	// FootprintBytes is the Eq. 5/6 modeled demand of the unwindowed run;
	// BudgetBytes the DRAM budget the streamed run was planned into.
	FootprintBytes      uint64  `json:"footprint_bytes"`
	BudgetBytes         uint64  `json:"budget_bytes"`
	FootprintOverBudget float64 `json:"footprint_over_budget"`
	Tier                string  `json:"tier"`
	WindowNNZ           int     `json:"window_nnz"`
	Windows             int     `json:"windows"`
	SpilledZ            bool    `json:"spilled_z"`
	// ZeroCopyMmap reports the X file really streamed through an mmap view
	// (false only on hosts without mmap, where the heap fallback ran).
	ZeroCopyMmap bool `json:"zero_copy_mmap"`
	// Walls are minima over oocDuelReps; the streamed wall includes opening
	// the mapped file and the final run merge (or spill materialization).
	StreamedNS int64   `json:"streamed_ns"`
	InMemNS    int64   `json:"inmem_ns"`
	Slowdown   float64 `json:"slowdown_streamed_over_inmem"`
	NNZZ       int     `json:"nnzz"`
	Checksum   string  `json:"checksum"`
	// Identical reports the streamed tensor is bitwise equal to the
	// in-memory oracle (dims, coordinates, values, in order).
	Identical bool `json:"identical_output"`
}

// oocDuelFile is the BENCH_5.json schema.
type oocDuelFile struct {
	Meta    Meta         `json:"meta"`
	Configs []oocDuelRow `json:"configs"`
}

// oocDuelReps matches the other duels: min wall across reps per driver.
const oocDuelReps = 3

// oocBudgetDivisor sets the DRAM budget to footprint/5, so the modeled
// demand is 5x the budget — comfortably past the >=4x acceptance bar while
// keeping HtY (the one object that must fit whole) resident.
const oocBudgetDivisor = 5

// checksum is the shared 9-significant-digit output fingerprint: enough to
// prove two drivers computed the same result, insensitive to
// accumulation-order ULPs (which cannot occur here anyway — both drivers
// run the identical per-sub-tensor kernel).
func checksum(z *coo.Tensor) string {
	sum := 0.0
	for _, v := range z.Vals {
		sum += math.Abs(v)
	}
	return fmt.Sprintf("%.9e", sum)
}

// OOC runs the out-of-core streaming duel (no JSON output).
func OOC(w io.Writer, c Config) error { return OOCJSON(w, c, "") }

// OOCJSON is the -exp ooc duel. X is written as a sorted v2 SPTN file in
// contraction order (free modes first), reopened as an mmap view, and
// contracted window by window under a DRAM budget one fifth of the modeled
// footprint; the in-memory driver on the original heap tensor is the
// oracle. When jsonPath is non-empty the row is written there
// (BENCH_5.json).
func OOCJSON(w io.Writer, c Config, jsonPath string) error {
	threads := c.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	scale := c.Scale
	if scale < 4000 {
		scale = 4000
	}
	// X: mode 0 is a wide free mode (many sub-tensor boundaries to cut
	// windows at), last mode is the contracted one — already in the
	// streaming driver's free-first order, so the file is exactly what
	// Mapped.Stream walks. Y is small: the whole point of the tier is that
	// HtY stays resident while everything else is windowed.
	nnzX := 4 * scale
	x := gen.Random([]uint64{2048, 48, 64}, nnzX, c.Seed)
	y := gen.Random([]uint64{64, 32}, scale/2+64, c.Seed+1)
	cmodesX, cmodesY := []int{2}, []int{0}

	dir, err := os.MkdirTemp("", "sptc-ooc-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	xPath := filepath.Join(dir, "x.sptn")
	xs := x.Clone()
	xs.Sort(threads)
	if err := xs.SaveBinV2(xPath); err != nil {
		return err
	}

	fmt.Fprintf(w, "Out-of-core duel: mmap-streamed vs in-memory, footprint %dx the DRAM budget, %d reps (min)\n",
		oocBudgetDivisor, oocDuelReps)
	file := oocDuelFile{Meta: c.meta("ooc",
		fmt.Sprintf("synthetic X 2048x48x64 (nnz=%d) x Y 64x32 (nnz=%d), contract X mode 2 vs Y mode 0, budget=footprint/%d",
			x.NNZ(), y.NNZ(), oocBudgetDivisor), oocDuelReps)}
	tab := stats.NewTable("Footprint", "Budget", "Window", "Windows", "SpillZ", "Streamed", "InMem", "Slowdown", "NNZZ", "Identical")

	opt := core.Options{
		Algorithm: core.AlgSparta,
		Threads:   threads,
		Tracer:    c.Tracer,
		Metrics:   c.Metrics,
	}
	pr, err := core.PrepareY(y, cmodesY, opt)
	if err != nil {
		return fmt.Errorf("ooc: prepare: %w", err)
	}
	fp := engine.EstimateFootprint(x.NNZ(), pr)
	budget := fp.Total(threads) / oocBudgetDivisor
	adm := engine.Admission{DRAMBudget: budget}
	tier, res := adm.Plan(fp, threads, x.NNZ(), 0)
	if tier != engine.TierStreamed {
		return fmt.Errorf("ooc: planned tier %v under budget %d (footprint %d), want streamed — dataset too small for the duel",
			tier, budget, fp.Total(threads))
	}

	// Oracle: the in-memory driver on the original heap tensor.
	var zMem *coo.Tensor
	var memWall int64
	for rep := 0; rep < oocDuelReps; rep++ {
		t0 := time.Now()
		z, _, err := pr.Contract(context.Background(), x, cmodesX, opt)
		if err != nil {
			return fmt.Errorf("ooc: in-memory: %w", err)
		}
		wall := int64(time.Since(t0))
		if rep == 0 || wall < memWall {
			memWall = wall
		}
		if zMem != nil && !z.Equal(zMem) {
			return fmt.Errorf("ooc: in-memory: unstable output across reps")
		}
		zMem = z
	}

	// Streamed: reopen the mapped file each rep so the wall charges the
	// whole tier — open, window walk, and run merge/materialization.
	var zStr *coo.Tensor
	var strWall int64
	var row oocDuelRow
	for rep := 0; rep < oocDuelReps; rep++ {
		t0 := time.Now()
		m, err := coo.OpenMapped(xPath)
		if err != nil {
			return fmt.Errorf("ooc: open mapped: %w", err)
		}
		st, err := m.Stream(res.WindowNNZ)
		if err != nil {
			return fmt.Errorf("ooc: stream: %w", err)
		}
		z, rep2, err := core.ContractStream(context.Background(), st, pr, core.StreamOptions{
			Options:  opt,
			SpillZ:   res.SpillZ,
			SpillDir: dir,
		})
		if err != nil {
			return fmt.Errorf("ooc: streamed: %w", err)
		}
		wall := int64(time.Since(t0))
		if rep == 0 || wall < strWall {
			strWall = wall
		}
		if zStr != nil && !z.Equal(zStr) {
			return fmt.Errorf("ooc: streamed: unstable output across reps")
		}
		zStr = z
		row.Windows = rep2.Windows
		row.SpilledZ = rep2.SpilledZ
		row.ZeroCopyMmap = m.ZeroCopy()
		// A spilled Z is a view into the materialized output file; the
		// mapped X can be closed, the Z mapping keeps itself alive.
		_ = m.Close()
	}

	row.NNZX = x.NNZ()
	row.NNZY = y.NNZ()
	row.FootprintBytes = fp.Total(threads)
	row.BudgetBytes = budget
	row.FootprintOverBudget = float64(fp.Total(threads)) / float64(budget)
	row.Tier = tier.String()
	row.WindowNNZ = res.WindowNNZ
	row.StreamedNS = strWall
	row.InMemNS = memWall
	row.Slowdown = float64(strWall) / float64(memWall)
	row.NNZZ = zStr.NNZ()
	row.Checksum = checksum(zStr)
	row.Identical = zStr.Equal(zMem) && row.Checksum == checksum(zMem)
	if !row.Identical {
		return fmt.Errorf("ooc: streamed output differs from in-memory oracle (nnz %d vs %d, checksum %s vs %s)",
			zStr.NNZ(), zMem.NNZ(), row.Checksum, checksum(zMem))
	}
	if row.Windows < 2 {
		return fmt.Errorf("ooc: streamed run used %d window(s) — not an out-of-core execution", row.Windows)
	}
	file.Configs = append(file.Configs, row)
	tab.Row(row.FootprintBytes, row.BudgetBytes, row.WindowNNZ, row.Windows,
		row.SpilledZ, time.Duration(strWall), time.Duration(memWall),
		fmt.Sprintf("%.2fx", row.Slowdown), row.NNZZ, row.Identical)
	tab.Render(w)
	fmt.Fprintln(w, "Slowdown = streamed wall / in-memory wall (streamed includes mmap open and run merge).")
	if jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
