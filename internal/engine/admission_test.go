package engine

import (
	"context"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/hashtab"
	"sparta/internal/hetmem"
)

func TestPlanTiers(t *testing.T) {
	f := Footprint{HtY: 1 << 20, HtAPerThread: 1 << 20, ZLocal: 1 << 20}
	const nnzX = 1 << 20

	// Admission disabled: always the fast path, no windowing.
	tier, res := Admission{}.Plan(f, 2, nnzX, 0)
	if tier != TierDRAM || res.WindowNNZ != nnzX {
		t.Fatalf("no budget: tier %v res %+v", tier, res)
	}

	// Everything fits: DRAM tier.
	adm := Admission{DRAMBudget: 1 << 30}
	tier, res = adm.Plan(f, 2, nnzX, 0)
	if tier != TierDRAM || !res.HtYResident || res.SpillZ {
		t.Fatalf("generous budget: tier %v res %+v", tier, res)
	}

	// HtY fits but the working set does not: streamed, with a window
	// strictly smaller than X and at least the format's floor.
	adm = Admission{DRAMBudget: f.HtY + f.HtY/2}
	tier, res = adm.Plan(f, 2, nnzX, 0)
	if tier != TierStreamed {
		t.Fatalf("mid budget: tier %v", tier)
	}
	if !res.HtYResident {
		t.Fatal("streamed tier requires a resident HtY")
	}
	if res.WindowNNZ >= nnzX || res.WindowNNZ < hetmem.MinWindowNNZ {
		t.Fatalf("streamed window %d outside [%d, %d)", res.WindowNNZ, hetmem.MinWindowNNZ, nnzX)
	}
	// The windowed demand must undercut the full-footprint demand.
	if w, full := f.WindowedTotal(2, res.WindowNNZ, nnzX), f.Total(2); w >= full {
		t.Fatalf("windowed total %d not below full total %d", w, full)
	}

	// Even the table alone is too big: shed.
	adm = Admission{DRAMBudget: f.HtY / 2}
	tier, res = adm.Plan(f, 2, nnzX, 0)
	if tier != TierShed || res.HtYResident {
		t.Fatalf("tiny budget: tier %v res %+v", tier, res)
	}

	// In-use bytes shrink the effective budget: a generous budget nearly
	// consumed by admitted work sheds too.
	adm = Admission{DRAMBudget: 1 << 30}
	tier, _ = adm.Plan(f, 2, nnzX, (1<<30)-f.HtY/2)
	if tier != TierShed {
		t.Fatalf("budget consumed by in-use work: tier %v", tier)
	}
}

func TestWindowedTotal(t *testing.T) {
	f := Footprint{HtY: 1000, HtAPerThread: 100, ZLocal: 200}
	// A window spanning all of X is the full footprint.
	if got, want := f.WindowedTotal(4, 1<<20, 1<<20), f.Total(4); got != want {
		t.Fatalf("full window: %d, want %d", got, want)
	}
	// Half the window halves the per-window demand but never HtY.
	got := f.WindowedTotal(4, 1<<19, 1<<20)
	want := f.HtY + (f.HtAPerThread*4+f.ZLocal)/2
	if got != want {
		t.Fatalf("half window: %d, want %d", got, want)
	}
	// Thread defaulting matches Total.
	if f.WindowedTotal(0, 1<<20, 1<<20) != f.Total(0) {
		t.Fatal("thread defaulting differs between Total and WindowedTotal")
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierDRAM:     "dram",
		TierStreamed: "streamed",
		TierShed:     "shed",
		Tier(9):      "Tier(9)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier %d: %q, want %q", int(tier), got, want)
		}
	}
}

// TestFootprintChargesTheAccumulatorsBuckets: Eq. 6's bucket term is HtA's
// own starting size, whichever arm HtY's index took. Two Ys with the same
// nnz and nnz_Fmax — 16 keys of 4 items each, over 16 keys (direct arm) and
// over 2^21 (above htyDirectMax, hashed arm) — give the same HtA bound.
func TestFootprintChargesTheAccumulatorsBuckets(t *testing.T) {
	var fps []Footprint
	var direct []bool
	for _, keys := range []uint64{16, 1 << 21} {
		y := coo.MustNew([]uint64{keys, 4}, 64)
		x := coo.MustNew([]uint64{3, keys}, 3)
		for k := uint64(0); k < 16; k++ {
			for j := uint32(0); j < 4; j++ {
				y.Append([]uint32{uint32(k * (keys / 16)), j}, 1)
			}
		}
		x.Append([]uint32{0, 0}, 1)
		pr, err := core.PrepareY(y, []int{0}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := pr.Contract(context.Background(), x, []int{1}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pr.MaxItemLen() != 4 {
			t.Fatalf("%d keys: nnz_Fmax %d, want 4", keys, pr.MaxItemLen())
		}
		fps = append(fps, EstimateFootprint(500, pr))
		direct = append(direct, rep.HtYBuildWalls.Direct)
	}
	if !direct[0] || direct[1] {
		t.Fatalf("arms direct=%v, want the 16-key Y direct and the 2^21-key Y hashed", direct)
	}
	if fps[0].HtAPerThread != fps[1].HtAPerThread {
		t.Errorf("HtAPerThread %d (direct arm) vs %d (hashed arm), want equal", fps[0].HtAPerThread, fps[1].HtAPerThread)
	}
	if want := hashtab.EstimateHtABytes(core.AccumBuckets(), 500, 4, 1); fps[0].HtAPerThread != want {
		t.Errorf("HtAPerThread %d, want Eq. 6 over the accumulator's %d buckets: %d", fps[0].HtAPerThread, core.AccumBuckets(), want)
	}
}
