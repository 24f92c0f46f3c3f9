package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/coo"
	"sparta/internal/gen"
	"sparta/internal/invariant"
)

// manySmallSubTensors is the shape the stage clock was built for: nf
// sub-tensors of X with three non-zeros each, against a Y that holds one
// contract key in ten, so most sub-tensors search and find nothing.
func manySmallSubTensors(nf int) (x, y *coo.Tensor) {
	const keys, perSub = 512, 3
	rng := rand.New(rand.NewSource(77))
	x = coo.MustNew([]uint64{uint64(nf), keys}, nf*perSub)
	for f := 0; f < nf; f++ {
		c := rng.Intn(keys - perSub)
		for k := 0; k < perSub; k++ {
			x.Append([]uint32{uint32(f), uint32(c + k)}, rng.Float64()+0.5)
		}
	}
	y = coo.MustNew([]uint64{keys, 64}, 0)
	for c := 0; c < keys; c += 10 {
		for j := 0; j < 8; j++ {
			y.Append([]uint32{uint32(c), uint32(rng.Intn(64))}, rng.Float64()+0.5)
		}
	}
	y.Sort(1)
	y.Dedup()
	return x, y
}

// TestStageWallsAccountForTheContraction asserts the conservation check the
// benchmark reports as core.unattributed_frac: on a shape of 60 k tiny
// sub-tensors the stage walls — input, the slowest thread's search,
// accumulation and writeback, and the gather — cover at least nine tenths of
// the wall time of the call that produced them. Per-sub-tensor clock calls
// used to leave an eighth of it between the intervals. The streamed path
// is held to the same share over a prepared X in windows of 4 096 rows, its
// per-window gathers and the final merge charged to writeback.
func TestStageWallsAccountForTheContraction(t *testing.T) {
	if testing.Short() || raceEnabled || invariant.Enabled {
		t.Skip("a wall-clock share; measured on the plain build only")
	}
	ctx := context.Background()
	x, y := manySmallSubTensors(60_000)
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	pr, err := PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	px, err := PrepareX(ctx, x, []int{1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.ContractX(ctx, px, opt); err != nil { // the reorder's wall stays out of the streamed calls
		t.Fatal(err)
	}
	for _, path := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"in memory", func() (*Report, error) {
			_, rep, err := pr.Contract(ctx, x, []int{1}, opt)
			return rep, err
		}},
		{"streamed", func() (*Report, error) {
			_, rep, err := ContractStreamX(ctx, px, 4096, pr, StreamOptions{Options: opt})
			if err == nil && rep.Windows < 10 {
				t.Fatalf("streamed in %d windows", rep.Windows)
			}
			return rep, err
		}},
	} {
		best := 0.0
		for try := 0; try < 8 && best < 0.9; try++ {
			start := time.Now()
			rep, err := path.run()
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NF < 50_000 || rep.MaxSubNNZX > 4 || 5*rep.HitsY >= rep.HitsY+rep.MissY {
				t.Fatalf("%s: shape drifted: %d sub-tensors, largest %d, %d hits of %d lookups",
					path.name, rep.NF, rep.MaxSubNNZX, rep.HitsY, rep.HitsY+rep.MissY)
			}
			var staged time.Duration
			for _, d := range rep.StageWall {
				staged += d
			}
			best = max(best, float64(staged)/float64(wall))
		}
		if best < 0.9 {
			t.Errorf("%s: stage walls cover %.1f%% of the contraction's wall time at best, want >= 90%%", path.name, 100*best)
		}
	}
}

// TestHtYBuildWallsAccountForTheBuild is the same conservation check one
// level down, on the benchmark's cold_build shape (NIPS preset, 300 k nnz,
// modes 1–3 contracted): the four build walls — one clock read per boundary —
// cover at least 95 % of Report.HtYBuild, and the fill's own time, taken
// inside its goroutine, lies inside the pack‖fill wall.
func TestHtYBuildWallsAccountForTheBuild(t *testing.T) {
	if testing.Short() || raceEnabled || invariant.Enabled {
		t.Skip("a wall-clock share; measured on the plain build only")
	}
	p, err := gen.FindPreset("NIPS")
	if err != nil {
		t.Fatal(err)
	}
	y := gen.Generate(p, 300_000, 42)
	x := gen.RandomSkewed(y.Dims, 1_000, p.Alpha, 43)
	modes := []int{1, 2, 3}
	best := 0.0
	for try := 0; try < 8 && best < 0.95; try++ {
		_, rep, err := Contract(x, y, modes, modes, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := rep.HtYBuildWalls
		if rep.HtYReused || rep.DistinctKeysY < 250_000 {
			t.Fatalf("shape drifted: reused %v, %d distinct keys", rep.HtYReused, rep.DistinctKeysY)
		}
		if w.Encode <= 0 || w.Sort <= 0 || w.Group <= 0 || w.Fill <= 0 || w.Fill > w.PackFill {
			t.Fatalf("build walls not all taken, or the fill outlasts pack‖fill: %+v", w)
		}
		best = max(best, float64(w.Sum())/float64(rep.HtYBuild))
	}
	if best < 0.95 {
		t.Errorf("build walls cover %.1f%% of HtYBuild at best, want >= 95%%", 100*best)
	}
}

// TestStageClockReadBudget pins what the stage clock costs: two reads per
// chunk of sub-tensors (opening the first search interval, closing the last)
// and three per sub-tensor that matched something in Y — none for one that
// only searched.
func TestStageClockReadBudget(t *testing.T) {
	x, y := manySmallSubTensors(20_000)
	real := stageNow
	var reads atomic.Int64
	stageNow = func() int64 { reads.Add(1); return real() }
	t.Cleanup(func() { stageNow = real })

	for _, alg := range []Algorithm{AlgSparta, AlgCOOHtA, AlgSPA, AlgTwoPhase} {
		for _, threads := range []int{1, 2} {
			reads.Store(0)
			z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: alg, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			// Z is sorted and every matched sub-tensor of X contributes a
			// distinct leading index to it.
			ptr, err := z.SubPtr(1)
			if err != nil {
				t.Fatal(err)
			}
			matched := len(ptr) - 1
			if matched == 0 || matched*2 > rep.NF {
				t.Fatalf("%v: %d of %d sub-tensors matched; the shape should leave most of them searching only", alg, matched, rep.NF)
			}
			// ForChunked's heuristic: eight chunks a thread.
			size := (rep.NF + 8*threads - 1) / (8 * threads)
			chunks := (rep.NF + size - 1) / size
			if got, budget := reads.Load(), int64(3*matched+2*chunks); got > budget {
				t.Errorf("%v threads=%d: %d clock reads for %d matched sub-tensors in %d chunks, budget %d",
					alg, threads, got, matched, chunks, budget)
			}
		}
	}
}
