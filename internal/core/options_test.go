package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparta/internal/dense"
)

// TestTwoPhaseReport: the symbolic phase must be timed, and two-phase must
// report no thread-local output buffers (its one advantage over Sparta).
func TestTwoPhaseReport(t *testing.T) {
	x := randomSparse([]uint64{9, 8, 7}, 400, 81)
	y := randomSparse([]uint64{7, 9}, 150, 82)
	z, rep, err := Contract(x, y, []int{2}, []int{0}, Options{Algorithm: AlgTwoPhase, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Symbolic <= 0 {
		t.Error("symbolic phase not timed")
	}
	if rep.BytesZLocal != 0 {
		t.Errorf("two-phase reported %d Zlocal bytes", rep.BytesZLocal)
	}
	if rep.Total() <= rep.Symbolic {
		t.Error("Total must include the numeric stages")
	}
	// Exact allocation: capacity equals length on every output column.
	for m := range z.Inds {
		if cap(z.Inds[m]) != z.NNZ() {
			t.Errorf("mode %d over-allocated: cap %d for %d non-zeros", m, cap(z.Inds[m]), z.NNZ())
		}
	}
	// Sparta on the same inputs does carry Zlocal.
	_, repS, err := Contract(x, y, []int{2}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if repS.BytesZLocal == 0 && repS.NNZZ > 0 {
		t.Error("Sparta reported no Zlocal bytes")
	}
	if repS.Symbolic != 0 {
		t.Error("Sparta reported a symbolic phase")
	}
}

// TestMaxOutputNNZ: the guard trips before Z is materialized and passes
// when the bound is sufficient.
func TestMaxOutputNNZ(t *testing.T) {
	x := randomSparse([]uint64{10, 8}, 60, 73)
	y := randomSparse([]uint64{8, 10}, 60, 74)
	z, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta, MaxOutputNNZ: z.NNZ() - 1})
	if err == nil || !strings.Contains(err.Error(), "MaxOutputNNZ") {
		t.Fatalf("guard did not trip: %v", err)
	}
	z2, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta, MaxOutputNNZ: z.NNZ()})
	if err != nil {
		t.Fatalf("exact bound rejected: %v", err)
	}
	if !z.Equal(z2) {
		t.Fatal("bounded run differs")
	}
	// The guard applies to the baselines too.
	for _, alg := range []Algorithm{AlgSPA, AlgCOOHtA, AlgTwoPhase} {
		_, _, err = Contract(x, y, []int{1}, []int{0}, Options{Algorithm: alg, MaxOutputNNZ: 1})
		if err == nil {
			t.Fatalf("%v: guard did not trip", alg)
		}
	}
}

// TestBuildDispatchOneShotMatchesPrepared: the one-shot Contract and a first
// use of PrepareY's table must report the same table (same stats, bitwise-equal
// Z), both must time the build and count it as stage-① work, and the table is
// sized from Y's distinct keys. The second shape is a tiny X against a large
// Y, where a first use that left the build out of StageInput shows plainly.
func TestBuildDispatchOneShotMatchesPrepared(t *testing.T) {
	for _, c := range []struct {
		xd, yd   []uint64
		nnzX     int
		nnzY     int
		sx, sy   int64
		buildMin time.Duration
	}{
		{[]uint64{9, 6, 5, 4}, []uint64{5, 4, 8, 7}, 500, 700, 91, 92, 0},
		{[]uint64{9, 6, 5, 4}, []uint64{5, 4, 1000, 1000}, 20, 200000, 93, 94, time.Millisecond},
	} {
		x := randomSparse(c.xd, c.nnzX, c.sx)
		y := randomSparse(c.yd, c.nnzY, c.sy)
		cx, cy := []int{2, 3}, []int{0, 1}
		opt := Options{Algorithm: AlgSparta, Threads: 2}
		z1, r1, err := Contract(x, y, cx, cy, opt)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := PrepareY(y, cy, opt)
		if err != nil {
			t.Fatal(err)
		}
		z2, r2, err := pr.Contract(context.Background(), x, cx, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !z1.Equal(z2) {
			t.Fatalf("nnzY %d: prepared Z differs from one-shot Z", c.nnzY)
		}
		if r1.HtYBuild <= 0 || r2.HtYBuild <= 0 || r1.HtYReused || r2.HtYReused {
			t.Fatalf("nnzY %d: build not reported: one-shot %v (reused %v), prepared %v (reused %v)",
				c.nnzY, r1.HtYBuild, r1.HtYReused, r2.HtYBuild, r2.HtYReused)
		}
		if r2.HtYBuild < c.buildMin {
			t.Fatalf("nnzY %d: build of %v is too short to tell stage ① apart", c.nnzY, r2.HtYBuild)
		}
		for _, r := range []*Report{r1, r2} {
			if r.StageWall[StageInput] < r.HtYBuild || r.StageCPU[StageInput] < r.HtYBuild {
				t.Fatalf("nnzY %d: StageInput wall %v / cpu %v leaves out the HtY build %v",
					c.nnzY, r.StageWall[StageInput], r.StageCPU[StageInput], r.HtYBuild)
			}
		}
		if r1.BucketsHtY != r2.BucketsHtY || r1.DistinctKeysY != r2.DistinctKeysY || r1.MaxSubNNZY != r2.MaxSubNNZY ||
			r1.EstBytesHtY != r2.EstBytesHtY || r1.BytesY != r2.BytesY || r1.BytesHtY != r2.BytesHtY {
			t.Fatalf("nnzY %d: table stats differ:\none-shot %+v\nprepared %+v", c.nnzY, r1, r2)
		}
		if r1.EstBytesHtY < r1.BytesHtY {
			t.Fatalf("nnzY %d: Eq. 5 estimate %d below the measured table %d", c.nnzY, r1.EstBytesHtY, r1.BytesHtY)
		}
		if r1.BucketsHtY >= 4*r1.DistinctKeysY {
			t.Fatalf("nnzY %d: table has %d slots for %d keys: not sized from the distinct keys", c.nnzY, r1.BucketsHtY, r1.DistinctKeysY)
		}
	}
}

// TestZeroOptionsIsSparta: the zero Options is the production configuration —
// it selects AlgSparta, matches the dense reference, and is accepted by the
// prepared and streamed entry points, which serve AlgSparta only.
func TestZeroOptionsIsSparta(t *testing.T) {
	if reflect.TypeOf(Options{}).NumField() != 7 {
		t.Fatalf("Options has %d fields, want 7", reflect.TypeOf(Options{}).NumField())
	}
	x := randomSparse([]uint64{9, 6, 5}, 200, 93)
	y := randomSparse([]uint64{5, 8, 7}, 150, 94)
	cx, cy := []int{2}, []int{0}
	z, rep, err := Contract(x, y, cx, cy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != AlgSparta {
		t.Fatalf("zero Options ran %v, want %v", rep.Algorithm, AlgSparta)
	}
	dx, _ := dense.FromCOO(x, 1<<24)
	dy, _ := dense.FromCOO(y, 1<<24)
	want, err := dense.Contract(dx, dy, cx, cy, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dense.FromCOO(z, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := dense.MaxAbsDiff(got, want); err != nil || diff > 1e-9 {
		t.Fatalf("zero Options differs from the dense reference: diff %v, err %v", diff, err)
	}

	pr, err := PrepareY(y, cy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zp, _, err := pr.Contract(context.Background(), x, cx, Options{})
	if err != nil {
		t.Fatalf("PreparedY.Contract rejected the zero Options: %v", err)
	}
	px, err := PrepareX(context.Background(), x, cx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zs, _, err := ContractStreamX(context.Background(), px, 50, pr, StreamOptions{})
	if err != nil {
		t.Fatalf("ContractStreamX rejected the zero Options: %v", err)
	}
	if !zp.Equal(z) || !zs.Equal(z) {
		t.Fatal("prepared or streamed output differs from one-shot under the zero Options")
	}
}
