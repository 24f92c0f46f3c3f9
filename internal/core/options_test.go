package core

import (
	"context"
	"strings"
	"testing"
)

// TestTwoPassHtYMatchesDefault: the lock-free build must produce identical
// contraction results.
func TestTwoPassHtYMatchesDefault(t *testing.T) {
	x := randomSparse([]uint64{7, 6, 5, 4}, 300, 71)
	y := randomSparse([]uint64{5, 4, 8}, 200, 72)
	a, _, err := Contract(x, y, []int{2, 3}, []int{0, 1}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Contract(x, y, []int{2, 3}, []int{0, 1}, Options{Algorithm: AlgSparta, TwoPassHtY: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("nnz differs: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := 0; i < a.NNZ(); i++ {
		for m := range a.Inds {
			if a.Inds[m][i] != b.Inds[m][i] {
				t.Fatalf("coordinate mismatch at %d", i)
			}
		}
		d := a.Vals[i] - b.Vals[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("value mismatch at %d", i)
		}
	}
}

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

// TestBuildDispatchOneShotMatchesPrepared: buildYTable and PrepareY go
// through one dispatcher, so for every kernel/build selection the one-shot
// and the prepared path must pick the same table (same stats in the Report,
// bitwise-equal Z), and both must time the build.
func TestBuildDispatchOneShotMatchesPrepared(t *testing.T) {
	x := randomSparse([]uint64{9, 6, 5, 4}, 500, 91)
	y := randomSparse([]uint64{5, 4, 8, 7}, 700, 92)
	cx, cy := []int{2, 3}, []int{0, 1}
	for _, opt := range []Options{
		{Algorithm: AlgSparta},
		{Algorithm: AlgSparta, BucketsHtY: 1 << 10},
		{Algorithm: AlgSparta, Kernel: KernelChained},
		{Algorithm: AlgSparta, Kernel: KernelChained, TwoPassHtY: true, BucketsHtY: 16},
	} {
		opt.Threads = 2
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
			t.Fatalf("%+v: prepared Z differs from one-shot Z", opt)
		}
		if r1.HtYBuild <= 0 || r2.HtYBuild <= 0 || r2.HtYReused {
			t.Fatalf("%+v: build not reported: one-shot %v, prepared %v (reused %v)", opt, r1.HtYBuild, r2.HtYBuild, r2.HtYReused)
		}
		if r1.BucketsHtY != r2.BucketsHtY || r1.DistinctKeysY != r2.DistinctKeysY || r1.MaxSubNNZY != r2.MaxSubNNZY ||
			r1.EstBytesHtY != r2.EstBytesHtY || r1.BytesY != r2.BytesY {
			t.Fatalf("%+v: table stats differ:\none-shot %+v\nprepared %+v", opt, r1, r2)
		}
		// The chained build's Bytes counts slice capacities, which depend on
		// the lock order; the flat table is deterministic.
		if opt.Kernel == KernelFlat {
			if r1.BytesHtY != r2.BytesHtY {
				t.Fatalf("%+v: BytesHtY %d vs %d", opt, r1.BytesHtY, r2.BytesHtY)
			}
			if r1.EstBytesHtY < r1.BytesHtY {
				t.Fatalf("%+v: Eq. 5 estimate %d below the measured table %d", opt, r1.EstBytesHtY, r1.BytesHtY)
			}
		}
		if opt.BucketsHtY == 0 && opt.Kernel == KernelFlat && r1.BucketsHtY >= 4*r1.DistinctKeysY {
			t.Fatalf("default flat table has %d slots for %d keys: not sized from the distinct keys", r1.BucketsHtY, r1.DistinctKeysY)
		}
	}
}
