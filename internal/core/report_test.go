package core

import (
	"strings"
	"testing"
	"time"

	"sparta/internal/coo"
)

// TestCounterInvariants checks the Eq. 3/4 bookkeeping across algorithms:
// every X non-zero resolves to a hit or a miss, every product lands in the
// accumulator exactly once, and the output size equals the number of
// accumulator inserts.
func TestCounterInvariants(t *testing.T) {
	x := randomSparse([]uint64{9, 8, 7, 6}, 300, 31)
	y := randomSparse([]uint64{7, 6, 9, 5}, 300, 32)
	for _, alg := range allAlgorithms {
		for _, threads := range []int{1, 4} {
			z, rep, err := Contract(x, y, []int{2, 3}, []int{0, 1}, Options{Algorithm: alg, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if rep.HitsY+rep.MissY != uint64(x.NNZ()) {
				t.Errorf("%v: hits+miss = %d, want nnzX %d", alg, rep.HitsY+rep.MissY, x.NNZ())
			}
			if rep.Products != rep.AccumHits+rep.AccumMiss {
				t.Errorf("%v: products %d != accum hits %d + miss %d",
					alg, rep.Products, rep.AccumHits, rep.AccumMiss)
			}
			if rep.AccumMiss != uint64(z.NNZ()) {
				t.Errorf("%v: accumulator inserts %d != nnzZ %d", alg, rep.AccumMiss, z.NNZ())
			}
			switch alg {
			case AlgSparta, AlgTwoPhase:
				if rep.ProbesHtY == 0 || rep.SearchSteps != 0 {
					t.Errorf("%v: probe counters wrong: %d/%d", alg, rep.ProbesHtY, rep.SearchSteps)
				}
				// Linear-probe table with load factor <= 1/2: average
				// probes per lookup stay O(1); 8x nnzX is a generous ceiling.
				if rep.ProbesHtY > 8*uint64(x.NNZ()) {
					t.Errorf("%v: %d probes for %d lookups", alg, rep.ProbesHtY, x.NNZ())
				}
			case AlgSPA, AlgCOOHtA:
				if rep.SearchSteps == 0 || rep.ProbesHtY != 0 {
					t.Errorf("%v: search counters wrong: %d/%d", alg, rep.SearchSteps, rep.ProbesHtY)
				}
				// Linear search visits at most every distinct Y key per
				// X non-zero — the O(nnzX * nnzY) term of Eq. 3.
				max := uint64(x.NNZ()) * uint64(rep.DistinctKeysY)
				if rep.SearchSteps > max {
					t.Errorf("%v: %d search steps exceeds bound %d", alg, rep.SearchSteps, max)
				}
			}
			if alg == AlgSPA && rep.SPACompares == 0 && rep.AccumHits > 0 {
				t.Errorf("%v: SPA compares not counted", alg)
			}
			if rep.BytesZ == 0 && z.NNZ() > 0 {
				t.Errorf("%v: BytesZ not recorded", alg)
			}
		}
	}
}

// TestEq4BeatsEq3 checks the complexity claim behind Figure 4: on the same
// inputs, Sparta's index-search work (hash probes) is far below the
// baseline's linear-search work once Y has many distinct contract keys.
func TestEq4BeatsEq3(t *testing.T) {
	x := randomSparse([]uint64{40, 50, 60}, 2000, 33)
	y := randomSparse([]uint64{50, 60, 30}, 2000, 34)
	_, repSPA, err := Contract(x, y, []int{1, 2}, []int{0, 1}, Options{Algorithm: AlgSPA})
	if err != nil {
		t.Fatal(err)
	}
	_, repSparta, err := Contract(x, y, []int{1, 2}, []int{0, 1}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if repSparta.ProbesHtY*10 > repSPA.SearchSteps {
		t.Fatalf("hash probes %d not << linear steps %d", repSparta.ProbesHtY, repSPA.SearchSteps)
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgSPA.String() != "COOY+SPA" || AlgCOOHtA.String() != "COOY+HtA" || AlgSparta.String() != "HtY+HtA" {
		t.Fatal("algorithm names drifted from the paper's")
	}
	if AlgTwoPhase.String() != "TwoPhase" {
		t.Fatal("two-phase algorithm name drifted")
	}
	if !strings.Contains(Algorithm(9).String(), "9") {
		t.Fatal("unknown algorithm should render its number")
	}
}

func TestStageString(t *testing.T) {
	want := []string{"Input Processing", "Index Search", "Accumulation", "Writeback", "Output Sorting"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q", s, s.String())
		}
	}
	if !strings.Contains(Stage(9).String(), "9") {
		t.Fatal("unknown stage should render its number")
	}
}

func TestReportDerived(t *testing.T) {
	r := &Report{}
	r.StageWall[StageInput] = time.Second
	r.StageWall[StageSearch] = 2 * time.Second
	r.StageWall[StageAccum] = 3 * time.Second
	r.StageWall[StageWrite] = time.Second
	r.StageWall[StageSort] = time.Second
	if r.Total() != 8*time.Second {
		t.Fatalf("Total = %v", r.Total())
	}
	if r.ComputeTime() != 6*time.Second {
		t.Fatalf("ComputeTime = %v", r.ComputeTime())
	}
	bd := r.Breakdown()
	if !strings.Contains(bd, "Index Search 25.0%") {
		t.Fatalf("Breakdown = %q", bd)
	}
	empty := &Report{}
	if !strings.Contains(empty.Breakdown(), "no time") {
		t.Fatal("empty breakdown should say so")
	}
	r.BytesX, r.BytesHtY = 10, 20
	if r.PeakBytes() != 30 {
		t.Fatalf("PeakBytes = %d", r.PeakBytes())
	}
}

func TestErrBadAlgorithm(t *testing.T) {
	err := errBadAlgorithm(7)
	if !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("error text %q", err.Error())
	}
}

// TestMaxSubStats verifies NF / nnz_Fmax bookkeeping on a crafted tensor:
// two sub-tensors over the free mode, the larger holding three non-zeros.
func TestMaxSubStats(t *testing.T) {
	x := coo.MustNew([]uint64{5, 4}, 0)
	x.Append([]uint32{0, 0}, 1)
	x.Append([]uint32{0, 1}, 1)
	x.Append([]uint32{0, 2}, 1)
	x.Append([]uint32{3, 1}, 1)
	y := randomSparse([]uint64{4, 9}, 20, 35)
	_, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NF != 2 {
		t.Fatalf("NF = %d, want 2", rep.NF)
	}
	if rep.MaxSubNNZX != 3 {
		t.Fatalf("MaxSubNNZX = %d, want 3", rep.MaxSubNNZX)
	}
	if rep.MaxSubNNZY == 0 || rep.DistinctKeysY == 0 || rep.BucketsHtY == 0 {
		t.Fatalf("Y-side stats missing: %+v", rep)
	}
}
