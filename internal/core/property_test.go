package core

import (
	"math"
	"testing"

	"sparta/internal/coo"
)

// TestModeOrderInvariance: permuting the modes of X (and remapping the
// contract-mode list accordingly) must not change the *set* of output
// non-zeros when the free-mode order is preserved. This is the algebraic
// identity behind the paper's input-processing stage: permutation is
// bookkeeping, not computation.
func TestModeOrderInvariance(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		x := randomSparse([]uint64{5, 6, 4, 3}, 60, int64(400+trial))
		y := randomSparse([]uint64{4, 3, 7}, 30, int64(500+trial))
		ref, _, err := Contract(x, y, []int{2, 3}, []int{0, 1}, Options{Algorithm: AlgSparta})
		if err != nil {
			t.Fatal(err)
		}

		// Swap X's two contract modes (modes 2 and 3) and the pairing.
		xp := x.Clone()
		if err := xp.Permute([]int{0, 1, 3, 2}); err != nil {
			t.Fatal(err)
		}
		z2, _, err := Contract(xp, y, []int{3, 2}, []int{0, 1}, Options{Algorithm: AlgSparta})
		if err != nil {
			t.Fatal(err)
		}
		if !tensorsAlmostEqual(ref, z2) {
			t.Fatalf("trial %d: contract-mode permutation changed the result", trial)
		}

		// Also permute Y's contract modes and the pairing order together.
		yp := y.Clone()
		if err := yp.Permute([]int{1, 0, 2}); err != nil {
			t.Fatal(err)
		}
		z3, _, err := Contract(x, yp, []int{2, 3}, []int{1, 0}, Options{Algorithm: AlgSparta})
		if err != nil {
			t.Fatal(err)
		}
		if !tensorsAlmostEqual(ref, z3) {
			t.Fatalf("trial %d: Y-mode permutation changed the result", trial)
		}
	}
}

func tensorsAlmostEqual(a, b *coo.Tensor) bool {
	if a.NNZ() != b.NNZ() || len(a.Dims) != len(b.Dims) {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
		for i := range a.Inds[m] {
			if a.Inds[m][i] != b.Inds[m][i] {
				return false
			}
		}
	}
	for i := range a.Vals {
		if math.Abs(a.Vals[i]-b.Vals[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestAdditivity: contracting (X1 ∪ X2) equals the element-wise sum of the
// two partial contractions (bilinearity in the first argument).
func TestAdditivity(t *testing.T) {
	x1 := randomSparse([]uint64{6, 5}, 20, 601)
	x2 := randomSparse([]uint64{6, 5}, 20, 602)
	y := randomSparse([]uint64{5, 7}, 25, 603)

	// Union with value accumulation on duplicates.
	xu := x1.Clone()
	idx := make([]uint32, 2)
	for i := 0; i < x2.NNZ(); i++ {
		x2.Index(i, idx)
		xu.Append(idx, x2.Vals[i])
	}
	xu.Sort(1)
	xu.Dedup()

	zu, _, err := Contract(xu, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	z1, _, err := Contract(x1, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	z2, _, err := Contract(x2, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	sum := map[[2]uint32]float64{}
	for _, z := range []*coo.Tensor{z1, z2} {
		for i := 0; i < z.NNZ(); i++ {
			sum[[2]uint32{z.Inds[0][i], z.Inds[1][i]}] += z.Vals[i]
		}
	}
	for i := 0; i < zu.NNZ(); i++ {
		k := [2]uint32{zu.Inds[0][i], zu.Inds[1][i]}
		if math.Abs(sum[k]-zu.Vals[i]) > 1e-9 {
			t.Fatalf("additivity violated at %v: %v vs %v", k, sum[k], zu.Vals[i])
		}
		delete(sum, k)
	}
	for k, v := range sum {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("coordinate %v missing from union contraction (value %v)", k, v)
		}
	}
}

// TestLNOverflowRejected: mode-size products beyond uint64 must fail
// cleanly at planning time, not corrupt keys.
func TestLNOverflowRejected(t *testing.T) {
	huge := []uint64{1 << 32, 1 << 32, 1 << 32}
	x := coo.MustNew([]uint64{4, 1 << 32}, 0)
	y := coo.MustNew(huge, 0)
	y.Append([]uint32{0, 0, 0}, 1)
	x.Append([]uint32{0, 0}, 1)
	// Contract X mode 1 with Y mode 0: Y's free dims are 2^32 * 2^32 =
	// 2^64, overflowing the LN representation.
	if _, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta}); err == nil {
		t.Fatal("free-mode overflow accepted")
	}
	// Contract modes themselves overflowing must also fail.
	x2 := coo.MustNew(huge, 0)
	y2 := coo.MustNew(huge, 0)
	if _, _, err := Contract(x2, y2, []int{0, 1, 2}, []int{0, 1, 2}, Options{Algorithm: AlgSparta}); err == nil {
		t.Fatal("contract-mode overflow accepted")
	}
}

// TestFusedWritebackMatchesSeed: the sort-fused gather must produce EXACTLY
// the tensor a pipeline with a separate stage ⑤ produces — AlgTwoPhase writes
// Z in sub-tensor order and then runs the full sort over it. Equality is
// bitwise (coo.Equal), not approximate: both move the same accumulated
// values, they never recombine them. Swept across algorithms, thread counts,
// and shapes including scalar outputs and free-side-only Y.
func TestFusedWritebackMatchesSeed(t *testing.T) {
	type shape struct {
		xd, yd []uint64
		cx, cy []int
	}
	shapes := []shape{
		{[]uint64{5, 6, 4, 3}, []uint64{4, 3, 7}, []int{2, 3}, []int{0, 1}},
		{[]uint64{8, 9}, []uint64{9, 7}, []int{1}, []int{0}},
		{[]uint64{4, 5, 3, 6}, []uint64{6, 2, 5}, []int{3, 1}, []int{0, 2}},
		{[]uint64{3, 20}, []uint64{20}, []int{1}, []int{0}},        // Z has no Y modes
		{[]uint64{6, 5}, []uint64{5, 6}, []int{0, 1}, []int{1, 0}}, // scalar Z
		{[]uint64{20}, []uint64{20, 9, 8}, []int{0}, []int{0}},     // Z has no X modes
	}
	for si, s := range shapes {
		x := randomSparse(s.xd, 40*len(s.xd), int64(1700+si))
		y := randomSparse(s.yd, 30*len(s.yd), int64(1800+si))
		for _, threads := range []int{1, 4} {
			seed, repS, err := Contract(x, y, s.cx, s.cy, Options{Algorithm: AlgTwoPhase, Threads: threads})
			if err != nil {
				t.Fatalf("shape %d two-phase: %v", si, err)
			}
			if repS.SubsortWall != 0 {
				t.Fatalf("two-phase reported a fused subsort time: %v", repS.SubsortWall)
			}
			for _, alg := range []Algorithm{AlgSPA, AlgCOOHtA, AlgSparta} {
				fused, repF, err := Contract(x, y, s.cx, s.cy, Options{Algorithm: alg, Threads: threads})
				if err != nil {
					t.Fatalf("shape %d %v fused: %v", si, alg, err)
				}
				if !fused.IsSorted() {
					t.Fatalf("shape %d %v threads=%d: fused Z not sorted", si, alg, threads)
				}
				if !fused.Equal(seed) {
					t.Fatalf("shape %d %v threads=%d: fused Z differs from the separately sorted pipeline",
						si, alg, threads)
				}
				if repF.StageWall[StageSort] != 0 {
					t.Fatalf("%v charged %v to a stage ⑤ it does not run", alg, repF.StageWall[StageSort])
				}
			}
		}
	}
}

// TestDuplicateInputCoordinates: inputs with repeated coordinates are legal
// COO (values accumulate implicitly through the products).
func TestDuplicateInputCoordinates(t *testing.T) {
	x := coo.MustNew([]uint64{3, 4}, 0)
	x.Append([]uint32{1, 2}, 2)
	x.Append([]uint32{1, 2}, 3) // duplicate
	y := coo.MustNew([]uint64{4, 2}, 0)
	y.Append([]uint32{2, 1}, 10)
	for _, alg := range allAlgorithms {
		z, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if z.NNZ() != 1 || math.Abs(z.Vals[0]-50) > 1e-12 {
			t.Fatalf("%v: duplicates mishandled: %v", alg, z.Vals)
		}
	}
}
