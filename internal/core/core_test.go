package core

import (
	"math"
	"math/rand"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/dense"
)

var allAlgorithms = []Algorithm{AlgSPA, AlgCOOHtA, AlgSparta, AlgTwoPhase}

func randomSparse(dims []uint64, nnz int, seed int64) *coo.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := coo.MustNew(dims, nnz)
	idx := make([]uint32, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		t.Append(idx, rng.NormFloat64())
	}
	t.Sort(1)
	t.Dedup()
	return t
}

// checkAgainstDense verifies one contraction against the brute-force dense
// reference for every algorithm and 1 & 3 threads.
func checkAgainstDense(t *testing.T, x, y *coo.Tensor, cmX, cmY []int) {
	t.Helper()
	dx, err := dense.FromCOO(x, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := dense.FromCOO(y, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dense.Contract(dx, dy, cmX, cmY, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		for _, threads := range []int{1, 3} {
			z, rep, err := Contract(x, y, cmX, cmY, Options{Algorithm: alg, Threads: threads})
			if err != nil {
				t.Fatalf("%v threads=%d: %v", alg, threads, err)
			}
			if err := z.Validate(); err != nil {
				t.Fatalf("%v: invalid output: %v", alg, err)
			}
			if !z.IsSorted() {
				t.Fatalf("%v: output not sorted", alg)
			}
			// Output coordinates must be unique.
			for i := 1; i < z.NNZ(); i++ {
				if z.Compare(i-1, i) == 0 {
					t.Fatalf("%v: duplicate output coordinate at %d", alg, i)
				}
			}
			got, err := dense.FromCOO(z, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := dense.MaxAbsDiff(got, want)
			if err != nil {
				t.Fatalf("%v: shape mismatch: Z dims %v", alg, z.Dims)
			}
			if diff > 1e-9 {
				t.Fatalf("%v threads=%d: max diff %v", alg, threads, diff)
			}
			if rep.NNZZ != z.NNZ() {
				t.Fatalf("%v: report NNZZ %d != %d", alg, rep.NNZZ, z.NNZ())
			}
		}
	}
}

func TestContractMatrixMultiply(t *testing.T) {
	x := randomSparse([]uint64{8, 9}, 30, 1)
	y := randomSparse([]uint64{9, 7}, 30, 2)
	checkAgainstDense(t, x, y, []int{1}, []int{0})
}

func TestContractPaperExample(t *testing.T) {
	// The §2.2 walk-through: 4-order × 4-order over two modes.
	x := randomSparse([]uint64{5, 6, 4, 3}, 60, 3)
	y := randomSparse([]uint64{4, 3, 5, 5}, 60, 4)
	checkAgainstDense(t, x, y, []int{2, 3}, []int{0, 1})
}

func TestContractNonAdjacentModes(t *testing.T) {
	// Contract modes that are neither leading nor trailing, in scrambled
	// pairing order.
	x := randomSparse([]uint64{4, 5, 3, 6}, 50, 5)
	y := randomSparse([]uint64{6, 2, 5}, 25, 6)
	checkAgainstDense(t, x, y, []int{3, 1}, []int{0, 2})
}

func TestContractAllModesOfX(t *testing.T) {
	// X fully contracted: output = Y free modes only.
	x := randomSparse([]uint64{4, 5}, 15, 7)
	y := randomSparse([]uint64{4, 5, 6}, 40, 8)
	checkAgainstDense(t, x, y, []int{0, 1}, []int{0, 1})
}

func TestContractScalarOutput(t *testing.T) {
	// Both fully contracted: Z is the inner product, as a [1] tensor.
	x := randomSparse([]uint64{5, 4}, 15, 9)
	y := randomSparse([]uint64{5, 4}, 15, 10)
	dx, _ := dense.FromCOO(x, 0)
	dy, _ := dense.FromCOO(y, 0)
	var want float64
	for i := range dx.Data {
		want += dx.Data[i] * dy.Data[i]
	}
	for _, alg := range allAlgorithms {
		z, _, err := Contract(x, y, []int{0, 1}, []int{0, 1}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if len(z.Dims) != 1 || z.Dims[0] != 1 {
			t.Fatalf("%v: scalar dims %v", alg, z.Dims)
		}
		var got float64
		for _, v := range z.Vals {
			got += v
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v: inner product %v, want %v", alg, got, want)
		}
	}
}

func TestContractHighOrder(t *testing.T) {
	x := randomSparse([]uint64{3, 4, 2, 3, 2}, 60, 11)
	y := randomSparse([]uint64{2, 3, 3, 2}, 30, 12)
	checkAgainstDense(t, x, y, []int{2, 3}, []int{0, 1})
}

func TestContractEmptyInputs(t *testing.T) {
	x := coo.MustNew([]uint64{4, 5}, 0)
	y := randomSparse([]uint64{5, 3}, 10, 13)
	for _, alg := range allAlgorithms {
		z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if z.NNZ() != 0 || rep.NNZZ != 0 {
			t.Fatalf("%v: empty X gave %d non-zeros", alg, z.NNZ())
		}
		z, _, err = Contract(y, x, []int{0}, []int{1}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if z.NNZ() != 0 {
			t.Fatalf("%v: empty Y gave %d non-zeros", alg, z.NNZ())
		}
	}
}

func TestContractNoMatches(t *testing.T) {
	// Disjoint contract indices: X uses index 0, Y uses index 1.
	x := coo.MustNew([]uint64{3, 2}, 0)
	x.Append([]uint32{0, 0}, 1)
	x.Append([]uint32{1, 0}, 2)
	y := coo.MustNew([]uint64{2, 3}, 0)
	y.Append([]uint32{1, 0}, 3)
	for _, alg := range allAlgorithms {
		z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if z.NNZ() != 0 {
			t.Fatalf("%v: expected empty output", alg)
		}
		if rep.HitsY != 0 || rep.MissY != 2 {
			t.Fatalf("%v: hits=%d miss=%d", alg, rep.HitsY, rep.MissY)
		}
	}
}

func TestContractValidation(t *testing.T) {
	x := randomSparse([]uint64{4, 5}, 10, 14)
	y := randomSparse([]uint64{5, 4}, 10, 15)
	cases := []struct {
		cmX, cmY []int
	}{
		{[]int{0}, []int{0, 1}},    // arity mismatch
		{[]int{}, []int{}},         // no contract modes
		{[]int{2}, []int{0}},       // X mode out of range
		{[]int{0}, []int{5}},       // Y mode out of range
		{[]int{0, 0}, []int{0, 1}}, // duplicate X mode
		{[]int{0}, []int{1}},       // size mismatch (4 vs 4? no: X0=4, Y1=4 matches) -- replaced below
	}
	cases[5] = struct{ cmX, cmY []int }{[]int{0}, []int{0}} // 4 vs 5 mismatch
	for _, c := range cases {
		if _, _, err := Contract(x, y, c.cmX, c.cmY, Options{Algorithm: AlgSparta}); err == nil {
			t.Errorf("cmX=%v cmY=%v accepted", c.cmX, c.cmY)
		}
	}
	if _, _, err := Contract(x, y, []int{0}, []int{1}, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestInPlaceMatchesClone(t *testing.T) {
	x := randomSparse([]uint64{6, 5, 4}, 80, 16)
	y := randomSparse([]uint64{4, 6}, 20, 17)
	z1, _, err := Contract(x, y, []int{2}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	xc, yc := x.Clone(), y.Clone()
	z2, _, err := Contract(xc, yc, []int{2}, []int{0}, Options{Algorithm: AlgSparta, InPlace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !z1.Equal(z2) {
		t.Fatal("in-place result differs")
	}
}

func TestSkipOutputSort(t *testing.T) {
	x := randomSparse([]uint64{6, 5}, 25, 18)
	y := randomSparse([]uint64{5, 6}, 25, 19)
	z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta, SkipOutputSort: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StageWall[StageSort] != 0 {
		t.Fatal("sort stage timed despite skip")
	}
	z.Sort(1)
	zs, _, _ := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if !z.Equal(zs) {
		t.Fatal("unsorted output does not sort to the sorted output")
	}
}

func TestBilinearity(t *testing.T) {
	// Contract(c*X, Y) == c * Contract(X, Y)
	x := randomSparse([]uint64{5, 4}, 15, 20)
	y := randomSparse([]uint64{4, 5}, 15, 21)
	z1, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	xs := x.Clone()
	xs.Scale(3)
	z2, _, err := Contract(xs, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if z1.NNZ() != z2.NNZ() {
		t.Fatal("scaled contraction changed the non-zero pattern")
	}
	for i := range z1.Vals {
		if math.Abs(z2.Vals[i]-3*z1.Vals[i]) > 1e-9 {
			t.Fatal("bilinearity violated")
		}
	}
}

// TestAlgorithmsAgreeRandom fuzzes shapes and mode choices and checks the
// three algorithms agree with each other (values within fp tolerance).
func TestAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		orderX := 2 + rng.Intn(3)
		orderY := 2 + rng.Intn(3)
		ncm := 1 + rng.Intn(min(orderX, orderY))
		dimsX := make([]uint64, orderX)
		for m := range dimsX {
			dimsX[m] = uint64(2 + rng.Intn(6))
		}
		dimsY := make([]uint64, orderY)
		for m := range dimsY {
			dimsY[m] = uint64(2 + rng.Intn(6))
		}
		cmX := rng.Perm(orderX)[:ncm]
		cmY := rng.Perm(orderY)[:ncm]
		for k := range cmX {
			dimsY[cmY[k]] = dimsX[cmX[k]]
		}
		x := randomSparse(dimsX, 5+rng.Intn(60), int64(trial*2+1000))
		y := randomSparse(dimsY, 5+rng.Intn(60), int64(trial*2+1001))
		var ref *coo.Tensor
		for _, alg := range allAlgorithms {
			z, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: alg, Threads: 1 + rng.Intn(3)})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			if ref == nil {
				ref = z
				continue
			}
			if z.NNZ() != ref.NNZ() {
				t.Fatalf("trial %d %v: nnz %d vs %d", trial, alg, z.NNZ(), ref.NNZ())
			}
			for i := 0; i < z.NNZ(); i++ {
				if z.Compare(i, i) != 0 { // self-compare sanity
					t.Fatal("compare broken")
				}
				for m := range z.Inds {
					if z.Inds[m][i] != ref.Inds[m][i] {
						t.Fatalf("trial %d %v: coordinate mismatch at %d", trial, alg, i)
					}
				}
				if math.Abs(z.Vals[i]-ref.Vals[i]) > 1e-9 {
					t.Fatalf("trial %d %v: value mismatch at %d: %v vs %v", trial, alg, i, z.Vals[i], ref.Vals[i])
				}
			}
		}
	}
}

// TestContractLeavesInputsUntouched: without InPlace, stage ① works on a
// header-only view of X (and of Y for the COO-Y baselines), so nothing
// downstream may write through it. The caller's tensors must come back
// bitwise unchanged — dims, mode order and every column — whether the spec
// leaves the modes where they are (sorted X takes the sorter's early return
// and stays aliased for the whole contraction), permutes them (fresh sorted
// columns), or has an index box too wide for one LN key (the same fresh
// columns, sorted one key word at a time).
func TestContractLeavesInputsUntouched(t *testing.T) {
	wideDims := []uint64{1 << 32, 1 << 31, 6}
	wide := coo.MustNew(wideDims, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		wide.Append([]uint32{rng.Uint32(), rng.Uint32() >> 1, uint32(rng.Intn(6))}, rng.NormFloat64())
	}
	if _, err := wide.Radix(); err == nil {
		t.Fatal("test setup: the wide box is LN-encodable")
	}
	for _, tc := range []struct {
		name   string
		x, y   *coo.Tensor
		cx, cy []int
	}{
		{"identity-perm", randomSparse([]uint64{7, 6, 5, 4}, 400, 31), randomSparse([]uint64{5, 4, 9}, 150, 32), []int{2, 3}, []int{0, 1}},
		{"permuting", randomSparse([]uint64{5, 4, 7, 6}, 400, 33), randomSparse([]uint64{9, 4, 5}, 150, 34), []int{0, 1}, []int{2, 1}},
		{"not-ln-encodable", wide, randomSparse([]uint64{6, 5}, 20, 35), []int{2}, []int{0}},
	} {
		for _, alg := range allAlgorithms {
			for _, threads := range []int{1, 3} {
				x0, y0 := tc.x.Clone(), tc.y.Clone()
				z, _, err := Contract(tc.x, tc.y, tc.cx, tc.cy, Options{Algorithm: alg, Threads: threads})
				if err != nil {
					t.Fatalf("%s/%v: %v", tc.name, alg, err)
				}
				if !tc.x.Equal(x0) || !tc.y.Equal(y0) {
					t.Fatalf("%s/%v/threads=%d: Contract modified its inputs", tc.name, alg, threads)
				}
				// Same answer as the path that owns its storage.
				zi, _, err := Contract(x0, y0, tc.cx, tc.cy, Options{Algorithm: alg, Threads: threads, InPlace: true})
				if err != nil {
					t.Fatal(err)
				}
				if !z.Equal(zi) {
					t.Fatalf("%s/%v/threads=%d: view-based result differs from the in-place one", tc.name, alg, threads)
				}
			}
		}
	}
}
