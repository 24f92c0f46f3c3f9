package sparta_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"

	"sparta"
)

// The paper's §2.2 walk-through shape: contract X's modes 2,3 with Y's modes
// 0,1, Z[i1,i2,j3,j4] = Σ_{i3,i4} X[i1,i2,i3,i4] · Y[i3,i4,j3,j4].
func ExampleContract() {
	x, err := sparta.NewTensor([]uint64{4, 3, 5, 6}, 0)
	if err != nil {
		log.Fatal(err)
	}
	x.Append([]uint32{0, 1, 0, 0}, 2)
	x.Append([]uint32{0, 1, 2, 3}, 3)
	x.Append([]uint32{2, 0, 2, 3}, -1)
	x.Append([]uint32{3, 2, 4, 5}, 4)
	y, err := sparta.NewTensor([]uint64{5, 6, 2, 4}, 0)
	if err != nil {
		log.Fatal(err)
	}
	y.Append([]uint32{0, 0, 0, 3}, 4)
	y.Append([]uint32{0, 0, 1, 0}, 5)
	y.Append([]uint32{2, 3, 0, 1}, 6)
	y.Append([]uint32{4, 5, 1, 2}, 0.5)

	// The zero Options is Sparta on all cores; the report holds per-stage
	// timings, operation counts and data-object sizes.
	z, rep, err := sparta.Contract(x, y, []int{2, 3}, []int{0, 1}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(z)
	idx := make([]uint32, z.Order())
	for i := 0; i < z.NNZ(); i++ {
		z.Index(i, idx)
		fmt.Println(idx, z.Vals[i])
	}
	fmt.Println("products:", rep.Products)

	// The SpGEMM-style baseline computes the same tensor.
	zb, _, err := sparta.Contract(x, y, []int{2, 3}, []int{0, 1}, sparta.Options{Algorithm: sparta.AlgSPA})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SpTC-SPA agrees:", z.Equal(zb))
	// Output:
	// COO[4x3x2x4] nnz=5
	// [0 1 0 1] 18
	// [0 1 0 3] 8
	// [0 1 1 0] 10
	// [2 0 0 1] -6
	// [3 2 1 2] 2
	// products: 5
	// SpTC-SPA agrees: true
}

// Einstein notation: a label shared by both inputs and absent from the
// output is contracted, and Z's modes follow the right-hand side.
func ExampleEinsum() {
	x := sparta.Random([]uint64{6, 5, 4}, 60, 1)
	y := sparta.Random([]uint64{4, 8}, 30, 2)
	z, _, err := sparta.Einsum("abc,cd->dab", x, y, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(z.Dims)
	// Output: [8 6 5]
}

// A chain binds each step's output to a name later steps can read. Steps
// that contract against the same Y build its table once.
func ExampleEvalChain() {
	t := sparta.Random([]uint64{6, 5, 4, 4}, 200, 1)
	v := sparta.Random([]uint64{4, 4, 3, 3}, 60, 2)
	res, err := sparta.EvalChain([]sparta.ChainStep{
		{Out: "W", Spec: "abef,efcd->abcd", X: "T", Y: "V"},
		{Out: "E", Spec: "abcd,abcd->", X: "W", Y: "W"},
	}, map[string]*sparta.Tensor{"T": t, "V": v}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Tensors["W"].Dims)
	fmt.Println(res.Tensors["E"].Dims, res.Tensors["E"].NNZ())
	// Output:
	// [6 5 3 3]
	// [1] 1
}

// PrepareY pays stage ①'s HtY build once; every later contraction against
// the table starts at the first probe and reports HtYReused.
func ExamplePrepareY() {
	ctx := context.Background()
	y := sparta.Random([]uint64{60, 50}, 2000, 2)
	pr, err := sparta.PrepareY(y, []int{0}, sparta.Options{}) // stage ①: HtY build
	if err != nil {
		log.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		x := sparta.Random([]uint64{100, 80, 60}, 5000, seed)
		_, rep, err := pr.Contract(ctx, x, []int{2}, sparta.Options{}) // stages ②–⑤ only
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("HtYReused:", rep.HtYReused)
	}
	// Output:
	// HtYReused: false
	// HtYReused: true
	// HtYReused: true
}

// PrepareX is X's half of stage ① (permute, sort, sub-tensor index).
// ContractX against a prepared Y scans neither input again, and
// ContractStreamX walks the same prepared rows in windows, bitwise equal.
func ExamplePrepareX() {
	ctx := context.Background()
	x := sparta.Random([]uint64{100, 80, 60}, 5000, 1)
	y := sparta.Random([]uint64{60, 50}, 2000, 2)
	px, err := sparta.PrepareX(ctx, x, []int{2}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pr, err := sparta.PrepareY(y, []int{0}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var z *sparta.Tensor
	for i := 0; i < 2; i++ {
		var rep *sparta.Report
		if z, rep, err = pr.ContractX(ctx, px, sparta.Options{}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("XPrepared:", rep.XPrepared, "HtYReused:", rep.HtYReused)
	}
	zs, rep, err := sparta.ContractStreamX(ctx, px, 1000, pr, sparta.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed in", rep.Windows, "windows, equal:", zs.Equal(z))
	// Output:
	// XPrepared: false HtYReused: false
	// XPrepared: true HtYReused: true
	// streamed in 5 windows, equal: true
}

// The planner prices contraction orders from per-mode statistics and
// returns steps that keep the final output's name and modes. This chain is
// written left-associated although D is tiny, so C×D should run first.
func ExamplePlanChain() {
	steps := []sparta.ChainStep{
		{Out: "AB", Spec: "ab,bc->ac", X: "A", Y: "B"},
		{Out: "ABC", Spec: "ac,cd->ad", X: "AB", Y: "C"},
		{Out: "Z", Spec: "ad,de->ae", X: "ABC", Y: "D"},
	}
	inputs := map[string]*sparta.Tensor{
		"A": sparta.Random([]uint64{60, 60}, 2400, 1),
		"B": sparta.Random([]uint64{60, 60}, 2400, 2),
		"C": sparta.Random([]uint64{60, 60}, 2400, 3),
		"D": sparta.Random([]uint64{60, 4}, 40, 4),
	}
	pr, err := sparta.PlanChain(steps, inputs) // plans without running
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planned:", pr.Planned, "written:", pr.NaiveOrder)

	// EvalChain runs the steps it is given: pass pr.Steps to run the plan.
	res, err := sparta.EvalChain(pr.Steps, inputs, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Tensors["Z"])
	// Output:
	// planned: true written: (((A×B)×C)×D)
	// COO[60x4] nnz=240
}

// A sorted v2 binary file whose modes are in contraction order (contract
// modes last) is a prepared X where it lies: OpenMapped maps it zero-copy,
// PrepareX indexes it without moving a row, and ContractStreamX walks it
// window by window against a prepared Y, so only the table, one window's
// accumulators and its output run are hot at once. The output is bitwise
// the in-memory contraction's.
func ExampleOpenMapped() {
	dir, err := os.MkdirTemp("", "sparta-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	x := sparta.Random([]uint64{100, 80, 60}, 5000, 1) // sorted, contract mode last
	y := sparta.Random([]uint64{60, 50}, 2000, 2)
	path := filepath.Join(dir, "x.sptn")
	if err := x.SaveBinV2(path); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	pr, err := sparta.PrepareY(y, []int{0}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := sparta.OpenMapped(path)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	px, err := sparta.PrepareX(ctx, m.Tensor(), []int{2}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	z, rep, err := sparta.ContractStreamX(ctx, px, 1000, pr, sparta.StreamOptions{}) // at most 1000 non-zeros per window
	if err != nil {
		log.Fatal(err)
	}
	want, _, err := sparta.Contract(x, y, []int{2}, []int{0}, sparta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed:", rep.Streamed, "windows > 1:", rep.Windows > 1, "bitwise equal:", bitwiseEqual(z, want))
	// Output: streamed: true windows > 1: true bitwise equal: true
}

// bitwiseEqual reports whether a and b hold the same dims, coordinates in
// the same order, and values with the same bits.
func bitwiseEqual(a, b *sparta.Tensor) bool {
	if !slices.Equal(a.Dims, b.Dims) || !slices.EqualFunc(a.Inds, b.Inds, slices.Equal[[]uint32]) {
		return false
	}
	return slices.EqualFunc(a.Vals, b.Vals, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}
