package plan

import (
	"fmt"
	"math"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/gen"
)

// contractPair runs a real contraction of x's trailing k modes against y's
// leading k modes and returns the actual output nnz and product count.
func contractPair(t *testing.T, x, y *coo.Tensor, k int) (nnzZ int, products uint64) {
	t.Helper()
	cx := make([]int, k)
	cy := make([]int, k)
	for i := 0; i < k; i++ {
		cx[i] = x.Order() - k + i
		cy[i] = i
	}
	z, rep, err := core.Contract(x, y, cx, cy, core.Options{Algorithm: core.AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	return z.NNZ(), rep.Products
}

// estimatePair runs the estimator over the same contraction: trailing k
// modes of x against leading k of y.
func estimatePair(x, y *coo.Tensor, k int) (products, nnzZ float64) {
	sx, sy := StatsOf(x), StatsOf(y)
	// Global vars: x gets 0..ox-1; y's first k modes alias x's last k.
	xv := make([]int, x.Order())
	for i := range xv {
		xv[i] = i
	}
	yv := make([]int, y.Order())
	shared := map[int]bool{}
	varSize := map[int]float64{}
	for i := range yv {
		if i < k {
			yv[i] = x.Order() - k + i
			shared[yv[i]] = true
		} else {
			yv[i] = x.Order() + i
		}
		varSize[yv[i]] = float64(y.Dims[i])
	}
	for i, d := range x.Dims {
		varSize[i] = float64(d)
	}
	ex, ey := leafEst(xv, sx), leafEst(yv, sy)
	products, nnzZ, _ = contractEstimate(ex, ey, shared, varSize)
	return products, nnzZ
}

// TestEstimatorAccuracy: across random tensors of orders 2–5, uniform and
// skewed, the estimated products and output nnz must land
// within a bounded factor of the measured truth.
func TestEstimatorAccuracy(t *testing.T) {
	type tcase struct {
		ox, oy, k int
		nnzX      int
		nnzY      int
		dim       uint64
		skew      float64 // 0 = uniform
	}
	cases := []tcase{
		{2, 2, 1, 800, 800, 40, 0},
		{2, 2, 1, 800, 800, 40, 1.0},
		{3, 2, 1, 1500, 400, 24, 0},
		{3, 3, 2, 1500, 1500, 20, 0},
		{3, 3, 2, 1500, 1500, 20, 1.0},
		{4, 3, 2, 2000, 1200, 12, 0},
		{4, 4, 3, 2000, 2000, 10, 0.8},
		{5, 3, 2, 2500, 900, 8, 0},
		{5, 5, 4, 2500, 2500, 7, 1.0},
	}
	// Uniform placements are what the balls-into-bins model assumes;
	// correlated skew earns a looser bound (heavy lists absorb most of it).
	const uniformBound, skewBound = 4.0, 8.0
	for ci, c := range cases {
		dimsX := make([]uint64, c.ox)
		for i := range dimsX {
			dimsX[i] = c.dim
		}
		dimsY := make([]uint64, c.oy)
		for i := range dimsY {
			dimsY[i] = c.dim
		}
		var x, y *coo.Tensor
		if c.skew > 0 {
			x = gen.RandomSkewed(dimsX, c.nnzX, c.skew, int64(100+ci))
			y = gen.RandomSkewed(dimsY, c.nnzY, c.skew, int64(200+ci))
		} else {
			x = gen.Random(dimsX, c.nnzX, int64(100+ci))
			y = gen.Random(dimsY, c.nnzY, int64(200+ci))
		}
		estP, estZ := estimatePair(x, y, c.k)
		bound := uniformBound
		if c.skew > 0 {
			bound = skewBound
		}
		gotZ, gotP := contractPair(t, x, y, c.k)
		name := fmt.Sprintf("case %d (ox=%d oy=%d k=%d skew=%.1f)", ci, c.ox, c.oy, c.k, c.skew)
		if gotP > 0 {
			if r := estP / float64(gotP); r > bound || r < 1/bound {
				t.Errorf("%s: products est %.0f vs actual %d (ratio %.2f)", name, estP, gotP, r)
			}
		}
		if gotZ > 0 {
			if r := estZ / float64(gotZ); r > bound || r < 1/bound {
				t.Errorf("%s: nnzZ est %.0f vs actual %d (ratio %.2f)", name, estZ, gotZ, r)
			}
		}
	}
}

// intVals makes a tensor's values small positive integers (exact in
// float64 under any summation order).
func intVals(t *coo.Tensor) *coo.Tensor {
	for i := range t.Vals {
		t.Vals[i] = float64(1 + i%3)
	}
	return t
}

// duelNetwork is the known-bad-order chain shared with the bench duel: a
// left-associated matrix chain whose first product is ruinous.
func duelNetwork(seed int64) ([]Step, map[string]*coo.Tensor) {
	steps := []Step{
		{Out: "AB", Spec: "ab,bc->ac", X: "A", Y: "B"},
		{Out: "ABC", Spec: "ac,cd->ad", X: "AB", Y: "C"},
		{Out: "Z", Spec: "ad,de->ae", X: "ABC", Y: "D"},
	}
	tensors := map[string]*coo.Tensor{
		"A": intVals(gen.Random([]uint64{60, 60}, 2400, seed)),
		"B": intVals(gen.Random([]uint64{60, 60}, 2400, seed+1)),
		"C": intVals(gen.Random([]uint64{60, 60}, 2400, seed+2)),
		"D": intVals(gen.Random([]uint64{60, 4}, 40, seed+3)),
	}
	return steps, tensors
}

// runSteps executes a chain naively and returns the summed measured work:
// products plus per-step output nnz — a deterministic stand-in for wall
// time (the cost model's two dominant terms).
func runSteps(t *testing.T, steps []Step, tensors map[string]*coo.Tensor) (z *coo.Tensor, work float64) {
	t.Helper()
	env := map[string]*coo.Tensor{}
	for k, v := range tensors {
		env[k] = v
	}
	for _, st := range steps {
		p, err := einsum.Parse(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		zz, rep, err := core.Contract(env[st.X], env[st.Y], p.CmodesX, p.CmodesY, core.Options{Algorithm: core.AlgSparta})
		if err != nil {
			t.Fatalf("step %s: %v", st.Spec, err)
		}
		if !p.IdentityOut {
			if err := zz.Permute(p.OutPerm); err != nil {
				t.Fatal(err)
			}
			zz.Sort(0)
		}
		env[st.Out] = zz
		work += float64(rep.Products) + float64(zz.NNZ())
		z = zz
	}
	return z, work
}

// TestPlannerNeverWorseOnDuel: on the duel network the DP must find a tree
// whose *measured* work (products + intermediate nnz) beats the written
// order, and whose output is bitwise identical.
func TestPlannerNeverWorseOnDuel(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		steps, tensors := duelNetwork(1000 + 17*seed)
		res, err := PlanSteps(steps, tensors, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Planned {
			t.Fatalf("seed %d: planner kept the bad order: %s", seed, res.Reason)
		}
		if res.PlannedCostNS > res.NaiveCostNS {
			t.Fatalf("seed %d: planned model cost above naive", seed)
		}
		zNaive, workNaive := runSteps(t, steps, tensors)
		zPlan, workPlan := runSteps(t, res.Steps, tensors)
		if workPlan > workNaive {
			t.Errorf("seed %d: planned measured work %.0f > naive %.0f", seed, workPlan, workNaive)
		}
		if !zNaive.Equal(zPlan) {
			t.Errorf("seed %d: planned output differs from naive", seed)
		}
	}
}

// TestGreedyFallbackAboveLimit: a 10-leaf chain exceeds the exhaustive
// limit, takes the greedy path, and still never prices above the written
// order (the caller falls back when greedy cannot improve).
func TestGreedyFallbackAboveLimit(t *testing.T) {
	var steps []Step
	tensors := map[string]*coo.Tensor{}
	prev := "T0"
	tensors["T0"] = intVals(gen.Random([]uint64{20, 20}, 200, 900))
	for i := 1; i < 10; i++ {
		name := fmt.Sprintf("T%d", i)
		nnz := 200
		if i == 8 {
			nnz = 10 // the cheap collapse lives near the end
		}
		tensors[name] = intVals(gen.Random([]uint64{20, 20}, nnz, int64(900+i)))
		out := fmt.Sprintf("P%d", i)
		if i == 9 {
			out = "Z"
		}
		steps = append(steps, Step{Out: out, Spec: "ab,bc->ac", X: prev, Y: name})
		prev = out
	}
	res, err := PlanSteps(steps, tensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Fatal("10-leaf network claims exhaustive search")
	}
	if res.Planned {
		if res.PlannedCostNS >= res.NaiveCostNS {
			t.Fatalf("greedy planned a not-cheaper order")
		}
		zNaive, _ := runSteps(t, steps, tensors)
		zPlan, _ := runSteps(t, res.Steps, tensors)
		if !zNaive.Equal(zPlan) {
			t.Fatal("greedy-planned output differs from naive")
		}
	}
}

// TestStatsCountedOncePerTensor: a tensor that several steps name is
// counted once per plan — its leaves share one TensorStats — while a clone
// with the same content is a tensor of its own.
func TestStatsCountedOncePerTensor(t *testing.T) {
	a := gen.Random([]uint64{30, 30}, 400, 11)
	steps := []Step{
		{Out: "G", Spec: "ab,cb->ac", X: "A", Y: "A"},
		{Out: "Z", Spec: "ac,cd->ad", X: "G", Y: "B"},
	}
	net, err := fromSteps(steps, map[string]*coo.Tensor{"A": a, "B": a.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.leaves) != 3 {
		t.Fatalf("%d leaves, want A, A, B", len(net.leaves))
	}
	stats := func(l leaf) *ModeStats { return l.est.mode[l.vars[0]] }
	if stats(net.leaves[0]) != stats(net.leaves[1]) {
		t.Error("the two occurrences of A were counted separately")
	}
	if stats(net.leaves[0]) == stats(net.leaves[2]) {
		t.Error("B, a clone of A, shares A's statistics")
	}
}

// TestStatsOf sanity-checks the per-mode statistics on a known tensor.
func TestStatsOf(t *testing.T) {
	tn, err := coo.New([]uint64{4, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 0,0,1,3 — cols: 2,5,2,7.
	for _, e := range [][3]uint64{{0, 2, 1}, {0, 5, 2}, {1, 2, 3}, {3, 7, 4}} {
		tn.Append([]uint32{uint32(e[0]), uint32(e[1])}, float64(e[2]))
	}
	st := StatsOf(tn)
	if st.NNZ != 4 {
		t.Fatalf("nnz %d", st.NNZ)
	}
	m0 := st.Modes[0]
	if m0.Distinct != 3 || m0.MaxCount != 2 || m0.SelfJoin != 6 { // 2²+1+1
		t.Errorf("mode 0 stats: %+v", m0)
	}
	m1 := st.Modes[1]
	if m1.Distinct != 3 || m1.SelfJoin != 6 {
		t.Errorf("mode 1 stats: %+v", m1)
	}
	if math.Abs(st.Density-4.0/32.0) > 1e-12 {
		t.Errorf("density %v", st.Density)
	}
}

// TestNotPlannableReasons enumerates the fallback cases.
func TestNotPlannableReasons(t *testing.T) {
	a := gen.Random([]uint64{10, 10}, 50, 3)
	tensors := map[string]*coo.Tensor{"A": a}
	cases := []struct {
		name  string
		steps []Step
	}{
		{"empty", nil},
		{"twice-consumed", []Step{
			{Out: "W", Spec: "ab,bc->ac", X: "A", Y: "A"},
			{Out: "Z", Spec: "ac,ca->", X: "W", Y: "W"},
		}},
		{"undefined", []Step{{Out: "Z", Spec: "ab,bc->ac", X: "A", Y: "Q"}}},
		{"bad spec", []Step{{Out: "Z", Spec: "nope", X: "A", Y: "A"}}},
		{"dangling output", []Step{
			{Out: "W", Spec: "ab,bc->ac", X: "A", Y: "A"},
			{Out: "Z", Spec: "ab,bc->ac", X: "A", Y: "A"},
		}},
	}
	for _, c := range cases {
		res, err := PlanSteps(c.steps, tensors, Config{})
		if err != nil {
			t.Fatalf("%s: hard error %v", c.name, err)
		}
		if res.Planned {
			t.Errorf("%s: planned", c.name)
		}
		if res.Reason == "" {
			t.Errorf("%s: no reason", c.name)
		}
	}
}
