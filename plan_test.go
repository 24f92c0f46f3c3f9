package sparta

import (
	"strings"
	"testing"
)

// intValued replaces a tensor's values with small positive integers so
// every product and partial sum in a contraction is exact in float64 —
// then any contraction order yields bitwise-identical outputs, which is
// what lets these tests assert Equal (exact ==) across orders.
func intValued(t *Tensor) *Tensor {
	for i := range t.Vals {
		t.Vals[i] = float64(1 + i%3)
	}
	return t
}

// adversarialChain builds the planner's bread-and-butter case: a 4-tensor
// matrix chain written left-associated, where the first product is by far
// the largest intermediate and the right-associated order is much cheaper
// (D is tiny, so C×D collapses everything downstream).
func adversarialChain(seed int64) ([]ChainStep, map[string]*Tensor) {
	steps := []ChainStep{
		{Out: "AB", Spec: "ab,bc->ac", X: "A", Y: "B"},
		{Out: "ABC", Spec: "ac,cd->ad", X: "AB", Y: "C"},
		{Out: "Z", Spec: "ad,de->ae", X: "ABC", Y: "D"},
	}
	inputs := map[string]*Tensor{
		"A": intValued(Random([]uint64{60, 60}, 2400, seed)),
		"B": intValued(Random([]uint64{60, 60}, 2400, seed+1)),
		"C": intValued(Random([]uint64{60, 60}, 2400, seed+2)),
		"D": intValued(Random([]uint64{60, 4}, 40, seed+3)),
	}
	return steps, inputs
}

func TestPlanChainReordersAdversarialChain(t *testing.T) {
	steps, inputs := adversarialChain(101)
	pr, err := PlanChain(steps, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Planned {
		t.Fatalf("planner kept the written order: %s", pr.Reason)
	}
	if !pr.Exhaustive {
		t.Error("4-leaf network should be searched exhaustively")
	}
	if pr.PlannedCostNS >= pr.NaiveCostNS {
		t.Errorf("planned cost %.0f >= naive %.0f", pr.PlannedCostNS, pr.NaiveCostNS)
	}
	if len(pr.Steps) != len(steps) {
		t.Fatalf("planned %d steps from %d", len(pr.Steps), len(steps))
	}
	// The written tree keeps the ruinous A×B first contraction; the
	// planner must not.
	if strings.HasPrefix(pr.Order, "(((A×B)") {
		t.Errorf("planned order still left-associated: %s", pr.Order)
	}
	if pr.NaiveOrder != "(((A×B)×C)×D)" {
		t.Errorf("naive order rendered as %s", pr.NaiveOrder)
	}
	// The final step must keep the chain's output name.
	if pr.Steps[len(pr.Steps)-1].Out != "Z" {
		t.Errorf("final planned step is %q", pr.Steps[len(pr.Steps)-1].Out)
	}
	if len(pr.StepOrders) != len(pr.Steps) || len(pr.EstNNZ) != len(pr.Steps) {
		t.Fatalf("StepOrders/EstNNZ lengths %d/%d for %d steps",
			len(pr.StepOrders), len(pr.EstNNZ), len(pr.Steps))
	}
}

// evalPlanned runs a chain in the planner's order the way a caller does:
// PlanChain, then EvalChain over the steps it returns (the written steps
// when it keeps their order).
func evalPlanned(t *testing.T, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*PlanResult, *ChainResult) {
	t.Helper()
	pr, err := PlanChain(steps, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalChain(pr.Steps, inputs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pr, res
}

// TestEvalChainPlannedBitwiseIdentical is the acceptance gate: with exact
// (integer-valued) inputs, the planned steps must produce the same final
// tensor as the written ones, bit for bit, while actually reordering.
func TestEvalChainPlannedBitwiseIdentical(t *testing.T) {
	steps, inputs := adversarialChain(202)
	off, err := EvalChain(steps, inputs, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	pr, auto := evalPlanned(t, steps, inputs, Options{Algorithm: AlgSparta})
	if !pr.Planned {
		t.Fatal("the planner did not reorder the adversarial chain")
	}
	zOff, zAuto := off.Tensors["Z"], auto.Tensors["Z"]
	if zOff == nil || zAuto == nil {
		t.Fatal("missing final output")
	}
	if !zOff.Equal(zAuto) {
		t.Fatal("planned output differs from written-order output")
	}
	// Every planned step carries its subtree and estimated output size.
	for i := range pr.Steps {
		if pr.StepOrders[i] == "" {
			t.Errorf("step %d missing its planned order", i)
		}
		if pr.EstNNZ[i] <= 0 {
			t.Errorf("step %d estimated nnz = %d", i, pr.EstNNZ[i])
		}
	}
}

// TestEvalChainPlannedSweep diffs the planned steps against the written
// ones across a variety of chain shapes, kernels, and seeds — outputs must be exactly
// equal whether or not the planner chose to reorder.
func TestEvalChainPlannedSweep(t *testing.T) {
	type shape struct {
		name  string
		steps []ChainStep
		build func(seed int64) map[string]*Tensor
	}
	shapes := []shape{
		{
			name: "matrix-chain-5",
			steps: []ChainStep{
				{Out: "P1", Spec: "ab,bc->ac", X: "T1", Y: "T2"},
				{Out: "P2", Spec: "ac,cd->ad", X: "P1", Y: "T3"},
				{Out: "P3", Spec: "ad,de->ae", X: "P2", Y: "T4"},
				{Out: "Z", Spec: "ae,ef->af", X: "P3", Y: "T5"},
			},
			build: func(seed int64) map[string]*Tensor {
				return map[string]*Tensor{
					"T1": intValued(Random([]uint64{30, 30}, 500, seed)),
					"T2": intValued(Random([]uint64{30, 30}, 500, seed+1)),
					"T3": intValued(Random([]uint64{30, 30}, 500, seed+2)),
					"T4": intValued(Random([]uint64{30, 5}, 40, seed+3)),
					"T5": intValued(Random([]uint64{5, 30}, 40, seed+4)),
				}
			},
		},
		{
			name: "order3-ccsd-style",
			steps: []ChainStep{
				{Out: "W", Spec: "abe,ec->abc", X: "T", Y: "V"},
				{Out: "U", Spec: "abc,cf->abf", X: "W", Y: "S"},
				{Out: "Z", Spec: "abf,fb->a", X: "U", Y: "R"},
			},
			build: func(seed int64) map[string]*Tensor {
				return map[string]*Tensor{
					"T": intValued(Random([]uint64{20, 16, 12}, 900, seed)),
					"V": intValued(Random([]uint64{12, 14}, 80, seed+1)),
					"S": intValued(Random([]uint64{14, 10}, 70, seed+2)),
					"R": intValued(Random([]uint64{10, 16}, 60, seed+3)),
				}
			},
		},
		{
			name: "shared-input",
			steps: []ChainStep{
				{Out: "G", Spec: "ab,cb->ac", X: "M", Y: "M"},
				{Out: "H", Spec: "ac,cd->ad", X: "G", Y: "N"},
				{Out: "Z", Spec: "ad,da->", X: "H", Y: "K"},
			},
			build: func(seed int64) map[string]*Tensor {
				return map[string]*Tensor{
					"M": intValued(Random([]uint64{25, 20}, 300, seed)),
					"N": intValued(Random([]uint64{25, 15}, 150, seed+1)),
					"K": intValued(Random([]uint64{15, 25}, 90, seed+2)),
				}
			},
		},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			inputs := sh.build(1000*seed + 7)
			base := Options{Algorithm: AlgSparta}
			off, err := EvalChain(sh.steps, inputs, base)
			if err != nil {
				t.Fatalf("%s/%d off: %v", sh.name, seed, err)
			}
			_, auto := evalPlanned(t, sh.steps, inputs, base)
			if !off.Tensors["Z"].Equal(auto.Tensors["Z"]) {
				t.Errorf("%s/%d: planned output differs", sh.name, seed)
			}
		}
	}
}

// TestPlanChainUnplannableFallsBack: chains the planner cannot reorder come
// back unchanged with a reason, and evaluating what it returns runs them.
func TestPlanChainUnplannableFallsBack(t *testing.T) {
	a := intValued(Random([]uint64{12, 10}, 80, 51))
	b := intValued(Random([]uint64{10, 12}, 80, 52))
	// W is consumed twice — reordering cannot preserve the sharing.
	steps := []ChainStep{
		{Out: "W", Spec: "ab,bc->ac", X: "A", Y: "B"},
		{Out: "Z", Spec: "ac,ca->", X: "W", Y: "W"},
	}
	inputs := map[string]*Tensor{"A": a, "B": b}
	pr, auto := evalPlanned(t, steps, inputs, Options{Algorithm: AlgSparta})
	if pr.Planned {
		t.Fatal("planned a chain with a twice-consumed intermediate")
	}
	if pr.Reason == "" {
		t.Error("no reason for the fallback")
	}
	if len(pr.Steps) != len(steps) || pr.Steps[0] != steps[0] || pr.Steps[1] != steps[1] {
		t.Error("fallback did not return the written steps")
	}
	off, err := EvalChain(steps, inputs, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if !off.Tensors["Z"].Equal(auto.Tensors["Z"]) {
		t.Error("fallback execution differs from the written chain's")
	}
}

// TestPlanChainKeepsGoodOrder: a chain already in its best order must come
// back Planned=false (the DP includes the written tree, so a planned
// result can never be priced above it).
func TestPlanChainKeepsGoodOrder(t *testing.T) {
	// The right-associated version of the adversarial chain.
	steps := []ChainStep{
		{Out: "CD", Spec: "cd,de->ce", X: "C", Y: "D"},
		{Out: "BCD", Spec: "bc,ce->be", X: "B", Y: "CD"},
		{Out: "Z", Spec: "ab,be->ae", X: "A", Y: "BCD"},
	}
	_, inputs := adversarialChain(303)
	pr, err := PlanChain(steps, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Planned && pr.PlannedCostNS >= pr.NaiveCostNS {
		t.Errorf("planned a not-cheaper order: %.0f >= %.0f", pr.PlannedCostNS, pr.NaiveCostNS)
	}
}

func TestFitPlannerModel(t *testing.T) {
	// With no reports every coefficient keeps its default.
	m := FitPlannerModel(nil)
	if m.ProbeNS <= 0 || m.AccumNS <= 0 {
		t.Fatalf("default model has non-positive terms: %+v", m)
	}
	// A real run produces a model with positive terms throughout.
	x := Random([]uint64{50, 40, 30}, 4000, 61)
	y := Random([]uint64{30, 35}, 1500, 62)
	_, rep, err := Einsum("abc,cd->abd", x, y, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	m = FitPlannerModel([]*Report{rep})
	for name, v := range map[string]float64{
		"sortx": m.SortXNS, "build": m.BuildNS, "probe": m.ProbeNS,
		"accum": m.AccumNS, "write": m.WriteNS,
	} {
		if v <= 0 {
			t.Errorf("fitted %s coefficient %v <= 0", name, v)
		}
	}
}
