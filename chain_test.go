package sparta

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestEvalChainMatchesManual(t *testing.T) {
	a := Random([]uint64{6, 5, 4}, 50, 31)
	b := Random([]uint64{4, 7}, 25, 32)
	c := Random([]uint64{7, 3}, 15, 33)
	aSnap, bSnap, cSnap := a.Clone(), b.Clone(), c.Clone()

	res, err := EvalChain([]ChainStep{
		{Out: "W", Spec: "abe,ec->abc", X: "A", Y: "B"},
		{Out: "Z", Spec: "abc,cd->abd", X: "W", Y: "C"},
	}, map[string]*Tensor{"A": a, "B": b, "C": c}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	w1, _, err := Einsum("abe,ec->abc", a, b, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Einsum("abc,cd->abd", w1, c, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tensors["Z"]
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d vs %d", got.NNZ(), want.NNZ())
	}
	for i := 0; i < got.NNZ(); i++ {
		if math.Abs(got.Vals[i]-want.Vals[i]) > 1e-9 {
			t.Fatalf("value mismatch at %d", i)
		}
	}
	// Inputs must be untouched (still original storage & values).
	if !a.Equal(aSnap) || !b.Equal(bSnap) || !c.Equal(cSnap) {
		t.Fatal("inputs mutated")
	}
	// All names resolvable.
	for _, name := range []string{"A", "B", "C", "W", "Z"} {
		if res.Tensors[name] == nil {
			t.Fatalf("%q missing from results", name)
		}
	}
}

func TestEvalChainSelfContraction(t *testing.T) {
	a := Random([]uint64{5, 4}, 18, 34)
	res, err := EvalChain([]ChainStep{
		{Out: "G", Spec: "ab,cb->ac", X: "A", Y: "A"},
		{Out: "n", Spec: "ac,ac->", X: "G", Y: "G"},
	}, map[string]*Tensor{"A": a}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Tensors["n"]
	if n.Dims[0] != 1 {
		t.Fatalf("scalar dims = %v", n.Dims)
	}
	// The Gram-matrix norm must be positive for a non-trivial A.
	if n.NNZ() != 1 || n.Vals[0] <= 0 {
		t.Fatalf("|G|^2 = %v", n.Vals)
	}
}

func TestEvalChainErrors(t *testing.T) {
	a := Random([]uint64{4, 4}, 10, 35)
	in := map[string]*Tensor{"A": a}
	cases := []struct {
		name  string
		steps []ChainStep
	}{
		{"empty", nil},
		{"undefined X", []ChainStep{{Out: "Z", Spec: "ab,bc->ac", X: "Q", Y: "A"}}},
		{"undefined Y", []ChainStep{{Out: "Z", Spec: "ab,bc->ac", X: "A", Y: "Q"}}},
		{"redefines", []ChainStep{{Out: "A", Spec: "ab,bc->ac", X: "A", Y: "A"}}},
		{"no out", []ChainStep{{Spec: "ab,bc->ac", X: "A", Y: "A"}}},
		{"bad spec", []ChainStep{{Out: "Z", Spec: "nope", X: "A", Y: "A"}}},
	}
	for _, c := range cases {
		if _, err := EvalChain(c.steps, in, Options{Algorithm: AlgSparta}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := EvalChain([]ChainStep{{Out: "Z", Spec: "ab,bc->ac", X: "A", Y: "A"}},
		map[string]*Tensor{"A": nil}, Options{}); err == nil {
		t.Error("nil input accepted")
	}
}

// TestEvalChainInPlaceSafety: an intermediate used twice later must not be
// corrupted by the in-place optimization.
func TestEvalChainInPlaceSafety(t *testing.T) {
	a := Random([]uint64{5, 5}, 20, 36)
	res, err := EvalChain([]ChainStep{
		{Out: "W", Spec: "ab,bc->ac", X: "A", Y: "A"},
		{Out: "P", Spec: "ac,cd->ad", X: "W", Y: "A"}, // W used here...
		{Out: "Q", Spec: "ac,cd->ad", X: "W", Y: "A"}, // ...and here
	}, map[string]*Tensor{"A": a}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	p, q := res.Tensors["P"], res.Tensors["Q"]
	if !p.Equal(q) {
		t.Fatal("repeated use of an intermediate gave different results")
	}
}

// TestEvalChainReusesPreparedY: steps that contract different X tensors
// against the same Y must build its hash table once — the chain-local plan
// cache serves the later steps (Report.HtYReused).
func TestEvalChainReusesPreparedY(t *testing.T) {
	a := Random([]uint64{6, 5, 4}, 60, 41)
	b := Random([]uint64{7, 5, 4}, 55, 42)
	v := Random([]uint64{4, 8}, 30, 43)

	res, err := EvalChain([]ChainStep{
		{Out: "P", Spec: "abc,cd->abd", X: "A", Y: "V"},
		{Out: "Q", Spec: "xbc,cd->xbd", X: "B", Y: "V"},
		{Out: "R", Spec: "abd,xbd->ax", X: "P", Y: "Q"},
	}, map[string]*Tensor{"A": a, "B": b, "V": v}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports[0].HtYReused {
		t.Error("first use of V claims a reused HtY")
	}
	if !res.Reports[1].HtYReused {
		t.Error("second contraction against V rebuilt its HtY")
	}
	if res.Reports[2].HtYReused {
		t.Error("fresh intermediate Q claims a reused HtY")
	}

	// The reused path must give the same result as a fresh contraction.
	want, _, err := Einsum("xbc,cd->xbd", b, v, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tensors["Q"].Equal(want) {
		t.Error("reused-HtY step output differs from one-shot Einsum")
	}
}

// chainOracle evaluates a chain the maximally defensive way: every step
// runs one-shot Einsum on clones of its operands, so no aliasing or
// in-place optimization can possibly apply. EvalChain must match it.
func chainOracle(t *testing.T, steps []ChainStep, inputs map[string]*Tensor, opt Options) map[string]*Tensor {
	t.Helper()
	env := map[string]*Tensor{}
	for k, v := range inputs {
		env[k] = v.Clone()
	}
	for _, st := range steps {
		z, _, err := Einsum(st.Spec, env[st.X].Clone(), env[st.Y].Clone(), opt)
		if err != nil {
			t.Fatalf("oracle step %s: %v", st.Spec, err)
		}
		env[st.Out] = z
	}
	return env
}

// TestEvalChainAliasingEdges drives the in-place machinery through every
// aliasing shape at once — a step with X == Y, an input referenced by
// several steps, an intermediate later used as both X and Y of one step —
// and checks (a) all outputs match the clone-everything oracle and (b) no
// input tensor is ever mutated.
func TestEvalChainAliasingEdges(t *testing.T) {
	a := Random([]uint64{8, 8}, 40, 71)
	b := Random([]uint64{8, 8}, 40, 72)
	snapA, snapB := a.Clone(), b.Clone()
	steps := []ChainStep{
		// A appears in three steps; G's step has X == Y (same input).
		{Out: "G", Spec: "ab,cb->ac", X: "A", Y: "A"},
		{Out: "H", Spec: "ab,bc->ac", X: "A", Y: "B"},
		// G is used as both X and Y of one later step (self-square).
		{Out: "GG", Spec: "ac,cd->ad", X: "G", Y: "G"},
		// H used twice: once as X here, once as Y below.
		{Out: "P", Spec: "ad,dc->ac", X: "GG", Y: "H"},
		{Out: "Z", Spec: "ac,ac->", X: "P", Y: "H"},
	}
	inputs := map[string]*Tensor{"A": a, "B": b}
	opt := Options{Algorithm: AlgSparta}
	res, err := EvalChain(steps, inputs, opt)
	if err != nil {
		t.Fatal(err)
	}
	oracle := chainOracle(t, steps, inputs, opt)
	for _, name := range []string{"G", "H", "GG", "P", "Z"} {
		if !res.Tensors[name].Equal(oracle[name]) {
			t.Errorf("%q differs from clone-everything oracle", name)
		}
	}
	if !a.Equal(snapA) || !b.Equal(snapB) {
		t.Fatal("inputs mutated by the chain")
	}
}

// TestEvalChainAliasingWithPlanner runs the same aliasing chain through
// PlanChain and then EvalChain: whatever the planner decides (this chain is
// unplannable — H is consumed twice), outputs and input immutability must
// hold.
func TestEvalChainAliasingWithPlanner(t *testing.T) {
	a := Random([]uint64{8, 8}, 40, 81)
	b := Random([]uint64{8, 8}, 40, 82)
	snapA, snapB := a.Clone(), b.Clone()
	steps := []ChainStep{
		{Out: "G", Spec: "ab,cb->ac", X: "A", Y: "A"},
		{Out: "H", Spec: "ab,bc->ac", X: "A", Y: "B"},
		{Out: "P", Spec: "ac,cd->ad", X: "G", Y: "H"},
		{Out: "Z", Spec: "ad,ad->", X: "P", Y: "P"},
	}
	inputs := map[string]*Tensor{"A": a, "B": b}
	_, res := evalPlanned(t, steps, inputs, Options{Algorithm: AlgSparta})
	oracle := chainOracle(t, steps, inputs, Options{Algorithm: AlgSparta})
	if !res.Tensors["Z"].Equal(oracle["Z"]) {
		t.Error("planner-auto output differs from oracle")
	}
	if !a.Equal(snapA) || !b.Equal(snapB) {
		t.Fatal("inputs mutated")
	}
}

// TestEvalChainCtxCancel: a canceled context aborts the chain mid-way.
func TestEvalChainCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvalChainCtx(ctx, []ChainStep{
		{Out: "W", Spec: "ab,bc->ac", X: "A", Y: "B"},
	}, map[string]*Tensor{
		"A": Random([]uint64{20, 30}, 200, 1),
		"B": Random([]uint64{30, 25}, 200, 2),
	}, Options{Algorithm: AlgSparta})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
