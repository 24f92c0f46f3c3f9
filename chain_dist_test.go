package sparta

import (
	"context"
	"fmt"
	"testing"

	"sparta/internal/dist"
)

// TestEvalChainOnCoordinator runs a chain through the sharded scatter/gather
// coordinator via the Contractor seam and demands bitwise identity with the
// one-box EvalChain — the chain-level face of the dist oracle suite.
func TestEvalChainOnCoordinator(t *testing.T) {
	a := Random([]uint64{12, 9, 8}, 400, 61)
	b := Random([]uint64{8, 11}, 140, 62)
	c := Random([]uint64{11, 6}, 70, 63)
	steps := []ChainStep{
		{Out: "W", Spec: "abe,ec->abc", X: "A", Y: "B"},
		{Out: "Z", Spec: "abc,cd->dab", X: "W", Y: "C"},
	}
	inputs := map[string]*Tensor{"A": a, "B": b, "C": c}
	opt := Options{Algorithm: AlgSparta, Threads: 2}

	want, err := EvalChain(steps, inputs, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, S := range []int{1, 4} {
		execs := make([]dist.Executor, S)
		for i := range execs {
			execs[i] = dist.NewLocal(fmt.Sprintf("shard-%d", i), dist.LocalConfig{})
		}
		coord, err := dist.NewCoordinator(dist.Config{Executors: execs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalChainOn(context.Background(), coord, steps, inputs, opt)
		if err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		for _, name := range []string{"W", "Z"} {
			if !got.Tensors[name].Equal(want.Tensors[name]) {
				t.Errorf("S=%d: chain output %q differs from one-box EvalChain", S, name)
			}
		}
		if len(got.Reports) != len(steps) {
			t.Errorf("S=%d: %d reports for %d steps", S, len(got.Reports), len(steps))
		}
		// Inputs stay untouched even though the coordinator runs shard
		// pipelines in place (partitions are private copies).
		_ = coord.Close()
	}
}

// TestEvalChainOnValidation: EvalChainOn refuses a nil executor and an
// empty chain. (The coordinator compiling as a Contractor above pins the
// interface against drift.)
func TestEvalChainOnValidation(t *testing.T) {
	if _, err := EvalChainOn(context.Background(), nil, []ChainStep{{Out: "Z", Spec: "ab,bc->ac", X: "A", Y: "B"}}, nil, Options{}); err == nil {
		t.Error("nil executor accepted")
	}
	execs := []dist.Executor{dist.NewLocal("s0", dist.LocalConfig{})}
	coord, err := dist.NewCoordinator(dist.Config{Executors: execs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := EvalChainOn(context.Background(), coord, nil, nil, Options{}); err == nil {
		t.Error("empty chain accepted")
	}
}
