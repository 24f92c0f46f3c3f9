package sparta

import (
	"context"
	"fmt"

	"sparta/internal/engine"
)

// ChainStep is one step of a contraction chain: contract tensors named X
// and Y with an einsum spec, binding the result to the name Out. Steps may
// reference the chain's inputs or the outputs of earlier steps.
type ChainStep struct {
	Out  string
	Spec string
	X, Y string
}

// ChainResult carries the tensors and reports a chain produced.
type ChainResult struct {
	// Tensors maps every name — inputs and step outputs — to its tensor.
	Tensors map[string]*Tensor
	// Reports holds one contraction report per step, in step order.
	Reports []*Report
}

// EvalChain evaluates a sequence of einsum contractions, the long
// contraction sequences the paper's applications run (§1: "an SpTC with
// the exact same input is usually computed only once in a long sequence of
// tensor contractions" — the reason Sparta avoids symbolic pre-passes).
//
//	res, err := sparta.EvalChain([]sparta.ChainStep{
//		{Out: "W", Spec: "abef,efcd->abcd", X: "T", Y: "V"},
//		{Out: "E", Spec: "abcd,abcd->", X: "W", Y: "W"},
//	}, map[string]*sparta.Tensor{"T": t, "V": v}, sparta.Options{
//		Algorithm: sparta.AlgSparta,
//	})
//
// Intermediates are contracted in place where safe (an intermediate used as
// X in its last reference needs no defensive clone); inputs are never
// mutated.
func EvalChain(steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	return EvalChainCtx(context.Background(), steps, inputs, opt)
}

// EvalChainCtx is EvalChain with cancellation. Steps run through a
// chain-local plan cache: when several steps contract against the same Y
// tensor (by content), only the first builds the HtY — the rest reuse it
// (Report.HtYReused). The cache recognizes tensors by fingerprint, so
// in-place mutation of an intermediate between uses never yields a stale
// table.
//
// The steps run in the order given. To run the cost-based planner's order
// instead, call PlanChain and evaluate its Steps: they keep the final
// output's name, modes and values, and name the intermediates "plan·0", ….
func EvalChainCtx(ctx context.Context, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("chain: no steps")
	}
	// One plan cache for the whole chain, sized to its step count — a chain
	// never holds more distinct Y sides than steps.
	eng := engine.New(engine.Config{CacheEntries: len(steps)})
	return evalChain(ctx, eng, steps, inputs, opt)
}

// Contractor is the execution seam a chain (or a server) drives contractions
// through: the caching engine and the sharded scatter/gather coordinator
// (internal/dist) both satisfy it, so the same chain runs one-box or fanned
// out across shards with bitwise-identical results.
type Contractor interface {
	Einsum(ctx context.Context, spec string, x, y *Tensor, opt Options) (*Tensor, *Report, error)
}

// EvalChainOn is EvalChainCtx running every step through the given executor
// instead of a chain-local engine. The executor owns plan caching: a
// dist.Coordinator, for example, keeps per-shard plan caches warm across
// steps that share a Y side.
func EvalChainOn(ctx context.Context, exec Contractor, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	if exec == nil {
		return nil, fmt.Errorf("chain: nil executor")
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("chain: no steps")
	}
	return evalChain(ctx, exec, steps, inputs, opt)
}

func evalChain(ctx context.Context, exec Contractor, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	res := &ChainResult{Tensors: make(map[string]*Tensor, len(inputs)+len(steps))}
	for name, t := range inputs {
		if t == nil {
			return nil, fmt.Errorf("chain: input %q is nil", name)
		}
		res.Tensors[name] = t
	}
	// lastUse[name] = index of the final step referencing name.
	lastUse := map[string]int{}
	for i, st := range steps {
		lastUse[st.X] = i
		lastUse[st.Y] = i
	}
	isInput := func(name string) bool {
		_, ok := inputs[name]
		return ok
	}
	for i, st := range steps {
		if st.Out == "" {
			return nil, fmt.Errorf("chain: step %d has no output name", i)
		}
		if _, exists := res.Tensors[st.Out]; exists {
			return nil, fmt.Errorf("chain: step %d redefines %q", i, st.Out)
		}
		x, ok := res.Tensors[st.X]
		if !ok {
			return nil, fmt.Errorf("chain: step %d references undefined tensor %q", i, st.X)
		}
		y, ok := res.Tensors[st.Y]
		if !ok {
			return nil, fmt.Errorf("chain: step %d references undefined tensor %q", i, st.Y)
		}
		stepOpt := opt
		// In-place is safe only for an intermediate X at its last use that
		// is not also this step's Y (the engine clones X but reads Y
		// untouched, so Y never needs protection... except that X's clone
		// is what InPlace skips — Y is only permuted in the baseline
		// algorithms, which also clone unless InPlace).
		if !opt.InPlace {
			stepOpt.InPlace = !isInput(st.X) && !isInput(st.Y) &&
				lastUse[st.X] == i && lastUse[st.Y] == i && st.X != st.Y
		}
		z, rep, err := exec.Einsum(ctx, st.Spec, x, y, stepOpt)
		if err != nil {
			return nil, fmt.Errorf("chain: step %d (%s): %w", i, st.Spec, err)
		}
		res.Tensors[st.Out] = z
		res.Reports = append(res.Reports, rep)
	}
	// Feed the measured stage walls back to the planner's model fit.
	observeReports(res.Reports)
	return res, nil
}
