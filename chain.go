package sparta

import (
	"context"
	"fmt"

	"sparta/internal/core"
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
//	}, map[string]*sparta.Tensor{"T": t, "V": v}, sparta.Options{})
//
// Intermediates are contracted in place where safe (an intermediate used as
// X in its last reference needs no defensive clone); inputs are never
// mutated.
func EvalChain(steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	return EvalChainCtx(context.Background(), steps, inputs, opt)
}

// EvalChainCtx is EvalChain with cancellation. An AlgSparta chain keeps
// what it prepares: when several steps contract against the same Y tensor
// over the same modes, only the first builds the HtY and the rest reuse it
// (Report.HtYReused). A Y is recognized by its pointer, not its content, so
// two distinct tensors with equal contents each get a table of their own.
// The pointer is a safe key because every name is bound once and the chain
// writes a tensor in place only at its last use (unless Options.InPlace
// hands it every input).
//
// The steps run in the order given. To run the cost-based planner's order
// instead, call PlanChain and evaluate its Steps: they keep the final
// output's name, modes and values, and name the intermediates "plan·0", ….
func EvalChainCtx(ctx context.Context, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	return evalChain(ctx, preparedYs{}, steps, inputs, opt)
}

// Contractor is the execution seam a chain drives its contractions through:
// the chain's own prepared-Y table and the sharded scatter/gather
// coordinator (internal/dist) both satisfy it, so the same chain runs
// one-box or fanned out across shards with bitwise-identical results.
type Contractor interface {
	Contract(ctx context.Context, x, y *Tensor, cmodesX, cmodesY []int, opt Options) (*Tensor, *Report, error)
}

// EvalChainOn is EvalChainCtx running every step through the given executor
// instead of the chain's own prepared Ys. The executor owns whatever it
// keeps: a dist.Coordinator, for example, keeps per-shard tables warm across
// steps that share a Y side.
func EvalChainOn(ctx context.Context, exec Contractor, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	if exec == nil {
		return nil, fmt.Errorf("chain: nil executor")
	}
	return evalChain(ctx, exec, steps, inputs, opt)
}

// preparedYs is one chain's prepared Y sides, keyed by tensor and contract
// modes. Steps run one at a time, so it needs no lock.
type preparedYs map[preparedYKey]*core.PreparedY

type preparedYKey struct {
	y     *Tensor
	modes string
}

// Contract runs an AlgSparta step against y's table, building it on the
// first step that needs it, and any other algorithm one-shot.
func (c preparedYs) Contract(ctx context.Context, x, y *Tensor, cmodesX, cmodesY []int, opt Options) (*Tensor, *Report, error) {
	if opt.Algorithm != AlgSparta {
		return core.ContractCtx(ctx, x, y, cmodesX, cmodesY, opt)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	k := preparedYKey{y: y, modes: fmt.Sprint(cmodesY)}
	py, ok := c[k]
	if !ok {
		var err error
		if py, err = core.PrepareY(y, cmodesY, opt); err != nil {
			return nil, nil, err
		}
		c[k] = py
	}
	return py.Contract(ctx, x, cmodesX, opt)
}

func evalChain(ctx context.Context, exec Contractor, steps []ChainStep, inputs map[string]*Tensor, opt Options) (*ChainResult, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("chain: no steps")
	}
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
		// InPlace lets a step permute and sort its X (and, in the baseline
		// algorithms, its Y) where they lie. The chain sets it only when
		// both operands are intermediates, this is the last step that
		// reads either, and they are not one tensor: nothing can read them
		// afterwards, so a prepared Y keyed by either pointer is never
		// consulted again.
		if !opt.InPlace {
			stepOpt.InPlace = !isInput(st.X) && !isInput(st.Y) &&
				lastUse[st.X] == i && lastUse[st.Y] == i && st.X != st.Y
		}
		z, rep, err := einsumOn(ctx, exec.Contract, st.Spec, x, y, stepOpt)
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
