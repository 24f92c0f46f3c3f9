package plan

import (
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/einsum"
)

// Step mirrors sparta.ChainStep without importing the root package: one
// pairwise einsum binding Out to the contraction of X and Y.
type Step struct {
	Out  string
	Spec string
	X, Y string
}

// notPlannable reports why a chain was left in its written order. It is a
// normal outcome, not an error: EvalChain falls back to naive execution.
type notPlannable struct{ reason string }

func (e notPlannable) Error() string { return "plan: " + e.reason }

// leaf is one occurrence of an input tensor in the network. The same named
// tensor referenced by several steps yields several leaves — standard
// einsum semantics (each occurrence binds its own modes).
type leaf struct {
	name string
	vars []int // canonical var per mode, in storage order
	est  estTensor
}

// network is the n-ary einsum a plannable chain denotes: input-tensor
// leaves connected by shared mode variables, with one output var order.
//
// Invariants established by fromSteps (they hold for every chain whose
// specs parse, and are re-checked defensively): every var is held by
// exactly one or two leaves; two-leaf vars are contracted somewhere in any
// valid tree and never appear in the final output; one-leaf vars are
// exactly the final output's modes.
type network struct {
	leaves  []leaf
	outVars []int  // final output vars, in the final spec's RHS order
	outName string // final step's Out name
	varSize map[int]float64
	// holders[v] is the bitmask of leaves carrying var v.
	holders map[int]uint64
	// steps is the written chain in network terms, for replaying the naive
	// order through the estimator.
	steps []netStep
}

// operandRef points a replayed step operand at a leaf occurrence (leaf >= 0)
// or at an earlier step's output (mid).
type operandRef struct {
	leaf int
	mid  string
}

// netStep is one written step with operands resolved to network references.
type netStep struct {
	out  string
	x, y operandRef
}

// unionFind is a minimal path-halving union-find over var ids.
type unionFind struct{ parent []int }

func (u *unionFind) fresh() int {
	id := len(u.parent)
	u.parent = append(u.parent, id)
	return id
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// fromSteps unifies a chain's per-step local labels into global mode vars
// and builds the tensor network, or reports why the chain is not
// plannable: an intermediate consumed more than once (the executed value
// would be needed twice — reordering cannot preserve the sharing), more
// than one unconsumed output, or malformed steps (surfaced as errors by
// naive execution, not here). Each distinct input tensor is counted once
// (StatsOf), however many steps name it.
func fromSteps(steps []Step, tensors map[string]*coo.Tensor) (*network, error) {
	if len(steps) == 0 {
		return nil, notPlannable{"empty chain"}
	}
	uf := &unionFind{}
	type leafSrc struct {
		name string
		vars []int
		st   *TensorStats
	}
	var leafSrcs []leafSrc
	stats := map[*coo.Tensor]*TensorStats{}
	outVarsOf := map[string][]int{} // step outputs, pre-canonical
	consumed := map[string]bool{}

	operand := func(name string, labels []rune) ([]int, operandRef, error) {
		if vars, isMid := outVarsOf[name]; isMid {
			if consumed[name] {
				return nil, operandRef{}, notPlannable{fmt.Sprintf("intermediate %q consumed more than once", name)}
			}
			consumed[name] = true
			if len(vars) != len(labels) {
				return nil, operandRef{}, notPlannable{fmt.Sprintf("intermediate %q arity mismatch", name)}
			}
			return vars, operandRef{leaf: -1, mid: name}, nil
		}
		t, ok := tensors[name]
		if !ok {
			return nil, operandRef{}, notPlannable{fmt.Sprintf("tensor %q undefined", name)}
		}
		if t.Order() != len(labels) {
			return nil, operandRef{}, notPlannable{fmt.Sprintf("tensor %q arity mismatch", name)}
		}
		vars := make([]int, len(labels))
		for i := range labels {
			vars[i] = uf.fresh()
		}
		st, ok := stats[t]
		if !ok {
			st = StatsOf(t)
			stats[t] = st
		}
		ref := operandRef{leaf: len(leafSrcs)}
		leafSrcs = append(leafSrcs, leafSrc{name: name, vars: vars, st: st})
		return vars, ref, nil
	}

	var lastOut string
	var netSteps []netStep
	for _, st := range steps {
		ein, err := einsum.Parse(st.Spec)
		if err != nil {
			return nil, notPlannable{fmt.Sprintf("step %q: %v", st.Spec, err)}
		}
		xv, xref, err := operand(st.X, ein.X)
		if err != nil {
			return nil, err
		}
		yv, yref, err := operand(st.Y, ein.Y)
		if err != nil {
			return nil, err
		}
		netSteps = append(netSteps, netStep{out: st.Out, x: xref, y: yref})
		// Unify vars of labels shared between the two operands.
		posY := map[rune]int{}
		for i, r := range ein.Y {
			posY[r] = i
		}
		for i, r := range ein.X {
			if j, ok := posY[r]; ok {
				uf.union(xv[i], yv[j])
			}
		}
		// The step output's vars, in its RHS order.
		varOf := map[rune]int{}
		for i, r := range ein.X {
			varOf[r] = xv[i]
		}
		for i, r := range ein.Y {
			varOf[r] = yv[i]
		}
		ov := make([]int, len(ein.Out))
		for i, r := range ein.Out {
			ov[i] = varOf[r]
		}
		if _, dup := outVarsOf[st.Out]; dup || tensors[st.Out] != nil {
			return nil, notPlannable{fmt.Sprintf("step redefines %q", st.Out)}
		}
		outVarsOf[st.Out] = ov
		lastOut = st.Out
	}
	// Exactly one unconsumed output, necessarily the last step's.
	for name := range outVarsOf {
		if !consumed[name] && name != lastOut {
			return nil, notPlannable{fmt.Sprintf("output %q is never consumed", name)}
		}
	}

	// Canonicalize vars and materialize the network.
	net := &network{outName: lastOut, varSize: map[int]float64{}, holders: map[int]uint64{}, steps: netSteps}
	canon := func(vars []int) []int {
		out := make([]int, len(vars))
		for i, v := range vars {
			out[i] = uf.find(v)
		}
		return out
	}
	if len(leafSrcs) > 64 {
		return nil, notPlannable{"more than 64 input occurrences"}
	}
	for li, src := range leafSrcs {
		vars := canon(src.vars)
		seen := map[int]bool{}
		for m, v := range vars {
			if seen[v] {
				return nil, notPlannable{fmt.Sprintf("tensor %q mode aliasing (trace)", src.name)}
			}
			seen[v] = true
			size := float64(src.st.Dims[m])
			if have, ok := net.varSize[v]; ok && have != size {
				return nil, notPlannable{"unified modes disagree on size"}
			}
			net.varSize[v] = size
			net.holders[v] |= 1 << uint(li)
		}
		net.leaves = append(net.leaves, leaf{name: src.name, vars: vars, est: leafEst(vars, src.st)})
	}
	net.outVars = canon(outVarsOf[lastOut])
	if len(net.varSize) > 64 {
		return nil, notPlannable{"more than 64 distinct modes"}
	}

	// Defensive invariant checks (see the type comment).
	outSet := map[int]bool{}
	for _, v := range net.outVars {
		outSet[v] = true
	}
	for v, h := range net.holders {
		switch popcount(h) {
		case 1:
			if !outSet[v] {
				return nil, notPlannable{"internal: free var missing from output"}
			}
		case 2:
			if outSet[v] {
				return nil, notPlannable{"internal: contracted var kept in output"}
			}
		default:
			return nil, notPlannable{"internal: var held by more than two leaves"}
		}
	}
	return net, nil
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
