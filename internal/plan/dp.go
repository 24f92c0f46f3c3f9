package plan

import (
	"fmt"
	"math"
	"strings"

	"sparta/internal/coo"
	"sparta/internal/invariant"
)

// DefaultExhaustiveLimit is the leaf count up to which the subset DP
// searches every feasible contraction tree; larger networks fall back to
// the greedy portfolio. 2^n DP states with 3^n splits stay well under a
// millisecond at 8 — far below one contraction.
const DefaultExhaustiveLimit = 8

// Config tunes the planner. The zero value selects the fitted-default cost
// model and DefaultExhaustiveLimit.
type Config struct {
	// Model prices candidate trees (nil = DefaultModel()).
	Model *Model
	// ExhaustiveLimit is the max leaf count for the subset DP (0 =
	// DefaultExhaustiveLimit; above it the greedy portfolio runs).
	ExhaustiveLimit int
}

// Result reports what the planner decided. Steps always holds an
// executable chain: the reordered one when Planned, the input otherwise.
type Result struct {
	Steps   []Step
	Planned bool
	// Reason explains a Planned=false result ("written order is already
	// optimal", "intermediate consumed more than once", ...).
	Reason string
	// Order and NaiveOrder are the contraction trees as expressions over
	// input names, e.g. "((A×B)×(C×D))".
	Order      string
	NaiveOrder string
	// Model costs in ns; PlannedCostNS == NaiveCostNS when not planned.
	NaiveCostNS, PlannedCostNS float64
	// StepOrders[i] / EstNNZ[i] are the subtree expression and estimated
	// output nnz of planned step i.
	StepOrders []string
	EstNNZ     []int
	// EstPeakNNZ / NaiveEstPeakNNZ are the largest estimated step outputs.
	EstPeakNNZ, NaiveEstPeakNNZ int
	// Exhaustive is true when the subset DP searched every tree.
	Exhaustive bool
}

// tree is one candidate contraction tree. Internal nodes contract left (as
// X, the probing side) against right (as Y, the hashed side) — orientation
// is already folded in.
type tree struct {
	leafIdx     int // leaf index, or -1 for internal nodes
	left, right *tree
	est         estTensor
	products    float64 // of this node's contraction (internal only)
	cost        float64 // model ns for the whole subtree
	peak        float64 // largest step-output nnz estimate in the subtree
}

// combine contracts two disjoint subtrees in the given orientation, or
// returns nil when they share no mode (the engine has no outer product).
func combine(x, y *tree, net *network, m Model) *tree {
	shared := map[int]bool{}
	inX := map[int]bool{}
	for _, v := range x.est.vars {
		inX[v] = true
	}
	for _, v := range y.est.vars {
		if inX[v] {
			shared[v] = true
		}
	}
	if len(shared) == 0 {
		return nil
	}
	products, nnzZ, z := contractEstimate(x.est, y.est, shared, net.varSize)
	cost := x.cost + y.cost + m.StepCost(x.est.nnz, y.est.nnz, products, nnzZ)
	return &tree{
		leafIdx:  -1,
		left:     x,
		right:    y,
		est:      z,
		products: products,
		cost:     cost,
		peak:     math.Max(nnzZ, math.Max(x.peak, y.peak)),
	}
}

// combineBest tries both orientations and keeps the cheaper (ties go to
// a-as-X, keeping the search deterministic).
func combineBest(a, b *tree, net *network, m Model) *tree {
	ab := combine(a, b, net, m)
	ba := combine(b, a, net, m)
	switch {
	case ab == nil:
		return ba
	case ba == nil:
		return ab
	case ba.cost < ab.cost:
		return ba
	default:
		return ab
	}
}

// better orders candidate trees: cheaper wins, equal cost prefers the
// smaller peak intermediate.
func better(cand, best *tree) bool {
	if best == nil {
		return cand != nil
	}
	if cand == nil {
		return false
	}
	if cand.cost != best.cost {
		return cand.cost < best.cost
	}
	return cand.peak < best.peak
}

func leafTree(net *network, i int) *tree {
	return &tree{leafIdx: i, est: net.leaves[i].est}
}

// exhaustive is the subset DP: best[S] is the cheapest feasible tree
// contracting exactly the leaves in mask S, built from canonical splits
// (the half containing S's lowest bit is the enumerated one).
func exhaustive(net *network, m Model) *tree {
	n := len(net.leaves)
	best := make([]*tree, 1<<uint(n))
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = leafTree(net, i)
	}
	full := (1 << uint(n)) - 1
	for s := 3; s <= full; s++ {
		if s&(s-1) == 0 {
			continue // single leaf, already seeded
		}
		low := s & -s
		for s1 := (s - 1) & s; s1 > 0; s1 = (s1 - 1) & s {
			if s1&low == 0 {
				continue
			}
			if invariant.Enabled {
				// Canonical split: both halves non-empty, disjoint, exactly
				// covering s, with s's lowest bit in the enumerated half.
				s2 := s ^ s1
				invariant.Assertf(s1 != 0 && s2 != 0 && s1&s2 == 0 && s1|s2 == s && s1&low != 0,
					"plan: DP split %#x + %#x is not a canonical partition of %#x", s1, s2, s)
			}
			t1, t2 := best[s1], best[s^s1]
			if t1 == nil || t2 == nil {
				continue
			}
			if cand := combineBest(t1, t2, net, m); better(cand, best[s]) {
				best[s] = cand
			}
		}
	}
	return best[full]
}

// greedy is the fallback above ExhaustiveLimit: repeatedly merge the
// feasible pair with the lowest marginal step cost. A second pass greedily
// minimizes the intermediate nnz instead; the portfolio keeps whichever
// full tree the model prices lower (cheap branch-and-bound in spirit: two
// descent heuristics bounded against each other and against the written
// order by the caller).
func greedy(net *network, m Model) *tree {
	byCost := greedyBy(net, m, func(t *tree) float64 { return t.cost })
	byNNZ := greedyBy(net, m, func(t *tree) float64 { return t.est.nnz })
	if byCost == nil {
		return byNNZ
	}
	if byNNZ != nil && byNNZ.cost < byCost.cost {
		return byNNZ
	}
	return byCost
}

// greedyBy merges the pair minimizing score(combined) until one tree
// remains. Scanning i<j in slice order keeps it deterministic.
func greedyBy(net *network, m Model, score func(*tree) float64) *tree {
	active := make([]*tree, len(net.leaves))
	for i := range net.leaves {
		active[i] = leafTree(net, i)
	}
	for len(active) > 1 {
		bi, bj := -1, -1
		var bt *tree
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				cand := combineBest(active[i], active[j], net, m)
				if cand == nil {
					continue
				}
				if bt == nil || score(cand) < score(bt) {
					bi, bj, bt = i, j, cand
				}
			}
		}
		if bt == nil {
			return nil // disconnected network; cannot happen for parsed chains
		}
		active[bi] = bt
		active = append(active[:bj], active[bj+1:]...)
	}
	return active[0]
}

// naiveTree replays the chain's written structure (and written X/Y
// orientation) through the estimator, pricing today's left-to-right
// execution under the same model the DP uses.
func naiveTree(net *network, m Model) *tree {
	mid := map[string]*tree{}
	resolve := func(ref operandRef) *tree {
		if ref.leaf >= 0 {
			return leafTree(net, ref.leaf)
		}
		return mid[ref.mid]
	}
	var t *tree
	for _, st := range net.steps {
		x, y := resolve(st.x), resolve(st.y)
		if x == nil || y == nil {
			return nil
		}
		t = combine(x, y, net, m)
		if t == nil {
			return nil
		}
		mid[st.out] = t
	}
	return t
}

// specLabels is the label pool for emitted specs; a step touching more
// modes than this is not expressible and planning bails.
const specLabels = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// emit linearizes a tree into executable steps (post-order), generating
// fresh intermediate names and einsum specs. Intermediate steps keep the
// engine's natural output order (X free modes then Y free), so they skip
// the output permutation entirely; only the root step carries the chain's
// original RHS order.
func emit(root *tree, net *network) (steps []Step, orders []string, estNNZ []int, err error) {
	reserved := map[string]bool{net.outName: true}
	for _, l := range net.leaves {
		reserved[l.name] = true
	}
	nextName := 0
	fresh := func() string {
		for {
			name := fmt.Sprintf("plan·%d", nextName)
			nextName++
			if !reserved[name] {
				reserved[name] = true
				return name
			}
		}
	}
	var walk func(t *tree) (name, order string, e error)
	walk = func(t *tree) (string, string, error) {
		if t.leafIdx >= 0 {
			return net.leaves[t.leafIdx].name, net.leaves[t.leafIdx].name, nil
		}
		xName, xOrder, e := walk(t.left)
		if e != nil {
			return "", "", e
		}
		yName, yOrder, e := walk(t.right)
		if e != nil {
			return "", "", e
		}
		outVars := t.est.vars
		isRoot := t == root
		if isRoot {
			outVars = net.outVars
		}
		spec, e := buildSpec(t.left.est.vars, t.right.est.vars, outVars)
		if e != nil {
			return "", "", e
		}
		name := net.outName
		if !isRoot {
			name = fresh()
		}
		order := "(" + xOrder + "×" + yOrder + ")"
		steps = append(steps, Step{Out: name, Spec: spec, X: xName, Y: yName})
		orders = append(orders, order)
		estNNZ = append(estNNZ, int(math.Round(t.est.nnz)))
		return name, order, nil
	}
	if _, _, err = walk(root); err != nil {
		return nil, nil, nil, err
	}
	return steps, orders, estNNZ, nil
}

// buildSpec renders one step's einsum spec from operand and output var
// lists, assigning labels in first-appearance order.
func buildSpec(xv, yv, outv []int) (string, error) {
	labelOf := map[int]byte{}
	next := 0
	assign := func(v int) (byte, error) {
		if l, ok := labelOf[v]; ok {
			return l, nil
		}
		if next >= len(specLabels) {
			return 0, notPlannable{"step exceeds the 52-label spec grammar"}
		}
		l := specLabels[next]
		next++
		labelOf[v] = l
		return l, nil
	}
	var b strings.Builder
	for _, v := range xv {
		l, err := assign(v)
		if err != nil {
			return "", err
		}
		b.WriteByte(l)
	}
	b.WriteByte(',')
	for _, v := range yv {
		l, err := assign(v)
		if err != nil {
			return "", err
		}
		b.WriteByte(l)
	}
	b.WriteString("->")
	for _, v := range outv {
		l, ok := labelOf[v]
		if !ok {
			return "", notPlannable{"internal: output var absent from operands"}
		}
		b.WriteByte(l)
	}
	return b.String(), nil
}

// PlanSteps plans a contraction chain: it unifies the steps into a tensor
// network, prices every feasible contraction tree (exhaustively up to
// cfg.ExhaustiveLimit leaves, greedily above), and returns the reordered
// steps when the model prices them below the written order. Chains the
// planner cannot reorder safely — an intermediate consumed twice, multiple
// unconsumed outputs — come back unchanged with Planned=false and a
// Reason; they are not errors (malformed chains surface their errors from
// naive execution, which the caller falls back to).
func PlanSteps(steps []Step, tensors map[string]*coo.Tensor, cfg Config) (*Result, error) {
	model := DefaultModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	limit := cfg.ExhaustiveLimit
	if limit <= 0 {
		limit = DefaultExhaustiveLimit
	}
	res := &Result{Steps: steps}
	unplanned := func(reason string) (*Result, error) {
		res.Planned = false
		res.Reason = reason
		res.PlannedCostNS = res.NaiveCostNS
		return res, nil
	}

	net, err := fromSteps(steps, tensors)
	if err != nil {
		var np notPlannable
		if ok := asNotPlannable(err, &np); ok {
			return unplanned(np.reason)
		}
		return nil, err
	}

	naive := naiveTree(net, model)
	if naive == nil {
		return unplanned("written order is not replayable")
	}
	res.NaiveCostNS = naive.cost
	res.NaiveOrder = orderString(naive, net)
	res.NaiveEstPeakNNZ = int(math.Round(naive.peak))

	var root *tree
	if len(net.leaves) <= limit {
		root = exhaustive(net, model)
		res.Exhaustive = true
	} else {
		root = greedy(net, model)
	}
	if root == nil {
		return unplanned("no feasible contraction tree found")
	}
	if root.cost >= naive.cost {
		return unplanned("written order is already optimal under the model")
	}
	planned, orders, estNNZ, err := emit(root, net)
	if err != nil {
		var np notPlannable
		if ok := asNotPlannable(err, &np); ok {
			return unplanned(np.reason)
		}
		return nil, err
	}
	res.Steps = planned
	res.Planned = true
	res.Order = orderString(root, net)
	res.PlannedCostNS = root.cost
	res.StepOrders = orders
	res.EstNNZ = estNNZ
	res.EstPeakNNZ = int(math.Round(root.peak))
	return res, nil
}

// orderString renders a tree as a parenthesized expression of leaf names.
func orderString(t *tree, net *network) string {
	if t.leafIdx >= 0 {
		return net.leaves[t.leafIdx].name
	}
	return "(" + orderString(t.left, net) + "×" + orderString(t.right, net) + ")"
}

// asNotPlannable unwraps a notPlannable outcome.
func asNotPlannable(err error, out *notPlannable) bool {
	np, ok := err.(notPlannable)
	if ok {
		*out = np
	}
	return ok
}
