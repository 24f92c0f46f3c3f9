package sparta

import (
	"sync"

	"sparta/internal/plan"
)

// PlannerModel is the contraction cost model the chain planner prices
// candidate orders with (nanoseconds per element, one coefficient per
// pipeline stage).
type PlannerModel = plan.Model

// FitPlannerModel fits a cost model to measured contraction reports:
// each stage coefficient becomes the median observed wall time per driving
// element. Stages with no usable sample keep the built-in default.
func FitPlannerModel(reports []*Report) PlannerModel {
	return plan.FitModel(reports)
}

// plannerObs is a bounded ring of recent contraction reports. EvalChain
// feeds it after every successful chain; the planner fits its cost model
// from it, so ordering decisions track this machine's measured per-stage
// costs rather than built-in constants.
var plannerObs struct {
	sync.Mutex
	reports []*Report
	next    int
}

const plannerFitWindow = 64

func observeReports(reps []*Report) {
	plannerObs.Lock()
	defer plannerObs.Unlock()
	for _, r := range reps {
		if r == nil {
			continue
		}
		if len(plannerObs.reports) < plannerFitWindow {
			plannerObs.reports = append(plannerObs.reports, r)
		} else {
			plannerObs.reports[plannerObs.next] = r
		}
		plannerObs.next = (plannerObs.next + 1) % plannerFitWindow
	}
}

// plannerModel returns the current fitted model (defaults until the first
// chain has run).
func plannerModel() plan.Model {
	plannerObs.Lock()
	defer plannerObs.Unlock()
	if len(plannerObs.reports) == 0 {
		return plan.DefaultModel()
	}
	return plan.FitModel(plannerObs.reports)
}

// PlanResult reports what the contraction-order planner decided for a
// chain. Steps always holds an executable chain: the reordered one when
// Planned is true, the input chain otherwise.
type PlanResult struct {
	Steps   []ChainStep
	Planned bool
	// Reason explains a Planned=false outcome ("written order is already
	// optimal under the model", "intermediate consumed more than once", …).
	Reason string
	// Order and NaiveOrder render the chosen and written contraction trees
	// as expressions over input names, e.g. "((A×B)×(C×D))".
	Order, NaiveOrder string
	// Model costs in nanoseconds; equal when not planned.
	NaiveCostNS, PlannedCostNS float64
	// StepOrders[i] and EstNNZ[i] are planned step i's subtree expression
	// and estimated output nnz.
	StepOrders []string
	EstNNZ     []int
	// EstPeakNNZ / NaiveEstPeakNNZ are the largest estimated step outputs
	// of the planned and written trees.
	EstPeakNNZ, NaiveEstPeakNNZ int
	// Exhaustive is true when the subset DP searched every feasible tree
	// (chains of up to 8 input occurrences); larger networks use the
	// greedy fallback.
	Exhaustive bool
}

// PlanChain runs the cost-based contraction-order planner over a chain
// without executing it: per-tensor sparsity statistics (counted once per
// distinct input tensor) feed an output-size estimator, and a dynamic
// program over contraction trees picks the cheapest order under the fitted
// cost model. Chains the planner cannot reorder safely come back unchanged
// with Planned=false and a Reason — never an error; errors are reserved for
// internal failures.
//
// EvalChain runs the steps it is given: pass it pr.Steps to execute the
// planned order.
func PlanChain(steps []ChainStep, inputs map[string]*Tensor) (*PlanResult, error) {
	model := plannerModel()
	res, err := plan.PlanSteps(toPlanSteps(steps), inputs, plan.Config{Model: &model})
	if err != nil {
		return nil, err
	}
	return &PlanResult{
		Steps:           fromPlanSteps(res.Steps),
		Planned:         res.Planned,
		Reason:          res.Reason,
		Order:           res.Order,
		NaiveOrder:      res.NaiveOrder,
		NaiveCostNS:     res.NaiveCostNS,
		PlannedCostNS:   res.PlannedCostNS,
		StepOrders:      res.StepOrders,
		EstNNZ:          res.EstNNZ,
		EstPeakNNZ:      res.EstPeakNNZ,
		NaiveEstPeakNNZ: res.NaiveEstPeakNNZ,
		Exhaustive:      res.Exhaustive,
	}, nil
}

func toPlanSteps(steps []ChainStep) []plan.Step {
	out := make([]plan.Step, len(steps))
	for i, st := range steps {
		out[i] = plan.Step{Out: st.Out, Spec: st.Spec, X: st.X, Y: st.Y}
	}
	return out
}

func fromPlanSteps(steps []plan.Step) []ChainStep {
	out := make([]ChainStep, len(steps))
	for i, st := range steps {
		out[i] = ChainStep{Out: st.Out, Spec: st.Spec, X: st.X, Y: st.Y}
	}
	return out
}
