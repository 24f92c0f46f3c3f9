// Package plan is the cost-based contraction-order optimizer for tensor
// networks (DESIGN.md §11). EvalChain executes user-supplied steps strictly
// left-to-right; a bad order can inflate intermediate nnz by orders of
// magnitude before the fast kernels ever see the data. This package
// estimates the nnz of every feasible intermediate from cheap per-mode
// statistics (distinct counts, self-join moments, heavy-hitter lists,
// nnz-per-index histograms — computed once per distinct tensor of a
// PlanSteps call), prices candidate contraction trees with a cost model
// fitted to the per-stage walls Reports already record, and searches the
// tree space exhaustively for small networks (subset DP) with a greedy
// fallback above.
package plan

import (
	"sort"

	"sparta/internal/coo"
	"sparta/internal/obs"
)

// HeavyHitters is the number of top (index, count) pairs kept per mode.
// Heavy lists make the pairwise match estimate skew-aware for leaf-leaf
// contractions: correlated Zipf heads (the common case — both tensors
// favor low indices) multiply through the heavy∩heavy term instead of
// being averaged away by the uniform-residual formula.
const HeavyHitters = 32

// HeavyHitter is one of a mode's most-populated index values.
type HeavyHitter struct {
	Index uint32 `json:"index"`
	Count uint64 `json:"count"`
}

// ModeStats summarizes one mode's index distribution. The JSON form is what
// `tns-tool describe -json` emits, so the planner and offline analysis
// consume identical stats.
type ModeStats struct {
	Size     uint64 `json:"size"`
	Distinct int    `json:"distinct"`
	MinIdx   uint32 `json:"min_idx"`
	MaxIdx   uint32 `json:"max_idx"`
	MaxCount uint64 `json:"max_count"`
	// MeanCount is nnz / distinct; Imbalance is MaxCount / MeanCount — the
	// quantity that drives sub-tensor load balance when this mode splits.
	MeanCount float64 `json:"mean_count"`
	Imbalance float64 `json:"imbalance"`
	// SelfJoin is Σ cᵢ² over the per-index non-zero counts cᵢ: the size of
	// the self-join on this mode, the second moment the skew-aware match
	// estimator uses.
	SelfJoin float64 `json:"self_join"`
	// Heavy lists the top-HeavyHitters indices by count, descending.
	Heavy []HeavyHitter `json:"heavy,omitempty"`
	// HistBounds/HistCounts is the nnz-per-used-index histogram in the
	// observability layer's probe bucketing (counts has one extra +Inf
	// bucket past the bounds).
	HistBounds []float64 `json:"hist_bounds"`
	HistCounts []uint64  `json:"hist_counts"`
}

// TensorStats is the per-tensor input of the planner's estimator.
type TensorStats struct {
	Dims    []uint64    `json:"dims"`
	NNZ     int         `json:"nnz"`
	Density float64     `json:"density"`
	Bytes   uint64      `json:"bytes"`
	Modes   []ModeStats `json:"modes"`
}

// StatsOf computes t's per-mode statistics in one counting pass per mode.
// The cost is O(nnz · order) — far below one contraction — and PlanSteps
// pays it once per distinct tensor it is given.
func StatsOf(t *coo.Tensor) *TensorStats {
	card := 1.0
	for _, d := range t.Dims {
		card *= float64(d)
	}
	s := &TensorStats{
		Dims:  append([]uint64(nil), t.Dims...),
		NNZ:   t.NNZ(),
		Bytes: t.Bytes(),
		Modes: make([]ModeStats, t.Order()),
	}
	if card > 0 {
		s.Density = float64(t.NNZ()) / card
	}
	for m := range t.Dims {
		s.Modes[m] = modeStatsOf(t, m)
	}
	return s
}

// modeStatsOf counts mode m's index occupancy.
func modeStatsOf(t *coo.Tensor, m int) ModeStats {
	counts := make(map[uint32]uint64)
	ms := ModeStats{Size: t.Dims[m]}
	if t.NNZ() > 0 {
		ms.MinIdx = t.Inds[m][0]
		ms.MaxIdx = t.Inds[m][0]
	}
	for _, v := range t.Inds[m] {
		counts[v]++
		if v < ms.MinIdx {
			ms.MinIdx = v
		}
		if v > ms.MaxIdx {
			ms.MaxIdx = v
		}
	}
	ms.Distinct = len(counts)
	sh := obs.NewHistShard(obs.ProbeBuckets)
	hh := make([]HeavyHitter, 0, len(counts))
	for idx, c := range counts {
		sh.Observe(float64(c))
		ms.SelfJoin += float64(c) * float64(c)
		if c > ms.MaxCount {
			ms.MaxCount = c
		}
		hh = append(hh, HeavyHitter{Index: idx, Count: c})
	}
	if ms.Distinct > 0 {
		ms.MeanCount = float64(t.NNZ()) / float64(ms.Distinct)
		ms.Imbalance = float64(ms.MaxCount) / ms.MeanCount
	}
	// Top-HeavyHitters by count, ties broken by index for determinism.
	sort.Slice(hh, func(i, j int) bool {
		if hh[i].Count != hh[j].Count {
			return hh[i].Count > hh[j].Count
		}
		return hh[i].Index < hh[j].Index
	})
	if len(hh) > HeavyHitters {
		hh = hh[:HeavyHitters]
	}
	ms.Heavy = hh
	ms.HistBounds = append([]float64(nil), obs.ProbeBuckets...)
	ms.HistCounts = sh.Counts()
	return ms
}
