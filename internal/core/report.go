package core

import (
	"fmt"
	"strings"
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
)

// Algorithm selects the SpTC variant. The zero value is Sparta; the others
// are the paper's baselines. (The artifact's EXPERIMENT_MODES numbering is
// cmd/ttt's concern.)
type Algorithm int

const (
	// AlgSparta is the full Sparta algorithm: hash-table Y and hash-table
	// accumulator (Algorithm 2).
	AlgSparta Algorithm = iota
	// AlgSPA is SpTC-SPA: COO Y with linear index search plus the
	// vector sparse accumulator (Algorithm 1).
	AlgSPA
	// AlgCOOHtA keeps the COO Y linear search but accumulates into the
	// hash-table accumulator HtA.
	AlgCOOHtA
	// AlgTwoPhase is the traditional symbolic+numeric SpTC the paper's
	// §3.2 argues against: a structure-only pass counts the exact output
	// size, then a second pass computes values into the exactly-sized Z
	// with no thread-local buffers and no gather.
	AlgTwoPhase
)

// String names the algorithm the way the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case AlgSPA:
		return "COOY+SPA"
	case AlgCOOHtA:
		return "COOY+HtA"
	case AlgTwoPhase:
		return "TwoPhase"
	case AlgSparta:
		return "HtY+HtA"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Stage identifies one of the five SpTC stages (§3.1).
type Stage int

const (
	StageInput  Stage = iota // ① input processing
	StageSearch              // ② index search
	StageAccum               // ③ accumulation
	StageWrite               // ④ writeback
	StageSort                // ⑤ output sorting
	NumStages
)

// String returns the paper's stage name.
func (s Stage) String() string {
	switch s {
	case StageInput:
		return "Input Processing"
	case StageSearch:
		return "Index Search"
	case StageAccum:
		return "Accumulation"
	case StageWrite:
		return "Writeback"
	case StageSort:
		return "Output Sorting"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Report carries everything the evaluation harness needs from one
// contraction: per-stage wall times, operation counters (the quantities in
// Eqs. 3 and 4), and the sizes of the six data objects the
// heterogeneous-memory planner places (Table 2).
type Report struct {
	Algorithm Algorithm
	Threads   int

	// HtYBuild is the COO→HtY conversion wall time, a part of StageInput
	// reported on its own. Zero when the build was skipped (HtYReused).
	HtYBuild time.Duration
	// HtYBuildWalls is where the build of the table this contraction probed
	// spent its time (encode / sort / group scans / pack beside fill). On a
	// fresh build the four walls sum to HtYBuild within a few percent; on a
	// reused table they still describe the build that made it.
	HtYBuildWalls hashtab.BuildWalls
	// HtYReused is true when this contraction probed a *PreparedY that an
	// earlier contraction already completed on — kept by the caller, by a
	// chain, by the engine plan cache, or on sptc-serve's stored operand.
	// The first contraction to complete on a PreparedY is its first use: it
	// reports the build (HtYBuild, inside StageInput) as the one-shot
	// Contract does, since a one-shot is PrepareX, PrepareY and that first
	// use. A reused run has no "hty build" span and HtYBuild is zero.
	HtYReused bool
	// XPrepared is true when this contraction skipped X's half of stage ①
	// — permute, sort, sub-tensor index — because a *PreparedX that an
	// earlier contraction already used supplied it. No "x sort" span belongs
	// to such a run, XSort is zero and StageInput holds Y's half only.
	XPrepared bool `json:"x_prepared,omitempty"`
	// XSort reports which engine sorted X in stage ① and, on the radix
	// path, its partition/pass stats.
	XSort coo.SortInfo
	// SubsortWall is the residual stage-⑤ cost of the Zlocal-buffered
	// algorithms: the per-run LN(Fy) sorts inside the gather, max across
	// workers. Zero for AlgTwoPhase (where StageSort holds the full Z sort).
	SubsortWall time.Duration

	// StageWall approximates the wall-clock time of each stage. For the
	// three computation stages, which interleave inside the parallel
	// sub-tensor loop, it is the maximum per-thread accumulated time; for
	// input processing and output sorting it is directly measured.
	StageWall [NumStages]time.Duration
	// StageCPU is the per-thread-summed time of each stage.
	StageCPU [NumStages]time.Duration
	// Symbolic is the symbolic-phase wall time (AlgTwoPhase only); it is
	// included in Total.
	Symbolic time.Duration

	// Tensor features.
	NNZX, NNZY, NNZZ int
	NF               int // number of mode-FX sub-tensors of X
	MaxSubNNZX       int // nnz_Fmax of X
	MaxSubNNZY       int // nnz_Fmax of Y (largest HtY item list / Y key run)
	DistinctKeysY    int // distinct contract tuples in Y
	BucketsHtY       int

	// Operation counters.
	SearchSteps uint64 // COO-Y linear-search key comparisons (SPA, COOY+HtA)
	ProbesHtY   uint64 // HtY 8-slot control words inspected (Sparta, two-phase)
	HitsY       uint64 // X non-zeros whose contract key exists in Y
	MissY       uint64 // X non-zeros with no matching Y sub-tensor
	Products    uint64 // scalar multiply-adds performed
	SPACompares uint64 // SPA key-element comparisons (SPA)
	ProbesHtA   uint64 // HtA slot probes (every HtA algorithm)
	AccumHits   uint64 // accumulator add-into-existing
	AccumMiss   uint64 // accumulator fresh inserts
	// DenseSubs counts the X sub-tensors AlgSparta accumulated in the
	// direct-indexed array instead of HtA (chosen per sub-tensor from the
	// free-Y cardinality and the sub-tensor's products; DESIGN.md §9.4).
	// Their adds are in ProbesHtA/AccumHits/AccumMiss like any other.
	DenseSubs uint64

	// Streamed is true when the contraction walked X in windows
	// (ContractStream, ContractStreamX) instead of materializing X's working
	// set at once; Windows is how many X windows it walked and SpilledZ
	// whether the output was staged through a file-backed spool rather than
	// heap.
	Streamed bool
	Windows  int
	SpilledZ bool

	// Shards is how many shard contractions a distributed coordinator
	// (internal/dist) fanned this request out to; 0 means a single-process
	// run. On a sharded report the stage walls are maxima across shards
	// (the scatter/gather critical path), the CPU sums and operation
	// counters are summed, and the partition/merge walls below are folded
	// into StageInput and StageWrite respectively so Total() stays
	// end-to-end.
	Shards int
	// ShardRetries counts shard attempts that failed and were re-dispatched
	// to another executor before the request succeeded.
	ShardRetries int
	// PartitionWall is the coordinator's X scatter time (hash free-mode
	// tuples, count, and stable-scatter into per-shard tensors).
	PartitionWall time.Duration
	// MergeWall is the coordinator's k-way merge of the per-shard sorted Z
	// runs.
	MergeWall time.Duration

	// Data-object sizes in bytes (peak), for Figs. 3, 7, 9.
	BytesX, BytesY   uint64
	BytesHtY         uint64
	BytesHtA         uint64 // summed across threads (paper: 10-50 MB per thread)
	BytesHtAPerThr   uint64 // largest single thread's HtA
	BytesZLocal      uint64 // summed across threads
	BytesZ           uint64
	EstBytesHtY      uint64 // Eq. 5
	EstBytesHtAPerTh uint64 // Eq. 6 (per thread upper bound)
}

// Total returns the end-to-end wall time (sum of stage walls plus the
// symbolic phase, when one ran).
func (r *Report) Total() time.Duration {
	t := r.Symbolic
	for _, d := range r.StageWall {
		t += d
	}
	return t
}

// ComputeTime returns the time of the computation stages (②+③+④), the
// quantity Fig. 4 speedups are dominated by.
func (r *Report) ComputeTime() time.Duration {
	return r.StageWall[StageSearch] + r.StageWall[StageAccum] + r.StageWall[StageWrite]
}

// PeakBytes estimates peak resident payload: inputs + HtY + accumulators +
// Zlocal + Z all live simultaneously at the end of writeback.
func (r *Report) PeakBytes() uint64 {
	return r.BytesX + r.BytesY + r.BytesHtY + r.BytesHtA + r.BytesZLocal + r.BytesZ
}

// Breakdown renders the five-stage percentage split (Fig. 2 rows).
func (r *Report) Breakdown() string {
	total := r.Total()
	if total <= 0 {
		return "(no time recorded)"
	}
	var b strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", s, 100*float64(r.StageWall[s])/float64(total))
	}
	return b.String()
}
