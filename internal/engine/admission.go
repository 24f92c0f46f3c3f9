package engine

import (
	"fmt"

	"sparta/internal/core"
	"sparta/internal/hashtab"
	"sparta/internal/hetmem"
)

// Footprint is the pre-run DRAM demand estimate for one contraction: the
// prepared HtY plus the per-thread accumulator tables and local output
// buffers the compute stages allocate. It feeds the same static planner the
// hetmem layer uses for placement (§4.2), so admission and placement agree
// on what "fits".
type Footprint struct {
	HtY          uint64 // resident prepared table (exact once built)
	HtAPerThread uint64 // Eq. 6 upper bound per worker
	ZLocal       uint64 // per-thread output staging upper bound
}

// zlEntryBytes is the accounted size of one Z_local entry (value + packed
// key), matching the profile layer's accounting.
const zlEntryBytes = 16

// EstimateFootprint bounds the memory a contraction of an nnzX-nonzero X
// against the prepared plan will demand. HtY is the table's exact resident
// size. HtA and Z_local do not exist yet, so both use worst-case bounds:
// Eq. 6 with the accumulator's own starting buckets (core.AccumBuckets, not
// HtY's, whose count means slots on one arm and keys on the other),
// nnz_Fmax(X) = nnzX (every X nonzero sharing one contract key) and the
// prepared table's true nnz_Fmax(Y); Z_local assumes every X nonzero matches
// a maximal Y fiber. Deliberately conservative — admission exists to
// protect the DRAM budget, and a shed request can retry, while an admitted
// request that thrashes cannot.
func EstimateFootprint(nnzX int, pr *core.PreparedY) Footprint {
	maxY := pr.MaxItemLen()
	return Footprint{
		HtY:          pr.Bytes(),
		HtAPerThread: hashtab.EstimateHtABytes(core.AccumBuckets(), nnzX, maxY, pr.NumFreeModes()),
		ZLocal:       uint64(nnzX) * uint64(maxY) * zlEntryBytes,
	}
}

// Total is the summed demand across threads.
func (f Footprint) Total(threads int) uint64 {
	if threads < 1 {
		threads = 1
	}
	return f.HtY + f.HtAPerThread*uint64(threads) + f.ZLocal
}

// WindowedTotal bounds the resident demand of a streamed run that walks X
// in windows of windowNNZ of nnzX non-zeros: the whole table plus the
// window-scaled accumulator and staging bounds (both Eq. 6-style bounds are
// proportional to the X non-zeros in flight).
func (f Footprint) WindowedTotal(threads, windowNNZ, nnzX int) uint64 {
	if threads < 1 {
		threads = 1
	}
	frac := 1.0
	if nnzX > 0 && windowNNZ < nnzX {
		frac = float64(windowNNZ) / float64(nnzX)
	}
	scaled := float64(f.HtAPerThread*uint64(threads)+f.ZLocal) * frac
	return f.HtY + uint64(scaled)
}

// Admission gates contractions against a DRAM budget shared with any
// already-admitted work. A zero budget disables the gate entirely.
type Admission struct {
	// DRAMBudget is the total byte budget (0 = admission disabled).
	DRAMBudget uint64
}

// Admit plans f's objects into the remaining budget (DRAMBudget minus
// inUse) with hetmem.PlanStatic under the paper's priority order and admits
// only when every object fits entirely — a partially resident HtA or HtY is
// exactly the slow path admission exists to avoid. The returned Frac is the
// planner's verdict, useful for logging which object failed to fit.
func (a Admission) Admit(f Footprint, threads int, inUse uint64) (bool, hetmem.Frac) {
	if a.DRAMBudget == 0 {
		return true, hetmem.AllDRAM()
	}
	rem := uint64(0)
	if a.DRAMBudget > inUse {
		rem = a.DRAMBudget - inUse
	}
	if threads < 1 {
		threads = 1
	}
	frac := hetmem.PlanStatic(a.sizes(f, threads), rem, hetmem.SpartaPriority)
	ok := frac[hetmem.ObjHtY] >= 1 && frac[hetmem.ObjHtA] >= 1 && frac[hetmem.ObjZLocal] >= 1
	return ok, frac
}

// sizes lays f out as the planner's object vector. Z does not exist before
// the run; its demand is proxied by the ZLocal bound (every staged entry
// becomes at most one output non-zero of comparable byte weight), which is
// what decides heap-vs-spill for the output.
func (a Admission) sizes(f Footprint, threads int) [hetmem.NumObjects]uint64 {
	var sizes [hetmem.NumObjects]uint64
	sizes[hetmem.ObjHtY] = f.HtY
	sizes[hetmem.ObjHtA] = f.HtAPerThread * uint64(threads)
	sizes[hetmem.ObjZLocal] = f.ZLocal
	sizes[hetmem.ObjZ] = f.ZLocal
	return sizes
}

// Tier is the execution tier admission assigns a contraction.
type Tier int

const (
	// TierDRAM is the fast path: the whole footprint fits, the in-memory
	// driver runs.
	TierDRAM Tier = iota
	// TierStreamed is the degrade-gracefully path: HtY fits but the full
	// working set does not, so the windowed out-of-core driver runs with
	// the residency the planner picked.
	TierStreamed
	// TierShed means even the prepared table alone exceeds the budget —
	// streaming probes HtY randomly on every non-zero, so a partially
	// resident table would thrash; this is the only remaining 503 case.
	TierShed
)

// String names the tier for trace tags, replies, and metrics labels.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierStreamed:
		return "streamed"
	case TierShed:
		return "shed"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Plan assigns f the cheapest tier the remaining budget allows: the
// in-memory path when everything fits, the windowed streaming path when
// only the full working set misses (with the window size and Z spill
// decision from hetmem.PlanResidency), and shedding only when HtY alone
// cannot fit. nnzX scales the window; threads defaulting matches Admit.
func (a Admission) Plan(f Footprint, threads, nnzX int, inUse uint64) (Tier, hetmem.Residency) {
	if a.DRAMBudget == 0 {
		return TierDRAM, hetmem.Residency{Frac: hetmem.AllDRAM(), HtYResident: true, WindowNNZ: nnzX}
	}
	if threads < 1 {
		threads = 1
	}
	ok, frac := a.Admit(f, threads, inUse)
	if ok {
		res := hetmem.Residency{Frac: frac, HtYResident: true, WindowNNZ: nnzX}
		res.SpillZ = frac[hetmem.ObjZ] < 1
		return TierDRAM, res
	}
	rem := uint64(0)
	if a.DRAMBudget > inUse {
		rem = a.DRAMBudget - inUse
	}
	res := hetmem.PlanResidency(a.sizes(f, threads), nnzX, rem)
	if !res.HtYResident {
		return TierShed, res
	}
	return TierStreamed, res
}
