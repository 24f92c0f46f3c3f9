package hetmem

// Residency is the static placement priority (§4.2) repurposed for real
// tiered execution: instead of simulating which fraction of each object
// would sit in DRAM vs PMM, it decides which objects live in anonymous
// memory (heap) and which must be file-backed or windowed so the
// contraction *runs* inside the budget rather than being shed.
type Residency struct {
	// Frac is PlanStatic's verdict over the full (unwindowed) footprint —
	// the same fractions admission logs, kept for diagnostics.
	Frac Frac
	// HtYResident reports whether the prepared table fits the budget
	// whole. The streamed driver probes HtY randomly on every X non-zero;
	// a partially resident table is the thrashing case the paper's
	// priority order exists to avoid, so HtY either fits or the request
	// genuinely cannot run (the only remaining shed case).
	HtYResident bool
	// SpillZ directs the output through a file-backed spool: the planner
	// could not fit Z in the budget left after the hotter objects.
	SpillZ bool
	// WindowNNZ caps the X non-zeros per streamed window so that one
	// window's accumulators and output staging fit in the budget HtY
	// leaves behind. Equal to nnzX when no windowing is needed.
	WindowNNZ int
}

// MinWindowNNZ floors the planned window size: microscopic windows would
// drown the contraction in per-window overhead. A budget too small even for
// this still runs; it overshoots the budget by one window's working set (a
// window holds at least one whole sub-tensor).
const MinWindowNNZ = 1 << 13

// PlanResidency turns a footprint and a DRAM budget into an executable
// placement. sizes carries the Eq. 5/6 bounds for the full contraction
// (HtA summed across threads); nnzX scales the window: HtA and Zlocal
// bounds are proportional to the X non-zeros in flight, so capping the
// window at w caps their demand at sizes*(w/nnzX). A zero budget means
// "unconstrained": everything resident, one window.
func PlanResidency(sizes [NumObjects]uint64, nnzX int, dramBytes uint64) Residency {
	if dramBytes == 0 {
		return Residency{Frac: AllDRAM(), HtYResident: true, WindowNNZ: nnzX}
	}
	frac := PlanStatic(sizes, dramBytes, SpartaPriority)
	r := Residency{
		Frac:        frac,
		HtYResident: frac[ObjHtY] >= 1,
		SpillZ:      frac[ObjZ] < 1,
		WindowNNZ:   nnzX,
	}
	if !r.HtYResident {
		return r
	}
	// Budget left for the per-window working set after the whole table.
	rem := dramBytes - sizes[ObjHtY]
	working := sizes[ObjHtA] + sizes[ObjZLocal]
	if working <= rem || nnzX == 0 {
		return r // fits unwindowed
	}
	w := int(float64(nnzX) * float64(rem) / float64(working))
	if w < MinWindowNNZ {
		w = MinWindowNNZ
	}
	if w > nnzX {
		w = nnzX
	}
	r.WindowNNZ = w
	return r
}
