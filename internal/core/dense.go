package core

import (
	"math"
	"math/bits"

	"sparta/internal/invariant"
)

// The accumulator is chosen per X sub-tensor (DESIGN.md §9.4). A hash table
// is the right stage-③ structure while the output row is sparse in the
// free-Y space; once the products of one sub-tensor fill a small space, an
// array indexed directly by LN(Fy) does the same additions without hashing,
// probing or growing. Both numbers the choice needs are known after stage ②:
// the space is p.radFY.Card() and the products are Σ len(items) over the
// matches in w.scratch.
//
// Dense runs when
//
//	card <= denseCardMax  &&  products*denseFillDiv >= card.
//
// Both constants come from BenchmarkAccumulateDenseVsHash (EXPERIMENTS.md
// "PR 20"). Once the array exists it beats HtA 2-8x over the whole sweep
// (2^8..2^20 cells, 1/64..1 products a cell), so neither constant marks a
// speed crossover; each bounds a cost. denseCardMax bounds memory — 8 B a
// cell plus one occupancy bit, 520 KB a worker at the cap, allocated only by
// a worker that meets a qualifying sub-tensor — and keeps the array inside
// L2 (past 2^16 cells a dense add goes from 4.7 to 6-9 ns). denseFillDiv
// bounds what a worker's first dense sub-tensor can lose to allocating and
// filling the array (4-5 ns a cell, once per worker and contraction): at one
// product per eight cells that is two to four later sub-tensors' worth of
// savings, and never more than 0.3 ms a worker.
const (
	denseCardMax = 1 << 16
	denseFillDiv = 8
)

// accumPick is the rule's override: pickAuto in library code, which never
// writes it; the oracle tests set it to run the same inputs down either path
// (forceAccum in dense_test.go). pickDense still honours denseCardMax, so
// the array stays bounded whatever a test forces.
type accumChoice int8

const (
	pickAuto accumChoice = iota
	pickHash
	pickDense
)

var accumPick = pickAuto

// useDense is the choice rule for a sub-tensor with the given number of
// products over a free-Y space of card cells.
func useDense(card uint64, products int) bool {
	if card > denseCardMax || accumPick == pickHash {
		return false
	}
	// products*denseFillDiv >= card, written so that it cannot overflow.
	return accumPick == pickDense || uint64(products) >= (card+denseFillDiv-1)/denseFillDiv
}

// negZero is what an unoccupied cell holds. -0.0 is the additive identity of
// IEEE-754 round-to-nearest: -0.0 + x is bitwise x for every x, ±0 and NaN
// included (+0.0 is not: +0.0 + -0.0 is +0.0). A cell's first product
// therefore lands exactly as the hash path's "store first, add after" would
// store it, with no first-touch branch in the loop.
var negZero = math.Copysign(0, -1)

// denseAcc is the direct-indexed accumulator of one worker: a value cell per
// LN(Fy) key and a bitmap of the keys that received a product in the current
// sub-tensor. The bitmap, not the value, says which keys exist, so products
// that cancel to exactly zero (or are -0.0 to begin with) stay output
// non-zeros as they do in HtA. Between sub-tensors every cell is negZero and
// every bit clear.
type denseAcc struct {
	vals []float64
	occ  []uint64
}

// init sizes the accumulator for a free-Y space of card cells. Not inlined:
// it runs once per worker, and its allocations stay out of subSparta's body.
//
//go:noinline
func (d *denseAcc) init(card uint64) {
	vals := make([]float64, card)
	for i := range vals {
		vals[i] = negZero
	}
	d.vals = vals
	d.occ = make([]uint64, (card+63)/64)
}

// bytes is the accumulator's footprint, counted into Report.BytesHtA.
func (d *denseAcc) bytes() uint64 {
	return uint64(cap(d.vals))*8 + uint64(cap(d.occ))*8
}

// accumulateDense is stage ③ on the dense path: every product of the matches
// in w.scratch is added into its key's cell, in the order accumulateHtY
// would add them, so each cell ends bitwise equal to the HtA entry.
func (w *worker) accumulateDense() {
	vals, occ := w.dense.vals, w.dense.occ
	for _, m := range w.scratch {
		v := m.xv
		for _, it := range m.items {
			k := it.LNFree
			if k >= uint64(len(vals)) || k>>6 >= uint64(len(occ)) {
				// impossible: LN(Fy) keys are below radFY.Card(), the cell
				// count, and occ holds a bit for every cell.
				if invariant.Enabled {
					invariant.Assertf(false, "accumulateDense: key %d outside the %d-cell free-Y space", k, len(vals))
				}
				continue
			}
			vals[k] += it.Val * v
			occ[k>>6] |= 1 << (k & 63)
		}
	}
	w.products += uint64(w.found)
	w.denseAdds += uint64(w.found)
}

// flushDense appends the occupied cells to Zlocal as sub-tensor f's run and
// returns the accumulator to its resting state. The popcount pass sizes the
// run exactly before openRun reserves it; the bitmap walk then emits the keys
// ascending, so the gather's per-run sort is a sorted sweep.
func (w *worker) flushDense(f int) {
	vals, occ := w.dense.vals, w.dense.occ
	n := 0
	for _, word := range occ {
		n += bits.OnesCount64(word)
	}
	w.denseSubs++
	w.denseMiss += uint64(n)
	c := w.openRun(f, n)
	if c == nil {
		return // w.err is set: the contraction is over for this worker
	}
	at := len(c.lns)
	end := at + n
	if len(c.vals) != at || end < at || end > cap(c.lns) || end > cap(c.vals) {
		// impossible: lns and vals grow together and openRun reserved n.
		if invariant.Enabled {
			invariant.Assertf(false, "flushDense: run of %d does not fit a chunk holding %d/%d of %d/%d",
				n, len(c.lns), len(c.vals), cap(c.lns), cap(c.vals))
		}
		return
	}
	outK, outV := c.lns[:end], c.vals[:end]
	zero := negZero
	for wi, word := range occ {
		if word == 0 {
			continue
		}
		occ[wi] = 0
		base := uint64(wi) << 6
		for ; word != 0; word &= word - 1 {
			k := base + uint64(bits.TrailingZeros64(word))
			if k >= uint64(len(vals)) || uint(at) >= uint(len(outK)) || uint(at) >= uint(len(outV)) {
				// impossible: occ has no bit past the last cell, and the
				// popcount above counted exactly the bits walked here.
				if invariant.Enabled {
					invariant.Assertf(false, "flushDense: key %d of %d cells at entry %d of a run ending at %d", k, len(vals), at, end)
				}
				continue
			}
			outK[at] = k
			outV[at] = vals[k]
			vals[k] = zero
			at++
		}
	}
	c.lns, c.vals = outK, outV
}
