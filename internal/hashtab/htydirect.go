package hashtab

import (
	"time"

	"sparta/internal/invariant"
	"sparta/internal/lnum"
	"sparta/internal/parallel"
)

// HtY's direct arm (DESIGN.md §9.5). When the contract-key space is small and
// Y fills it, the O(1) index search the paper builds HtY for needs no hash:
// a CSR over LN(Cy) — off[k], off[k+1] bound key k's items — is built by a
// counting sort with no pairs, no radix sort and no table fill, and a lookup
// is two loads.
//
// The direct arm runs when
//
//	buckets <= 0  &&  card <= htyDirectMax  &&  nnz*directFillDiv >= card.
//
// Both constants come from BenchmarkHtYBuildDirectVsHashed (EXPERIMENTS.md,
// "a direct-indexed HtY for small contract-key spaces"): the whole build,
// forced down each arm, over 2^8..2^22 keys and 1/32..4 non-zeros a key, at
// 1 and 2 threads. At two threads, from one non-zero per two keys up the
// counting build is never slower beyond noise at any card up to 2^20 —
// 0.9-1.4x the speed at 1/2, 1.0-1.9x at 1, 1.6-2.5x at 2 — and allocates
// 35-60 % of what sort-then-pack does; at one per four it is 0.6-0.85x from
// 2^12 to 2^20 keys, because zeroing and summing a histogram per thread
// outweighs the sort it replaces. directFillDiv is that boundary.
// htyDirectMax bounds memory: off takes 4 B a key, 4 MB at the cap, where at
// one non-zero a key the two builds tie at two threads (62 ms) and the
// direct arm allocates 29 MB to the hashed arm's 71 MB. The histograms, 4 B
// a key per thread for the length of the build, are bounded by
// directThreads.
const (
	htyDirectMax  = 1 << 20
	directFillDiv = 2
)

// Arm names one of HtYFlat's two index arms, for tests that force one.
type Arm int8

const (
	ArmAuto   Arm = iota // useDirect's rule
	ArmHashed            // the open-addressed table
	ArmDirect            // the CSR over LN(Cy)
)

// htyPick is the rule's override: ArmAuto in library code, which never
// writes it; the oracle tests set it through ForceArm to run the same inputs
// down either arm.
var htyPick = ArmAuto

// ForceArm makes every later BuildHtYFlat take arm and returns the function
// that restores the previous pick. It is a test hook — library code never
// calls it — and tests that use it must not run in parallel. ArmDirect still
// honours htyDirectMax and an explicit bucket count, so the histograms stay
// bounded whatever a test forces.
func ForceArm(arm Arm) (restore func()) {
	old := htyPick
	htyPick = arm
	return func() { htyPick = old }
}

// useDirect is the choice rule for a Y of nnz non-zeros over a contract-key
// space of card keys; buckets > 0 asks for a hash table of that size.
func useDirect(card uint64, nnz, buckets int) bool {
	if buckets > 0 || card > htyDirectMax || htyPick == ArmHashed {
		return false
	}
	// nnz*directFillDiv >= card, written so that it cannot overflow.
	return htyPick == ArmDirect || uint64(nnz) >= (card+directFillDiv-1)/directFillDiv
}

// histCellsPerNNZ bounds the counting build's histograms: 8 cells of 4 B a
// non-zero is 32 B, what the hashed arm's pairs and their sort scratch take.
const histCellsPerNNZ = 8

// directThreads is how many threads the counting build splits Y among. Each
// thread keeps a card-cell histogram, so the count is capped at
// histCellsPerNNZ*nnz/card, and never below one histogram.
func directThreads(card uint64, nnz, threads int) int {
	return int(max(1, min(uint64(threads), histCellsPerNNZ*uint64(nnz)/max(card, 1))))
}

// buildDirect is BuildHtYFlat's direct arm, a stable counting sort over
// parallel.For's static split:
//
//	count    each thread histograms LN(Cy) over its share of Y
//	prefix   one sum in (key, thread) order turns the histograms into each
//	         thread's first arena position per key and fills off, NKeys
//	         and MaxItems
//	scatter  each thread re-encodes its keys and writes YItem{LN(Fy), val}
//	         at its own cursor
//
// Thread t's items of key k land after those of threads < t, so each key's
// items keep original Y order, and the arena is the hashed arm's, bitwise.
func buildDirect(vals []float64, cCols, fCols [][]uint32, radC, radF *lnum.Radix, threads int, t0 time.Time) *HtYFlat {
	n, card := len(vals), int(radC.Card())
	threads = directThreads(uint64(card), n, threads)
	cdims, fdims := radC.Dims(), radF.Dims()
	hist := make([]int32, threads*card) // thread t's cells are hist[t*card : (t+1)*card]
	parallel.For(threads, n, func(t, lo, hi int) {
		countKeys(hist[t*card:(t+1)*card], cdims, cCols, lo, hi)
	})
	t1 := time.Now()

	h := &HtYFlat{off: make([]int32, card+1), NItems: n, Walls: BuildWalls{Direct: true}}
	sum := int32(0)
	for k := 0; k < card; k++ {
		h.off[k] = sum
		for c := k; c < len(hist); c += card {
			hist[c], sum = sum, sum+hist[c]
		}
		if m := int(sum - h.off[k]); m > 0 {
			h.NKeys++
			h.MaxItems = max(h.MaxItems, m)
		}
	}
	h.off[card] = sum
	t2 := time.Now()

	h.items = make([]YItem, n)
	parallel.For(threads, n, func(t, lo, hi int) {
		scatterItems(h.items, hist[t*card:(t+1)*card], cdims, fdims, cCols, fCols, vals, lo, hi)
	})
	t3 := time.Now()
	h.Walls.Encode, h.Walls.Group, h.Walls.PackFill = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if invariant.Enabled {
		// What Lookup relies on: off is non-decreasing and ends at nnz_Y, so
		// every key's range lies in the arena and the ranges tile it; NKeys
		// counts the non-empty cells; and the last thread's cursor for each
		// key stopped where the next key starts, so every slot was written.
		nonEmpty := 0
		for k := 0; k < card; k++ {
			invariant.Assertf(h.off[k] <= h.off[k+1], "HtYFlat: off[%d] = %d > off[%d] = %d", k, h.off[k], k+1, h.off[k+1])
			if h.off[k] < h.off[k+1] {
				nonEmpty++
			}
			invariant.Assertf(hist[(threads-1)*card+k] == h.off[k+1],
				"HtYFlat: key %d's last cursor stopped at %d, want off[%d] = %d", k, hist[(threads-1)*card+k], k+1, h.off[k+1])
		}
		invariant.Assertf(int(h.off[card]) == n, "HtYFlat: off[card] = %d, want nnz_Y = %d", h.off[card], n)
		invariant.Assertf(nonEmpty == h.NKeys, "HtYFlat: %d non-empty cells, NKeys = %d", nonEmpty, h.NKeys)
	}
	return h
}

// encodeAt is LN of row i of the columns cols under the mode sizes dims —
// Radix.EncodeStrided with explicit guards in place of its bounds checks, so
// the build loops stay free of them. ok is false only for a row outside a
// column, which the loops' ranges make impossible.
func encodeAt(dims []uint64, cols [][]uint32, i int) (ln uint64, ok bool) {
	for m, col := range cols {
		if m >= len(dims) || uint(i) >= uint(len(col)) {
			return 0, false
		}
		//lint:ignore lnoverflow ln stays below Card, whose uint64 fit NewRadix checked with bits.Mul64
		ln = ln*dims[m] + uint64(col[i])
	}
	return ln, true
}

// countKeys adds each row of [lo, hi) to its key's cell of hist.
func countKeys(hist []int32, dims []uint64, cols [][]uint32, lo, hi int) {
	for i := lo; i < hi; i++ {
		k, ok := encodeAt(dims, cols, i)
		if !ok || k >= uint64(len(hist)) {
			return // impossible: rows lie in the columns and keys below card
		}
		hist[k]++
	}
}

// scatterItems writes each row of [lo, hi) into the arena at its key's
// cursor and advances the cursor.
func scatterItems(items []YItem, cur []int32, cdims, fdims []uint64, cCols, fCols [][]uint32, vals []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		k, okC := encodeAt(cdims, cCols, i)
		f, okF := encodeAt(fdims, fCols, i)
		if !okC || !okF || k >= uint64(len(cur)) || uint(i) >= uint(len(vals)) {
			return // impossible, as in countKeys
		}
		p := int(cur[k])
		if uint(p) >= uint(len(items)) {
			return // impossible: the prefix sum keeps cursors below nnz_Y
		}
		items[p] = YItem{LNFree: f, Val: vals[i]}
		cur[k] = int32(p + 1)
	}
}
