// Package sortx implements the parallel radix-sort engine behind stage ①
// (input sorting) and the sort-fused writeback that eliminates stage ⑤:
// out-of-place MSD/LSD digit sorts over (uint64 key, int32 pos) pairs and
// over (uint64 key, float64 val) runs.
//
// The driver mirrors the lock-free two-pass HtY build (hashtab/build2p.go):
// one MSD digit pass — per-thread histograms, a prefix sum, then a
// cooperative scatter with per-thread cursors — splits the input into at
// most 256 partitions that are then finished independently, in parallel.
// The MSD digit is the top eight bits that actually vary across the input
// (found exactly with OR/AND aggregates folded into the histogram pass),
// wherever they fall in the word, so spread keys of any width fill the
// partitions evenly and everything after the first scatter runs over
// cache-sized pieces: a second digit pass inside each partition, insertion
// sort on the handful of elements each of its runs holds, and LSD passes
// only for a run that is still long. Digits that are constant across the
// whole input are never visited, and all-equal keys pay no pass at all.
package sortx

import (
	"math/bits"

	"sparta/internal/invariant"
	"sparta/internal/parallel"
)

// KeyPos pairs an LN-encoded coordinate with its original position. The coo
// sorter builds Pos = 0,1,2,..., so a key-stable sort reproduces the
// comparison sorter's (key, pos) tie-broken order exactly.
type KeyPos struct {
	Key uint64
	Pos int32
}

// Stats reports how one Sort call spent its digit passes; the partition
// counts feed the sptc_sort_* skew metrics. A digit is eight key bits, and
// whenever counting passes did the sorting Passes + Skipped digits cover
// the width of maxKey.
type Stats struct {
	Sorted     bool // input was already key-sorted; no passes ran at all
	Serial     bool // took the serial LSD path (small input)
	Partitions int  // non-empty MSD partitions (MSD path only)
	MaxRun     int  // largest MSD partition size
	Passes     int  // digit passes executed (the MSD pass included)
	Skipped    int  // digit passes skipped because the digit is constant
}

const (
	// parallelMin is the input size below which the MSD partition
	// machinery (two extra sweeps plus per-thread tables) costs more than
	// it saves over the plain serial LSD loop. At or above it the MSD path
	// runs whatever the thread count: its later passes stay in cache, which
	// one thread gains from as much as several.
	parallelMin = 1 << 14
	// insertionMax is the run length at or below which insertion sort
	// beats counting passes.
	insertionMax = 24
)

// Sort orders a ascending by Key, stably: equal keys keep their input
// order. maxKey bounds every key (callers pass the radix's Card()-1), which
// caps the bit positions ever scanned. One scratch buffer of len(a) is the
// only allocation beyond constant-size per-thread tables.
func Sort(a []KeyPos, maxKey uint64, threads int) Stats {
	n := len(a)
	width := bits.Len64(maxKey)
	nd := (width + 7) / 8
	if n < 2 || nd == 0 {
		return Stats{Serial: true, Skipped: nd}
	}
	// Already-sorted pre-scan: a contraction over trailing modes permutes X
	// with the identity, so stage ① often re-sorts sorted data. The scan is
	// one cheap sequential sweep (comparison sorts get this for free; digit
	// passes do not), and Pos ascending on equal keys is exactly the stable
	// order, so nothing needs to move.
	if keysSorted(a) {
		return Stats{Sorted: true}
	}
	if n < parallelMin {
		return serialSort(a, nd)
	}
	return msdSort(a, width, parallel.Clamp(threads, n))
}

// serialSort is the small-input path: insertion sort, or one LSD pass per
// non-constant digit of the declared width.
func serialSort(a []KeyPos, nd int) Stats {
	if len(a) <= insertionMax {
		insertionKP(a)
		return Stats{Serial: true}
	}
	passes := make([]uint, nd)
	for d := range passes {
		passes[d] = uint(8 * d)
	}
	run := lsdRange(a, make([]KeyPos, len(a)), passes)
	return Stats{Serial: true, Passes: run, Skipped: nd - run}
}

// msdSort runs the MSD partition pass and then finishes every partition
// independently. The MSD digit is cut from the live key bits —
// bits [shift, shift+8) with shift+8 the position just above the highest
// bit that differs between any two keys — not from a byte boundary: a
// byte-aligned digit sees as few as one varying bit (41-bit keys vary in
// bit 40 of byte 5 only), which yields two partitions however many threads
// wait for them and leaves every LSD pass streaming the whole input through
// memory.
func msdSort(a []KeyPos, width, threads int) Stats {
	n := len(a)
	nd := (width + 7) / 8
	st := Stats{}

	// Histogram pass: per-thread digit counts plus OR/AND aggregates that
	// reveal which bit positions vary at all. parallel.For's static split
	// is deterministic, so the scatter pass below revisits identical
	// per-thread ranges.
	partial := make([][256]int, threads)
	ors := make([]uint64, threads)
	ands := make([]uint64, threads)
	histogram := func(shift uint) {
		parallel.For(threads, n, func(tid, lo, hi int) {
			var h [256]int
			or, and := uint64(0), ^uint64(0)
			for i := lo; i < hi; i++ {
				k := a[i].Key
				or |= k
				and &= k
				h[k>>shift&0xff]++
			}
			partial[tid] = h
			ors[tid], ands[tid] = or, and
		})
	}
	// The first count guesses that the top bit of the declared width is
	// live (true of any input that uses its index box); the aggregates it
	// returns say where the digit really is.
	shift := uint(max(width-8, 0))
	histogram(shift)
	orAll, andAll := uint64(0), ^uint64(0)
	for t := 0; t < threads; t++ {
		orAll |= ors[t]
		andAll &= ands[t]
	}
	invariant.Assertf(bits.Len64(orAll) <= width,
		"sortx: key with %d significant bits exceeds the %d-bit radix width", bits.Len64(orAll), width)
	diff := orAll ^ andAll // never zero: Sort returns on all-equal keys as sorted
	if live := uint(max(bits.Len64(diff)-8, 0)); live != shift {
		shift = live
		histogram(shift) // re-count on the bits that actually vary
	}
	invariant.Assertf(diff>>shift <= 0xff,
		"sortx: live bits %#x reach above the MSD digit at bit %d", diff, shift)
	st.Passes = 1
	st.Skipped = (8*nd - int(shift) - 1) / 8 // constant digits above the MSD digit

	// Partition bounds and per-thread scatter cursors (the build2p
	// pattern): thread t starts each partition at the global prefix plus
	// the counts of the threads before it, so the scatter is stable and
	// lock-free.
	bounds := make([]int, 257)
	for v := 0; v < 256; v++ {
		sum := 0
		for t := 0; t < threads; t++ {
			sum += partial[t][v]
		}
		bounds[v+1] = bounds[v] + sum
		if sum > 0 {
			st.Partitions++
			st.MaxRun = max(st.MaxRun, sum)
		}
	}
	invariant.Assertf(bounds[256] == n,
		"sortx: MSD histogram sums to %d, want %d", bounds[256], n)
	cursors := make([][256]int, threads)
	var run [256]int
	copy(run[:], bounds[:256])
	for t := 0; t < threads; t++ {
		cursors[t] = run
		for v := 0; v < 256; v++ {
			run[v] += partial[t][v]
		}
	}
	buf := make([]KeyPos, n)
	parallel.For(threads, n, func(tid, lo, hi int) {
		off := &cursors[tid]
		for i := lo; i < hi; i++ {
			v := a[i].Key >> shift & 0xff
			buf[off[v]] = a[i]
			off[v]++
		}
	})

	// Below the MSD digit every partition is finished on its own
	// (finishPartition). The pass account is the LSD plan under the MSD
	// digit — the live digits of bits [0, shift) — which a partition with
	// crowded keys executes and one with spread keys replaces by a single
	// counting pass and an insertion sweep.
	below := diff & (1<<shift - 1)
	top := uint(bits.Len64(below))
	var passes []uint
	for s := uint(0); s < shift; s += 8 {
		if below>>s&0xff != 0 {
			passes = append(passes, s)
			st.Passes++
		} else {
			st.Skipped++
		}
	}
	tabs := make([]digit2Table, threads)
	// Chunk 1: partition sizes are skewed and 256 partitions over few
	// threads balance fine at that grain.
	parallel.ForChunked(threads, 256, 1, func(tid, blo, bhi int) {
		for p := blo; p < bhi; p++ {
			lo, hi := bounds[p], bounds[p+1]
			seg, out := buf[lo:hi], a[lo:hi]
			switch {
			case below == 0: // the partition's keys are all equal
				copy(out, seg)
			case hi-lo <= insertionMax:
				copy(out, seg)
				insertionKP(out)
			default:
				finishPartition(seg, out, top, passes, &tabs[tid])
			}
		}
	})
	return st
}

// digit2Max is the widest second digit, in bits: 2^11 int32 counters are
// 8 KB, which a partition's pass keeps in L1 beside the data it moves.
const digit2Max = 11

// digit2Table is one thread's counter table for finishPartition.
type digit2Table [1 << digit2Max]int32

// finishPartition sorts one MSD partition, held in seg, into out. Its keys
// agree on every bit from top up, so one more counting pass — on a digit cut
// from the bits just under top, wide enough to give about one counter per
// element — leaves every element within a short run of its place, and one
// insertion sweep over the partition finishes it. A partition whose keys
// crowd into a run too long for that takes the LSD passes instead, which
// cover every varying bit below top.
func finishPartition(seg, out []KeyPos, top uint, passes []uint, tab *digit2Table) {
	if len(out) < len(seg) {
		return // impossible: both views cover the same partition
	}
	out = out[:len(seg)]
	w := min(uint(bits.Len(uint(len(seg)))), digit2Max, top)
	shift := top - w
	off := tab[:1<<w]
	clear(off)
	mask := uint64(len(off) - 1)
	for i := range seg {
		off[seg[i].Key>>shift&mask]++
	}
	pos, longest := int32(0), int32(0)
	for v, c := range off {
		off[v] = pos
		pos += c
		longest = max(longest, c)
	}
	invariant.Assertf(int(pos) == len(seg),
		"sortx: second-digit histogram sums to %d, want %d", pos, len(seg))
	if shift > 0 && longest > insertionMax {
		copy(out, seg)
		lsdRange(out, seg, passes)
		return
	}
	for i := range seg {
		v := seg[i].Key >> shift & mask
		j := off[v]
		out[j] = seg[i]
		off[v] = j + 1
	}
	if shift > 0 {
		insertionKP(out)
	}
}

// lsdRange sorts a in place by the digits in passes, ping-ponging with
// scratch, and returns how many passes it executed: digits constant within
// a are skipped even when they vary globally.
//
// The scatter is written for bounds-check elimination (the -perf lint gate
// holds this function at zero escapes and zero bounds checks): the
// impossible conditions — empty views, a counting-sort offset outside the
// run — are explicit guards the prover can consume instead of implicit
// panics in the inner loop.
func lsdRange(a, scratch []KeyPos, passes []uint) int {
	cur, alt := a, scratch
	run := 0
	for _, shift := range passes {
		if len(cur) == 0 || len(alt) < len(cur) {
			return run // impossible: both views cover the same run
		}
		alt = alt[:len(cur)]
		var counts [256]int
		for i := range cur {
			counts[cur[i].Key>>shift&0xff]++
		}
		if counts[cur[0].Key>>shift&0xff] == len(cur) {
			continue
		}
		var off [256]int
		pos := 0
		for v := 0; v < 256; v++ {
			off[v] = pos
			pos += counts[v]
		}
		for i := range cur {
			v := cur[i].Key >> shift & 0xff
			j := off[v]
			if uint(j) >= uint(len(alt)) {
				// Counting-sort offsets tile [0,len) exactly; reachable
				// only on corruption the assert build would catch.
				if invariant.Enabled {
					invariant.Assertf(false,
						"sortx: LSD scatter offset %d outside run of %d", j, len(alt))
				}
				continue
			}
			alt[j] = cur[i]
			off[v] = j + 1
		}
		cur, alt = alt, cur
		run++
	}
	// An odd number of executed passes leaves the data in scratch.
	if run%2 == 1 {
		copy(a, cur)
	}
	return run
}

// keysSorted reports whether a is already non-decreasing by key.
func keysSorted(a []KeyPos) bool {
	for i := 1; i < len(a); i++ {
		if a[i].Key < a[i-1].Key {
			return false
		}
	}
	return true
}

// insertionKP sorts a tiny slice stably by key.
func insertionKP(a []KeyPos) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && x.Key < a[j-1].Key; j-- {
			a[j] = a[j-1]
		}
		if uint(j) < uint(len(a)) { // always: j <= i; spelled out for the bounds-check prover
			a[j] = x
		}
	}
}

// pairInsertionMax is the run length at or below which SortPairs uses
// insertion sort; fused-writeback runs are usually this small.
const pairInsertionMax = 32

// SortPairs sorts the parallel arrays keys/vals ascending by key — the
// per-sub-tensor run sorter of the sort-fused writeback. It runs serially
// (callers parallelize across runs); *scratchK/*scratchV are grown once and
// reused, so a worker's whole Zlocal sorts with at most one allocation.
// Equal keys keep their input order (LSD is stable), though accumulator
// runs never contain duplicates. maxKey bounds the keys as in Sort.
func SortPairs(keys []uint64, vals []float64, maxKey uint64, scratchK *[]uint64, scratchV *[]float64) {
	n := len(keys)
	if n < 2 {
		return
	}
	sorted := true
	for i := 1; i < n; i++ {
		if keys[i] < keys[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if n <= pairInsertionMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return
	}
	// OR/AND aggregates pick out the varying bytes: one sub-tensor's
	// LN(Fy) run often shares its high bytes, which then cost nothing.
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	diff := or ^ and
	if diff == 0 {
		return
	}
	if cap(*scratchK) < n {
		*scratchK = make([]uint64, n)
		*scratchV = make([]float64, n)
	}
	srcK, srcV := keys, vals
	dstK, dstV := (*scratchK)[:n], (*scratchV)[:n]
	nb := (bits.Len64(maxKey) + 7) / 8
	passes := 0
	for b := 0; b < nb; b++ {
		if diff>>(8*b)&0xff == 0 {
			continue
		}
		shift := uint(8 * b)
		var counts [256]int
		for _, k := range srcK {
			counts[k>>shift&0xff]++
		}
		var off [256]int
		pos := 0
		for v := 0; v < 256; v++ {
			off[v] = pos
			pos += counts[v]
		}
		for i, k := range srcK {
			v := k >> shift & 0xff
			dstK[off[v]] = k
			dstV[off[v]] = srcV[i]
			off[v]++
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
		passes++
	}
	if passes%2 == 1 {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
