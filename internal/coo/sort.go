package coo

import (
	"slices"
	"sync/atomic"

	"sparta/internal/lnum"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// SortAlgo names the engine behind SortWith. There is one: the benchmark
// harness compiles against SortWith(threads, SortAuto), so the parameter
// stays although nothing is left to select.
type SortAlgo int

// SortAuto picks the sortx radix engine whenever the index box is
// LN-encodable and the tuple quicksort otherwise.
const SortAuto SortAlgo = 0

// SortInfo reports which engine a SortWith call used.
type SortInfo struct {
	Radix bool        // the sortx radix path ran
	Stats sortx.Stats // radix pass/partition stats (zero value otherwise)
}

// Sort orders the non-zeros lexicographically over the current mode order.
//
// When the full index box fits in a uint64 the sorter takes the LN fast
// path: encode each coordinate once, sort (key, position) pairs with the
// parallel radix engine (package sortx), then apply the permutation to
// every column — one O(order) gather per element instead of O(order) work
// per comparison. The gather writes fresh columns (the old ones are never
// written, which SortableView relies on). Rows that are already in order are
// recognised before anything is allocated. Otherwise it falls back to the
// in-place multi-column parallel quicksort from §3.5 (OpenMP tasks in the
// paper, a depth-budgeted goroutine fan-out here).
func (t *Tensor) Sort(threads int) {
	t.SortWith(threads, SortAuto)
}

// SortWith is Sort, returning which engine ran and, on the radix path, its
// pass/partition stats.
func (t *Tensor) SortWith(threads int, _ SortAlgo) SortInfo {
	n := t.NNZ()
	if n < 2 {
		return SortInfo{}
	}
	if r, err := lnum.NewRadix(t.Dims); err == nil {
		return t.sortByKeys(r, threads)
	}
	fo := parallel.NewFanout(threads)
	quickSortTensor(t, 0, n, fo, maxDepth(n))
	fo.Wait()
	return SortInfo{}
}

// IsSorted reports whether the non-zeros are in lexicographic order.
func (t *Tensor) IsSorted() bool {
	for i := 1; i < t.NNZ(); i++ {
		if t.Less(i, i-1) {
			return false
		}
	}
	return true
}

// keyPos pairs an LN-encoded coordinate with its original position; the
// radix engine owns the layout so the kp slice crosses into sortx without
// conversion.
type keyPos = sortx.KeyPos

// sortedCheckBlock is how many rows a keysInOrder worker scans between looks
// at the shared "inversion found" flag.
const sortedCheckBlock = 1 << 10

// keysInOrder reports whether the rows are already in non-decreasing LN-key
// order, computing each key from the columns as it goes: one parallel pass,
// no allocation, and every worker stops soon after any of them meets an
// inversion. LN order is lexicographic order, so this agrees with IsSorted.
func (t *Tensor) keysInOrder(r *lnum.Radix, threads int) bool {
	n := t.NNZ()
	var inversion atomic.Bool
	// Item i of the loop is the adjacent pair (i, i+1).
	parallel.For(parallel.ClampWork(threads, n-1, int64(n)), n-1, func(_, lo, hi int) {
		prev := r.EncodeStrided(t.Inds, lo)
		for i := lo + 1; i <= hi; i++ {
			if (i-lo)%sortedCheckBlock == 0 && inversion.Load() {
				return
			}
			k := r.EncodeStrided(t.Inds, i)
			if k < prev {
				inversion.Store(true)
				return
			}
			prev = k
		}
	})
	return !inversion.Load()
}

func (t *Tensor) sortByKeys(r *lnum.Radix, threads int) SortInfo {
	n := t.NNZ()
	if t.keysInOrder(r, threads) {
		// Nothing moves: the columns stay as they are.
		return SortInfo{Radix: true, Stats: sortx.Stats{Sorted: true}}
	}
	kp := make([]keyPos, n)
	parallel.For(threads, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			kp[i] = keyPos{Key: r.EncodeStrided(t.Inds, i), Pos: int32(i)}
		}
	})
	// The radix sort is stable, so duplicate coordinates keep their value
	// order.
	info := SortInfo{Radix: true, Stats: sortx.Sort(kp, r.Card()-1, threads)}
	// Apply the permutation column by column (parallel across columns and
	// within each column's gather).
	for m := range t.Inds {
		src := t.Inds[m]
		dst := make([]uint32, n)
		parallel.For(threads, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = src[kp[i].Pos]
			}
		})
		t.Inds[m] = dst
	}
	srcV := t.Vals
	dstV := make([]float64, n)
	parallel.For(threads, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dstV[i] = srcV[kp[i].Pos]
		}
	})
	t.Vals = dstV
	return info
}

// maxDepth mirrors sort.Slice's 2*ceil(log2(n)) introsort budget: beyond it
// quicksort degenerates and we switch to heapsort-free guaranteed-progress
// behavior by just using the stdlib on the remaining range.
func maxDepth(n int) int {
	d := 0
	for i := n; i > 0; i >>= 1 {
		d++
	}
	return 2 * d
}

const serialCutoff = 1 << 11 // below this, sort serially
const insertionCutoff = 16   // below this, insertion sort

// quickSortTensor sorts t[lo:hi) in place comparing full index tuples —
// the fallback for index boxes whose cardinality overflows uint64.
func quickSortTensor(t *Tensor, lo, hi int, fo *parallel.Fanout, depth int) {
	for hi-lo > insertionCutoff {
		if depth == 0 {
			sortStdlibRange(t, lo, hi)
			return
		}
		depth--
		p := partitionTensor(t, lo, hi)
		llo, lhi := lo, p
		rlo, rhi := p+1, hi
		if lhi-llo > rhi-rlo {
			llo, lhi, rlo, rhi = rlo, rhi, llo, lhi
		}
		if lhi-llo > serialCutoff {
			a, b, d := llo, lhi, depth
			if fo.Spawn(func() { quickSortTensor(t, a, b, fo, d) }) {
				lo, hi = rlo, rhi
				continue
			}
		}
		quickSortTensor(t, llo, lhi, fo, depth)
		lo, hi = rlo, rhi
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && t.Less(j, j-1); j-- {
			t.Swap(j, j-1)
		}
	}
}

func partitionTensor(t *Tensor, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if t.Less(mid, lo) {
		t.Swap(mid, lo)
	}
	if t.Less(hi-1, lo) {
		t.Swap(hi-1, lo)
	}
	if t.Less(hi-1, mid) {
		t.Swap(hi-1, mid)
	}
	t.Swap(mid, hi-2)
	pivot := hi - 2
	i := lo
	for j := lo; j < hi-2; j++ {
		if t.Less(j, pivot) {
			t.Swap(i, j)
			i++
		}
	}
	t.Swap(i, hi-2)
	return i
}

// sortStdlibRange sorts t[lo:hi) with the stdlib via an indirection slice;
// only used as the introsort depth-exhaustion fallback.
func sortStdlibRange(t *Tensor, lo, hi int) {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	slices.SortFunc(idx, func(a, b int) int { return t.Compare(a, b) })
	// apply permutation within the range
	order := len(t.Dims)
	tmpI := make([][]uint32, order)
	for m := range tmpI {
		tmpI[m] = make([]uint32, hi-lo)
	}
	tmpV := make([]float64, hi-lo)
	for k, src := range idx {
		for m := range t.Inds {
			tmpI[m][k] = t.Inds[m][src]
		}
		tmpV[k] = t.Vals[src]
	}
	for m := range t.Inds {
		copy(t.Inds[m][lo:hi], tmpI[m])
	}
	copy(t.Vals[lo:hi], tmpV)
}
