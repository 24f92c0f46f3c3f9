package coo

import (
	"math/bits"
	"sync/atomic"

	"sparta/internal/invariant"
	"sparta/internal/lnum"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// SortAlgo names the engine behind SortWith. There is one: the benchmark
// harness compiles against SortWith(threads, SortAuto), so the parameter
// stays although nothing is left to select.
type SortAlgo int

// SortAuto is the only engine: the stable sortx radix sort over LN keys.
const SortAuto SortAlgo = 0

// SortInfo reports how a SortWith call ran.
type SortInfo struct {
	// Stats are the radix engine's: Sorted when the rows were already in
	// order and nothing moved; pass counts summed over every key word;
	// partition counts from the most significant word's pass.
	Stats sortx.Stats
}

// Sort orders the non-zeros lexicographically over the current mode order,
// stably: rows with equal coordinates keep their relative order. There is one
// sorter, for every index box.
//
// The modes are split, from the last one back, into runs whose box fits one
// uint64 LN key (one run when the whole box fits, which is the common case).
// The (key, position) pairs are sorted with the parallel radix engine
// (package sortx) one run at a time, least significant first, each later
// run's keys rebuilt at the positions the previous pass left; the engine is
// stable, so the passes compose into lexicographic order. The permutation is
// then applied to every column — one O(order) gather per element. The gather
// writes fresh columns (the old ones are never written, which SortableView
// relies on). Rows that are already in order are recognised before anything
// is allocated.
func (t *Tensor) Sort(threads int) {
	t.SortWith(threads, SortAuto)
}

// SortWith is Sort, returning the radix engine's pass/partition stats.
func (t *Tensor) SortWith(threads int, _ SortAlgo) SortInfo {
	if t.NNZ() < 2 {
		return SortInfo{}
	}
	words, lead := t.keyWords()
	if t.inOrder(lead, len(words) > 1, threads) {
		// Nothing moves: the columns stay as they are.
		return SortInfo{Stats: sortx.Stats{Sorted: true}}
	}
	return t.sortByKeys(words, threads)
}

// inOrder reports whether the rows are already in lexicographic order. The
// leading key (lead) orders the leading modes only, so for a wide box, one
// of several key words, the full tuple compare settles the ties.
func (t *Tensor) inOrder(lead *lnum.Radix, wide bool, threads int) bool {
	return t.keysInOrder(lead, threads) && (!wide || t.IsSorted())
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

// keyWord is one run of consecutive modes whose index box fits one LN key.
type keyWord struct {
	r    *lnum.Radix // encoder over the run's modes
	cols [][]uint32  // the run's index columns
}

// keyWords splits t's modes, from the last one back, into the longest runs
// whose box fits one uint64, least significant first, and returns them with
// the encoder of the leading run. A box that fits is one word; a single
// mode of at most 2^32 always fits.
func (t *Tensor) keyWords() ([]keyWord, *lnum.Radix) {
	words := make([]keyWord, 0, len(t.Dims))
	var lead *lnum.Radix
	for hi := len(t.Dims); hi > 0; {
		lo, card := hi-1, t.Dims[hi-1]
		for lo > 0 {
			over, next := bits.Mul64(card, t.Dims[lo-1])
			if over != 0 {
				break
			}
			lo, card = lo-1, next
		}
		lead = lnum.MustRadix(t.Dims[lo:hi])
		words = append(words, keyWord{r: lead, cols: t.Inds[lo:hi]})
		hi = lo
	}
	return words, lead
}

// sortedCheckBlock is how many rows a keysInOrder worker scans between looks
// at the shared "inversion found" flag.
const sortedCheckBlock = 1 << 10

// keysInOrder reports whether the rows' leading keys (r encodes the leading
// modes) are in non-decreasing order, computing each key from the columns
// as it goes: one parallel pass, no allocation, and every worker stops soon
// after any of them meets an inversion. LN order is lexicographic order, so
// when r covers every mode this agrees with IsSorted.
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

// sortByKeys sorts the rows one key word at a time, least significant first,
// then gathers every column through the resulting permutation. The radix
// sort is stable, so each pass keeps the order the previous ones gave rows
// whose keys tie, and duplicate coordinates keep their value order.
func (t *Tensor) sortByKeys(words []keyWord, threads int) SortInfo {
	kp := make([]keyPos, t.NNZ())
	var info SortInfo
	for w, word := range words {
		st := word.sort(kp, w == 0, threads)
		st.Sorted = false // an earlier word's pass may have moved rows
		st.Passes += info.Stats.Passes
		st.Skipped += info.Stats.Skipped
		info.Stats = st
	}
	t.gather(kp, threads)
	if invariant.Enabled {
		invariant.Assert(t.IsSorted(), "coo: sorted rows out of tuple order")
		invariant.Assert(isPermutation(kp), "coo: sort dropped or repeated a row")
	}
	return info
}

// sort keys every pair with w's encoding of the row at its position and
// sorts the pairs stably by it. The first word's pass also numbers the
// rows; a later word's keeps the order the previous pass left.
func (w keyWord) sort(kp []keyPos, first bool, threads int) sortx.Stats {
	r, cols := w.r, w.cols
	parallel.For(threads, len(kp), func(_, lo, hi int) {
		seg := kp[lo:hi]
		if first {
			for j := range seg {
				seg[j] = keyPos{Key: r.EncodeStrided(cols, lo+j), Pos: int32(lo + j)}
			}
			return
		}
		for j := range seg {
			seg[j].Key = r.EncodeStrided(cols, int(seg[j].Pos))
		}
	})
	return sortx.Sort(kp, r.Card()-1, threads)
}

// gather applies the permutation kp to every column, writing fresh ones
// (parallel across columns and within each column's gather).
func (t *Tensor) gather(kp []keyPos, threads int) {
	n := len(kp)
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
}

// isPermutation reports whether the pairs' positions are 0..len(kp)-1, each
// once: the gather then moved every row exactly once.
func isPermutation(kp []keyPos) bool {
	seen := make([]bool, len(kp))
	for _, p := range kp {
		if p.Pos < 0 || int(p.Pos) >= len(kp) || seen[p.Pos] {
			return false
		}
		seen[p.Pos] = true
	}
	return true
}
