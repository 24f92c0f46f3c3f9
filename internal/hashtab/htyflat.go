package hashtab

import (
	"sparta/internal/coo"
	"sparta/internal/invariant"
	"sparta/internal/lnum"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// emptySlot marks a free slot in the open-addressed key tables. LN keys are
// strictly below their radix cardinality, which itself fits in a uint64, so
// ^uint64(0) can never be a real key (max key = card-1 <= 2^64-2).
const emptySlot = ^uint64(0)

// ytSlot is one open-addressed slot of HtYFlat: the claiming key and its
// dense rank interleaved in 16 bytes, so a probe and the rank read that
// follows a hit touch a single cache line.
type ytSlot struct {
	key  uint64 // emptySlot when free
	rank int32  // dense rank of the key (ascending key order)
}

// HtYFlat is the cache-friendly layout of the hash-table-represented second
// input tensor: an open-addressed (linear-probe, power-of-two) key table over
// a contiguous CSR-style item arena. A Lookup is one probe sequence over a
// flat slot slice followed by a sub-slice of the arena — no mutexes, no
// per-entry slice headers, no pointer chasing, zero per-entry allocations.
// The table is written by one goroutine during the build and read-only
// afterwards, so no access is atomic.
//
// Layout:
//
//	table[s]     {key, rank}: LN contract key claiming slot s (or emptySlot)
//	             and its dense rank
//	itemOff[r]   items of rank r live in items[itemOff[r]:itemOff[r+1]]
//	items        all nnz_Y YItems, grouped by ascending key, original Y
//	             order inside each group
type HtYFlat struct {
	table []ytSlot

	itemOff []int32
	items   []YItem

	// NKeys is the number of distinct contract-index tuples.
	NKeys int
	// NItems is nnz_Y.
	NItems int
	// MaxItems is nnz_Fmax of Eq. 6: the largest item list.
	MaxItems int
}

// BuildHtYFlat converts Y (COO, any order) into an HtYFlat by sort-then-pack:
//
//	encode  every non-zero becomes a (LN(Cy), position) pair (parallel)
//	sort    the pairs are radix-sorted by key with the stable sortx engine,
//	        so each key's non-zeros are contiguous and in original Y order
//	group   two scans over the sorted keys find the group boundaries: the
//	        first counts NKeys, the second fills the arena offsets at exact
//	        size and finds MaxItems
//	pack    item i of the arena is the free-key encode + value of the
//	        non-zero at sorted position i — sequential writes, disjoint
//	        ranges per thread
//	insert  the key table is sized from the distinct-key count and receives
//	        one slot per group, written by a single goroutine
//
// The sort is stable and everything after it is a function of the sorted
// pairs alone, so the table is bitwise identical for any thread count,
// duplicate coordinates in Y included.
//
// buckets <= 0 picks the default: next power of two >= 2*NKeys (load factor
// <= 0.5). Explicit bucket counts are rounded up to a power of two and
// clamped to > NKeys so the open-addressed table always keeps a free slot
// (probe sequences must terminate).
func BuildHtYFlat(y *coo.Tensor, cmodes, fmodes []int, radC, radF *lnum.Radix, buckets, threads int) *HtYFlat {
	n := y.NNZ()
	cCols := make([][]uint32, len(cmodes))
	for k, m := range cmodes {
		cCols[k] = y.Inds[m]
	}
	fCols := make([][]uint32, len(fmodes))
	for k, m := range fmodes {
		fCols[k] = y.Inds[m]
	}
	threads = parallel.Clamp(threads, n)

	kp := make([]sortx.KeyPos, n)
	parallel.For(threads, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			kp[i] = sortx.KeyPos{Key: radC.EncodeStrided(cCols, i), Pos: int32(i)}
		}
	})
	sortx.Sort(kp, radC.Card()-1, threads)

	nkeys := 0
	for i := range kp {
		if i == 0 || kp[i].Key != kp[i-1].Key {
			nkeys++
		}
	}
	itemOff := make([]int32, nkeys+1)
	maxItems, r := 0, 0
	for i := 1; i <= n; i++ {
		if i < n && kp[i].Key == kp[i-1].Key {
			continue
		}
		r++
		itemOff[r] = int32(i)
		if c := i - int(itemOff[r-1]); c > maxItems {
			maxItems = c
		}
	}
	h := &HtYFlat{itemOff: itemOff, NKeys: nkeys, NItems: n, MaxItems: maxItems}
	if invariant.Enabled {
		invariant.Assertf(r == nkeys && int(itemOff[nkeys]) == n,
			"HtYFlat: group scan closed %d groups ending at %d, want %d ending at nnz_Y = %d",
			r, itemOff[nkeys], nkeys, n)
		for r := 1; r < nkeys; r++ {
			invariant.Assertf(itemOff[r-1] < itemOff[r] && kp[itemOff[r-1]].Key < kp[itemOff[r]].Key,
				"HtYFlat: group %d does not follow group %d (offsets %d, %d; keys %d, %d)", r, r-1,
				itemOff[r-1], itemOff[r], kp[itemOff[r-1]].Key, kp[itemOff[r]].Key)
		}
	}

	// The arena pack and the key-table fill read only the sorted pairs and
	// write disjoint structures, so they are two tasks: with one thread they
	// run back to back; with more, the fill (one goroutine's work) runs
	// beside the pack, which takes the remaining threads.
	h.items = make([]YItem, n)
	parallel.For(threads, 2, func(_, lo, hi int) {
		for task := lo; task < hi; task++ {
			if task == 0 {
				h.fillTable(kp, buckets)
				continue
			}
			parallel.For(max(threads-1, 1), n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					p := int(kp[i].Pos)
					h.items[i] = YItem{LNFree: radF.EncodeStrided(fCols, p), Val: y.Vals[p]}
				}
			})
		}
	})
	return h
}

// fillTable sizes the key table from the distinct-key count and claims one
// slot per key group of the sorted pairs, rank = group number.
func (h *HtYFlat) fillTable(kp []sortx.KeyPos, buckets int) {
	if buckets <= 0 {
		buckets = NextPow2(2 * h.NKeys)
		invariant.Assertf(2*h.NKeys <= buckets,
			"HtYFlat: default sizing gives %d slots for %d keys (load factor > 1/2)", buckets, h.NKeys)
	} else {
		buckets = NextPow2(buckets)
	}
	if min := NextPow2(h.NKeys + 1); buckets < min {
		buckets = min
	}
	invariant.Assertf(buckets&(buckets-1) == 0 && buckets > h.NKeys,
		"HtYFlat: %d buckets for %d keys (need power of two with a free slot)", buckets, h.NKeys)
	table := make([]ytSlot, buckets)
	for s := range table {
		table[s].key = emptySlot
	}
	mask := uint64(buckets - 1)
	for r, off := range h.itemOff[:h.NKeys] {
		key := kp[off].Key
		s := hashKey(key) & mask
		for table[s].key != emptySlot {
			s = (s + 1) & mask
		}
		table[s] = ytSlot{key: key, rank: int32(r)}
	}
	if invariant.Enabled {
		claimed := 0
		for s := range table {
			if table[s].key != emptySlot {
				claimed++
			}
		}
		invariant.Assertf(claimed == h.NKeys, "HtYFlat: %d slots claimed for %d keys", claimed, h.NKeys)
	}
	h.table = table
}

// Lookup returns the item list for an LN contract key, or nil, plus the
// number of slot probes: one linear-probe sequence over the flat slot array,
// then a contiguous arena sub-slice. The probe count is derived from the
// displacement after the loop, keeping the loop body to one load and two
// compares.
//
// The body is written for bounds-check elimination (the -perf lint gate
// holds this function at zero escapes and zero bounds checks): the slot
// index is masked against len(table)-1 so the prover sees every table
// access in range, and the arena sub-slice is dominated by explicit range
// guards on conditions the build makes impossible, replacing the compiler's
// implicit checks on the hot path.
func (h *HtYFlat) Lookup(key uint64) ([]YItem, int) {
	table := h.table
	if len(table) == 0 {
		return nil, 0
	}
	mask := uint64(len(table) - 1)
	s0 := hashKey(key) & mask
	s := s0
	for {
		k := table[s&mask].key
		if k == key {
			r := int(table[s&mask].rank)
			probes := int((s-s0)&mask) + 1
			itemOff, items := h.itemOff, h.items
			if r < 0 || r >= len(itemOff) {
				return nil, probes // impossible: ranks index itemOff[0:NKeys+1]
			}
			off := itemOff[r:]
			if len(off) < 2 {
				return nil, probes // impossible: itemOff always has rank+1 entries
			}
			lo, hi := int(off[0]), int(off[1])
			if lo < 0 || hi < lo || hi > len(items) {
				return nil, probes // impossible: arena offsets prefix-sum the item counts
			}
			return items[lo:hi], probes
		}
		if k == emptySlot {
			return nil, int((s-s0)&mask) + 1
		}
		if invariant.Enabled {
			// A full probe cycle means no free slot — the load-factor
			// clamp in BuildHtYFlat was violated.
			invariant.Assertf((s+1)&mask != s0,
				"HtYFlat.Lookup: probe sequence wrapped the whole table (%d slots) without a free slot", len(table))
		}
		s = (s + 1) & mask
	}
}

// NumBuckets returns the slot count of the key table.
func (h *HtYFlat) NumBuckets() int { return len(h.table) }

// Bytes reports the measured memory footprint: key table (16 per slot,
// key+rank interleaved) plus the CSR arena (4 per offset, 16 per item).
// Eq. 5 (EstimateHtYBytes) charges Size_idx*N_Y + Size_val + Size_ep bytes
// per item against the fixed 16 here, so it upper-bounds this whenever
// 8*N_Y*nnz_Y >= 8*slots + 4*(NKeys+1): always from order 5 up, and from
// order 3 up once keys average two items.
func (h *HtYFlat) Bytes() uint64 {
	return uint64(len(h.table))*16 + uint64(len(h.itemOff))*4 + uint64(len(h.items))*16
}
