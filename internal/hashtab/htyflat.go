package hashtab

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"sparta/internal/coo"
	"sparta/internal/invariant"
	"sparta/internal/lnum"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// A control word covers one group of groupSlots slots, one byte each: ctrlFree
// while the slot is free, otherwise the top 7 bits of hashKey(key) — the tag.
// Tags stay below 0x80, so the high bit of a byte alone says "free" and a
// tag can never match a free byte.
const (
	groupSlots = 8
	ctrlFree   = 0x80
	ctrlLSB    = 0x0101010101010101 // a byte value broadcast to all eight: b * ctrlLSB
	ctrlMSB    = ctrlFree * ctrlLSB // the free bit of every byte
)

// ctrlTag is the control byte of an occupied slot whose key hashes to hk.
// The home group comes from hk's low bits, so the two are independent.
func ctrlTag(hk uint64) uint64 { return hk >> 57 }

// yEnt is one occupied slot of HtYFlat: the claiming key and where its items
// lie in the arena, 16 bytes, so a hit reads a single line before the arena.
type yEnt struct {
	key    uint64
	off, n int32 // items[off : off+n]
}

// BuildWalls are the wall times of BuildHtYFlat's steps, one clock read per
// boundary: Encode + Sort + Group + PackFill is the whole build. On the
// hashed arm pack and fill run side by side, so Fill — the table fill alone,
// timed inside its goroutine — is part of PackFill, not a fifth term. The
// direct arm has no pairs, no sort and no table: Encode is its histogram
// pass, Group its prefix sum, PackFill its scatter, and Sort and Fill are 0.
type BuildWalls struct {
	Encode   time.Duration // hashed: (LN(Cy), pos) pairs written; direct: per-thread key histograms
	Sort     time.Duration // hashed: radix sort of the pairs; direct: 0
	Group    time.Duration // hashed: two scans, NKeys then offsets and MaxItems; direct: the prefix sum
	PackFill time.Duration // hashed: arena pack beside the table fill; direct: the scatter into the arena
	Fill     time.Duration // hashed: the fill's own duration inside PackFill; direct: 0
	// Direct says which arm built the table, and so what the fields time.
	Direct bool
}

// Sum is the build's wall time as its steps account for it.
func (w BuildWalls) Sum() time.Duration { return w.Encode + w.Sort + w.Group + w.PackFill }

// HtYFlat is the cache-friendly layout of the hash-table-represented second
// input tensor: an index over a contiguous CSR-style item arena. The index
// has two arms (DESIGN.md §9.5). The hashed arm is an open-addressed,
// power-of-two table of 8-slot groups. The direct arm, which useDirect picks
// for a small contract-key space that Y fills, is a CSR over LN(Cy) itself:
// off[k] and off[k+1] bound key k's items, with no hashing and no probing.
// On the hashed arm a Lookup scans control words — a miss
// leaves them only for a tag collision, one occupied slot in 128 — and a hit
// reads one 16-byte entry and then a sub-slice of the arena: no mutexes, no
// per-entry slice headers, no pointer chasing, zero per-entry allocations.
// The table is written by one goroutine during the build and read-only
// afterwards, so no access is atomic.
//
// Layout (DESIGN.md §9.5):
//
//	ctrl[g]   control word of group g: byte i is ctrlFree or the tag of the
//	          key in slot 8g+i
//	ents[s]   {key, off, n} of the key claiming slot s: its items are
//	          items[off:off+n]; zero while the slot is free
//	off[k]    direct arm only (ctrl and ents are nil): key k's items are
//	          items[off[k]:off[k+1]]; off has card(Cy)+1 entries
//	items     all nnz_Y YItems, grouped by ascending key, original Y
//	          order inside each group — the same arena on both arms
type HtYFlat struct {
	ctrl  []uint64
	ents  []yEnt
	off   []int32
	items []YItem

	// NKeys is the number of distinct contract-index tuples.
	NKeys int
	// NItems is nnz_Y.
	NItems int
	// MaxItems is nnz_Fmax of Eq. 6: the largest item list.
	MaxItems int
	// Walls is where the build's time went.
	Walls BuildWalls
}

// BuildHtYFlat converts Y (COO, any order) into an HtYFlat. When useDirect
// says so it builds the direct arm with a counting sort (buildDirect);
// otherwise it builds the hashed arm by sort-then-pack:
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
//	fill    the table is sized from the distinct-key count and receives one
//	        control byte and one entry per key, in ascending key order, from
//	        a single goroutine
//
// The sort is stable and everything after it is a function of the sorted
// pairs alone, so the table is bitwise identical for any thread count,
// duplicate coordinates in Y included. Walls records the four steps' times.
// Both arms write the same arena, bitwise.
//
// buckets <= 0 picks the default: the next power of two >= 8*NKeys/7 slots
// (load factor <= 7/8), at least one group. Explicit bucket counts are
// rounded up to a power of two and clamped to > NKeys so the table always
// keeps a free slot (probe sequences must terminate); they also keep the
// table on the hashed arm.
func BuildHtYFlat(y *coo.Tensor, cmodes, fmodes []int, radC, radF *lnum.Radix, buckets, threads int) *HtYFlat {
	t0 := time.Now()
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
	if useDirect(radC.Card(), n, buckets) {
		return buildDirect(y.Vals, cCols, fCols, radC, radF, threads, t0)
	}

	kp := make([]sortx.KeyPos, n)
	parallel.For(threads, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			kp[i] = sortx.KeyPos{Key: radC.EncodeStrided(cCols, i), Pos: int32(i)}
		}
	})
	t1 := time.Now()
	sortx.Sort(kp, radC.Card()-1, threads)
	t2 := time.Now()

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
	h := &HtYFlat{NKeys: nkeys, NItems: n, MaxItems: maxItems}
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
	t3 := time.Now()

	// The arena pack and the table fill read only the sorted pairs and
	// write disjoint structures, so they are two tasks: with one thread they
	// run back to back; with more, the fill (one goroutine's work) runs
	// beside the pack, which takes the remaining threads.
	h.items = make([]YItem, n)
	parallel.For(threads, 2, func(_, lo, hi int) {
		for task := lo; task < hi; task++ {
			if task == 0 {
				tf := time.Now()
				h.fillTable(kp, itemOff, buckets)
				h.Walls.Fill = time.Since(tf)
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
	t4 := time.Now()
	h.Walls.Encode, h.Walls.Sort, h.Walls.Group, h.Walls.PackFill = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return h
}

// fillTable sizes the table from the distinct-key count and gives each key
// group of the sorted pairs — itemOff[r] is where group r starts — the first
// free slot at or after its home group: one control byte, one entry.
func (h *HtYFlat) fillTable(kp []sortx.KeyPos, itemOff []int32, buckets int) {
	slots := NextPow2(buckets)
	if buckets <= 0 {
		slots = NextPow2((8*h.NKeys + 6) / 7)
	}
	slots = max(slots, NextPow2(h.NKeys+1), groupSlots)
	invariant.Assertf(slots&(slots-1) == 0 && slots > h.NKeys && (buckets > 0 || 8*h.NKeys <= 7*slots),
		"HtYFlat: %d slots for %d keys (need a power of two with a free slot, and load <= 7/8 by default)", slots, h.NKeys)
	ctrl := make([]uint64, slots/groupSlots)
	for g := range ctrl {
		ctrl[g] = ctrlMSB
	}
	ents := make([]yEnt, slots)
	gmask := uint64(len(ctrl) - 1)
	for r, off := range itemOff[:h.NKeys] {
		key := kp[off].Key
		hk := hashKey(key)
		g := hk & gmask
		free := ctrl[g] & ctrlMSB
		for free == 0 {
			g = (g + 1) & gmask
			free = ctrl[g] & ctrlMSB
		}
		shift := uint(bits.TrailingZeros64(free)) &^ 7 // bit offset of the group's first free byte
		ctrl[g] ^= (ctrlFree ^ ctrlTag(hk)) << shift
		ents[g*groupSlots+uint64(shift/8)] = yEnt{key: key, off: off, n: itemOff[r+1] - off}
	}
	h.ctrl, h.ents = ctrl, ents
	if invariant.Enabled {
		// What Lookup relies on: one occupied control byte per key, each
		// carrying its key's tag; a free byte somewhere, so every probe
		// sequence ends; entries whose item ranges tile the arena in
		// ascending key order.
		occupied := make([]yEnt, 0, h.NKeys)
		for s, e := range ents {
			c := ctrl[s/groupSlots] >> (s % groupSlots * 8) & 0xff
			if c == ctrlFree {
				continue
			}
			invariant.Assertf(c == ctrlTag(hashKey(e.key)), "HtYFlat: slot %d holds key %d under tag %#x, want %#x",
				s, e.key, c, ctrlTag(hashKey(e.key)))
			occupied = append(occupied, e)
		}
		invariant.Assertf(len(occupied) == h.NKeys && len(occupied) < len(ents),
			"HtYFlat: %d of %d slots occupied for %d keys (need one per key and a free slot)",
			len(occupied), len(ents), h.NKeys)
		slices.SortFunc(occupied, func(a, b yEnt) int { return cmp.Compare(a.key, b.key) })
		next := int32(0)
		for i, e := range occupied {
			invariant.Assertf(e.off == next && e.n > 0 && (i == 0 || occupied[i-1].key < e.key),
				"HtYFlat: entry %d (key %d) covers items [%d, %d+%d), want them to start at %d",
				i, e.key, e.off, e.off, e.n, next)
			next += e.n
		}
		invariant.Assertf(int(next) == h.NItems, "HtYFlat: entries cover %d items, want nnz_Y = %d", next, h.NItems)
	}
}

// Lookup returns the item list for an LN contract key, or nil, plus the
// number of control words inspected. Starting at the key's home group it
// reads one control word at a time: the bytes equal to the key's tag are
// found with one SWAR zero-byte test, only their entries have their key
// compared, and a word with a free byte ends the search — the build puts a
// key in the first free slot at or after its home group, so it cannot lie
// beyond one. The test may also flag a byte that differs from the tag by one
// just above a true match (the subtraction's borrow); such a byte, like an
// honest tag collision, fails the key compare and costs one entry read.
//
// On the direct arm the search is off[key] and off[key+1]: one probe, hit
// or miss, and an empty range is a miss.
//
// The body is written for bounds-check elimination (the -perf lint gate
// holds this function at zero escapes and zero bounds checks): the group
// index is masked against len(ctrl)-1 so the prover sees every control-word
// access in range, and the entry and arena accesses are dominated by
// explicit range guards on conditions the build makes impossible, replacing
// the compiler's implicit checks on the hot path.
func (h *HtYFlat) Lookup(key uint64) ([]YItem, int) {
	if off := h.off; len(off) > 0 {
		starts, ends := off[:len(off)-1], off[1:]
		if key >= uint64(len(ends)) || key >= uint64(len(starts)) {
			return nil, 1 // impossible for a key of Cy's radix
		}
		items := h.items
		lo, hi := int(starts[key]), int(ends[key])
		if lo >= hi || lo < 0 || hi > len(items) {
			return nil, 1 // an empty cell; the rest is impossible: off tiles the arena
		}
		return items[lo:hi], 1
	}
	ctrl, ents := h.ctrl, h.ents
	if len(ctrl) == 0 {
		return nil, 0
	}
	gmask := uint64(len(ctrl) - 1)
	hk := hashKey(key)
	tag := ctrlTag(hk) * ctrlLSB
	g := hk & gmask
	for probes := 1; ; probes++ {
		w := ctrl[g&gmask]
		x := w ^ tag
		for m := (x - ctrlLSB) &^ x & ctrlMSB; m != 0; m &= m - 1 {
			s := g*groupSlots + uint64(bits.TrailingZeros64(m))/8
			if s >= uint64(len(ents)) {
				return nil, probes // impossible: ents holds groupSlots entries per control word
			}
			e := &ents[s]
			if e.key != key {
				continue
			}
			items := h.items
			lo, hi := int(e.off), int(e.off)+int(e.n)
			if lo < 0 || hi < lo || hi > len(items) {
				return nil, probes // impossible: entries tile the arena
			}
			return items[lo:hi], probes
		}
		if w&ctrlMSB != 0 {
			return nil, probes
		}
		if invariant.Enabled {
			// A full cycle means no free byte — the sizing clamp in
			// fillTable was violated.
			invariant.Assertf(probes < len(ctrl),
				"HtYFlat.Lookup: inspected all %d control words without finding a free slot", len(ctrl))
		}
		g = (g + 1) & gmask
	}
}

// NumBuckets returns the slot count of the hashed arm's table, or card(Cy)
// on the direct arm, where each cell of off is one of Eq. 5's buckets.
func (h *HtYFlat) NumBuckets() int {
	if h.off != nil {
		return len(h.off) - 1
	}
	return len(h.ents)
}

// Bytes reports the measured memory footprint: 8 per control word, 16 per
// slot entry — 17 per slot — plus 16 per arena item on the hashed arm, and
// 4*(card+1) + 16 per item on the direct arm. Eq. 5 (EstimateHtYBytes)
// charges 8 per bucket and Size_idx*N_Y + Size_val + Size_ep bytes per item
// against the fixed 16 here. On the direct arm that bounds this outright (8
// per key against 4). On the hashed arm it does whenever 8*N_Y*nnz_Y >=
// 9*slots. Default sizing keeps slots < 16/7*NKeys (or one group), so that
// holds from order 3 up: 9*16/7*NKeys < 21*NKeys <= 24*nnz_Y.
func (h *HtYFlat) Bytes() uint64 {
	return uint64(len(h.ctrl))*8 + uint64(len(h.ents))*16 + uint64(len(h.off))*4 + uint64(len(h.items))*16
}
