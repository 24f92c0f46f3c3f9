package hashtab

import (
	"sparta/internal/invariant"
	"sparta/internal/obs"
)

// emptySlot marks a free slot in the accumulator's key table. LN keys are
// strictly below their radix cardinality, which itself fits in a uint64, so
// ^uint64(0) can never be a real key (max key = card-1 <= 2^64-2).
const emptySlot = ^uint64(0)

// htaSlot interleaves a key and its entry index in one 16-byte record, so a
// probe (and the hit that follows it) touches a single cache line instead of
// two parallel arrays.
type htaSlot struct {
	key uint64 // emptySlot when free
	idx int32  // entry index in keys/vals when claimed
}

// HtAFlat is the hash-table-based sparse accumulator HtA of §3.4. It is
// thread-private (one per worker, reused across sub-tensors), so it needs no
// locking. Keys are the LN encoding of Y's free indices, taken directly from
// HtY item lists — the paper's trick of pre-encoding FY once during input
// processing so no index conversion happens inside the computation loop.
//
// Layout: a flat linear-probe slot table with the key inline, kept below
// load factor 1/2, over keys/vals arrays that stay in insertion order, so
// flushing to Zlocal is a linear scan. An Add is one probe sequence over a
// contiguous slot slice.
//
// Keys must not be ^uint64(0) (the free-slot sentinel); LN keys never are,
// because they are strictly below their radix cardinality.
type HtAFlat struct {
	table []htaSlot
	mask  uint64

	keys  []uint64
	vals  []float64
	slots []int32 // entry -> its slot, for O(entries) sparse Reset

	// Hits and Misses count Add outcomes (accumulate vs insert); their sum
	// is the number of products, the 2*nnz_X*nnz_Favg term of Eq. 4.
	Hits   uint64
	Misses uint64
	// Probes counts slot inspections, the random-read measure for the
	// accumulation access profile.
	Probes uint64

	// ProbeHist, when set, records each Add's probe-sequence length into a
	// per-worker histogram shard (the table is thread-private, so plain
	// increments suffice). Nil means no distribution tracking.
	ProbeHist *obs.HistShard
}

// HtASlots is the slot count NewHtAFlat(capHint) starts with: Eq. 6's
// #Buckets for an accumulator that has not grown.
func HtASlots(capHint int) int { return NextPow2(2 * max(capHint, 16)) }

// NewHtAFlat returns an accumulator sized for about capHint distinct keys.
func NewHtAFlat(capHint int) *HtAFlat {
	if capHint < 16 {
		capHint = 16
	}
	nb := HtASlots(capHint)
	h := &HtAFlat{
		table: make([]htaSlot, nb),
		mask:  uint64(nb - 1),
		keys:  make([]uint64, 0, capHint),
		vals:  make([]float64, 0, capHint),
		slots: make([]int32, 0, capHint),
	}
	for i := range h.table {
		h.table[i].key = emptySlot
	}
	return h
}

// Len returns the number of distinct keys accumulated.
func (h *HtAFlat) Len() int { return len(h.keys) }

// Reset clears the accumulator for the next sub-tensor, keeping capacity
// (counter state is cumulative per thread). Sparsely used tables free only
// the touched slots — each entry remembers its slot, so the sparse path is
// a direct O(entries) scatter with no re-probing.
func (h *HtAFlat) Reset() {
	if len(h.keys) < len(h.table)/8 {
		for i, s := range h.slots {
			if invariant.Enabled {
				// Slot-memory consistency: the remembered slot must still
				// hold the entry that claimed it.
				invariant.Assertf(h.table[s].key == h.keys[i] && h.table[s].idx == int32(i),
					"HtAFlat.Reset: entry %d remembers slot %d, but the slot holds {key %d, idx %d}",
					i, s, h.table[s].key, h.table[s].idx)
			}
			h.table[s].key = emptySlot
		}
	} else {
		for i := range h.table {
			h.table[i].key = emptySlot
		}
	}
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
	h.slots = h.slots[:0]
}

// Add accumulates v under key: Lines 12-15 of Algorithm 2. Probes are
// derived from the probe displacement after the loop, keeping the loop body
// to one slot load and two compares.
func (h *HtAFlat) Add(key uint64, v float64) {
	s0 := hashKey(key) & h.mask
	s := s0
	for {
		k := h.table[s].key
		if k == key {
			plen := ((s - s0) & h.mask) + 1
			h.Probes += plen
			if h.ProbeHist != nil {
				h.ProbeHist.Observe(float64(plen))
			}
			h.vals[h.table[s].idx] += v
			h.Hits++
			return
		}
		if k == emptySlot {
			break
		}
		s = (s + 1) & h.mask
	}
	plen := ((s - s0) & h.mask) + 1
	h.Probes += plen
	if h.ProbeHist != nil {
		h.ProbeHist.Observe(float64(plen))
	}
	h.Misses++
	h.table[s] = htaSlot{key: key, idx: int32(len(h.keys))}
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, v)
	h.slots = append(h.slots, int32(s))
	if invariant.Enabled {
		invariant.Assertf(len(h.keys) == len(h.vals) && len(h.keys) == len(h.slots),
			"HtAFlat.Add: entry arrays diverged (%d keys, %d vals, %d slots)",
			len(h.keys), len(h.vals), len(h.slots))
	}
	if 2*len(h.keys) > len(h.table) {
		h.grow()
	}
	if invariant.Enabled {
		// Load factor <= 1/2 after any insert (post-grow when it triggered):
		// the probe-length analysis of the accumulation stage depends on it.
		invariant.Assertf(2*len(h.keys) <= len(h.table),
			"HtAFlat.Add: load factor above 1/2 (%d entries in %d slots)", len(h.keys), len(h.table))
	}
}

// grow doubles the slot table and re-probes every entry; entry storage and
// insertion order are untouched.
func (h *HtAFlat) grow() {
	nb := len(h.table) * 2
	invariant.Assertf(nb&(nb-1) == 0 && 2*len(h.keys) <= nb,
		"HtAFlat.grow: %d slots cannot hold %d entries below load factor 1/2", nb, len(h.keys))
	h.table = make([]htaSlot, nb)
	h.mask = uint64(nb - 1)
	for i := range h.table {
		h.table[i].key = emptySlot
	}
	for e, key := range h.keys {
		s := hashKey(key) & h.mask
		for h.table[s].key != emptySlot {
			s = (s + 1) & h.mask
		}
		h.table[s] = htaSlot{key: key, idx: int32(e)}
		h.slots[e] = int32(s)
	}
}

// Entry returns the i-th (key, value) pair in insertion order.
func (h *HtAFlat) Entry(i int) (uint64, float64) { return h.keys[i], h.vals[i] }

// Keys exposes the key array in insertion order (read-only view).
func (h *HtAFlat) Keys() []uint64 { return h.keys }

// Vals exposes the value array in insertion order (read-only view).
func (h *HtAFlat) Vals() []float64 { return h.vals }

// Bytes reports the current memory footprint of the accumulator.
func (h *HtAFlat) Bytes() uint64 {
	return uint64(len(h.table))*16 +
		uint64(cap(h.keys))*8 + uint64(cap(h.vals))*8 + uint64(cap(h.slots))*4
}
