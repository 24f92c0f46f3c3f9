package hashtab

import (
	"math"
	"slices"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// What the control-byte table can get wrong and the map-oracle suites only
// reach by luck: two keys under one tag in one group, a group that overflows,
// an overflow that wraps, a table with a single free byte. The keys are found
// by brute force over hashKey, so the tests keep meaning what they say if the
// hash changes.

// keysHomedAt returns the n smallest keys >= from whose home group in a table
// of the given group count is home and whose tag is tag (any tag if negative).
func keysHomedAt(groups int, home uint64, tag int, n int, from uint64) []uint64 {
	var keys []uint64
	for k := from; len(keys) < n; k++ {
		hk := hashKey(k)
		if hk&uint64(groups-1) == home && (tag < 0 || ctrlTag(hk) == uint64(tag)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// tableOf builds an HtYFlat whose contract keys are exactly keys (any order,
// all below 2^30): key k carries 1 + k%3 items with values k, k+0.25, ….
func tableOf(t *testing.T, keys []uint64, buckets, threads int) *HtYFlat {
	t.Helper()
	dims := []uint64{1 << 30, 4}
	y := coo.MustNew(dims, 0)
	for _, k := range keys {
		for j := uint64(0); j <= k%3; j++ {
			y.Append([]uint32{uint32(k), uint32(j)}, float64(k)+0.25*float64(j))
		}
	}
	return BuildHtYFlat(y, []int{0}, []int{1}, lnum.MustRadix(dims[:1]), lnum.MustRadix(dims[1:]), buckets, threads)
}

// wantHit fails unless Lookup(k) returns k's own items after inspecting
// exactly probes control words.
func wantHit(t *testing.T, h *HtYFlat, k uint64, probes int) {
	t.Helper()
	items, got := h.Lookup(k)
	if len(items) != int(1+k%3) {
		t.Fatalf("key %d: %d items, want %d", k, len(items), 1+k%3)
	}
	for j, it := range items {
		if it.LNFree != uint64(j) || it.Val != float64(k)+0.25*float64(j) {
			t.Fatalf("key %d item %d: %+v belongs to another key", k, j, it)
		}
	}
	if got != probes {
		t.Fatalf("key %d: found after %d control words, want %d", k, got, probes)
	}
}

func wantMiss(t *testing.T, h *HtYFlat, k uint64, probes int) {
	t.Helper()
	if items, got := h.Lookup(k); items != nil || got != probes {
		t.Fatalf("absent key %d: %d items after %d control words, want a miss after %d", k, len(items), got, probes)
	}
}

// ctrlByte is the control byte of slot s.
func (h *HtYFlat) ctrlByte(s int) uint64 {
	return h.ctrl[s/groupSlots] >> (s % groupSlots * 8) & 0xff
}

// TestHtYFlatTagCollision: keys that share a home group and a 7-bit tag are
// told apart by the key compare, present or absent.
func TestHtYFlatTagCollision(t *testing.T) {
	const groups = 4
	same := keysHomedAt(groups, 2, 0x35, 5, 0)
	present, absent := same[:3], same[3:]
	other := keysHomedAt(groups, 2, 0x36, 1, 0) // same home, another tag
	h := tableOf(t, append(slices.Clone(present), other...), groups*groupSlots, 1)
	if h.NumBuckets() != groups*groupSlots || len(h.ctrl) != groups {
		t.Fatalf("%d slots in %d groups, want %d in %d", h.NumBuckets(), len(h.ctrl), groups*groupSlots, groups)
	}
	tagged := 0
	for s := 2 * groupSlots; s < 3*groupSlots; s++ {
		if h.ctrlByte(s) == 0x35 {
			tagged++
		}
	}
	if tagged != len(present) {
		t.Fatalf("group 2 holds %d bytes tagged 0x35, want %d: the keys do not collide", tagged, len(present))
	}
	for _, k := range present {
		wantHit(t, h, k, 1)
	}
	wantHit(t, h, other[0], 1)
	for _, k := range absent {
		wantMiss(t, h, k, 1) // three entries compared, none equal, a free byte ends it
	}
}

// TestHtYFlatSWARBorrow: the zero-byte test also flags a byte one above the
// tag when it sits right after a true match. Both candidates fail or pass
// the key compare on their own merits.
func TestHtYFlatSWARBorrow(t *testing.T) {
	const groups = 4
	lo := keysHomedAt(groups, 1, 0x40, 2, 0)     // lo[0] present, lo[1] absent
	hi := keysHomedAt(groups, 1, 0x41, 1, lo[0]) // stored in the byte after lo[0]
	h := tableOf(t, []uint64{hi[0], lo[0]}, groups*groupSlots, 2)
	if h.ctrlByte(groupSlots) != 0x40 || h.ctrlByte(groupSlots+1) != 0x41 {
		t.Fatalf("group 1 starts %#x %#x, want tags 0x40 0x41 side by side", h.ctrlByte(groupSlots), h.ctrlByte(groupSlots+1))
	}
	x := h.ctrl[1] ^ 0x40*ctrlLSB
	if m := (x - ctrlLSB) &^ x & ctrlMSB; m != 0x8080 {
		t.Fatalf("candidate mask for tag 0x40 is %#x, want the match and its borrowed neighbour (0x8080)", m)
	}
	wantHit(t, h, lo[0], 1)
	wantHit(t, h, hi[0], 1)
	wantMiss(t, h, lo[1], 1)
}

// TestHtYFlatSpillAndWrap: more keys than slots in one home group spill to
// the next group in ascending key order — from the last group, to group 0 —
// and a miss walks the full groups until one has a free byte.
func TestHtYFlatSpillAndWrap(t *testing.T) {
	const groups, n = 4, groupSlots + 3
	for _, home := range []uint64{1, groups - 1} {
		next := (home + 1) % groups
		keys := keysHomedAt(groups, home, -1, n+1, 0)
		keys, absent := keys[:n], keys[n]
		for _, threads := range []int{1, 3} {
			h := tableOf(t, keys, groups*groupSlots, threads)
			if h.ctrl[home]&ctrlMSB != 0 {
				t.Fatalf("home %d: group not full: %#x", home, h.ctrl[home])
			}
			for s := 0; s < groupSlots; s++ {
				want := uint64(ctrlFree)
				if s < n-groupSlots {
					want = ctrlTag(hashKey(keys[groupSlots+s]))
				}
				if got := h.ctrlByte(int(next)*groupSlots + s); got != want {
					t.Fatalf("home %d: slot %d of group %d holds %#x, want %#x", home, s, next, got, want)
				}
			}
			for i, k := range keys {
				wantHit(t, h, k, 1+i/groupSlots)
			}
			wantMiss(t, h, absent, 2)
			wantMiss(t, h, keysHomedAt(groups, next, -1, 1, 0)[0], 1)
		}
	}
}

// TestHtYFlatSizing: default sizing is the next power of two at or above
// 8*NKeys/7 slots, one group at least; explicit counts are rounded up and
// clamped above NKeys. Every table still answers for all its keys and ends
// every miss — the fullest ones with a single free byte.
func TestHtYFlatSizing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nkeys, buckets int
		want           int
	}{
		{"no keys", 0, 0, 8},
		{"one key", 1, 0, 8},
		{"one group at 7/8", 7, 0, 8},
		{"one over", 8, 0, 16},
		{"four groups at 7/8", 28, 0, 32},
		{"one over four groups", 29, 0, 64},
		{"explicit below NKeys", 20, 5, 32},
		{"explicit at NKeys", 20, 20, 32},
		{"explicit at NKeys, a power of two", 16, 16, 32},
		{"explicit above NKeys", 20, 33, 64},
		{"explicit one above NKeys: one free byte", 31, 32, 32},
		{"explicit below one group", 3, 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]uint64, tc.nkeys)
			for i := range keys {
				keys[i] = uint64(i) * 7919
			}
			h := tableOf(t, keys, tc.buckets, 2)
			if h.NKeys != tc.nkeys || h.NumBuckets() != tc.want || len(h.ctrl)*groupSlots != tc.want {
				t.Fatalf("%d keys, buckets %d: %d slots under %d control words, want %d slots",
					h.NKeys, tc.buckets, h.NumBuckets(), len(h.ctrl), tc.want)
			}
			if got, want := h.Bytes(), uint64(17*tc.want+16*h.NItems); got != want {
				t.Fatalf("Bytes = %d, want %d (17 per slot + 16 per item)", got, want)
			}
			for _, k := range keys {
				if items, probes := h.Lookup(k); len(items) != int(1+k%3) || probes > len(h.ctrl) {
					t.Fatalf("key %d: %d items after %d of %d control words", k, len(items), probes, len(h.ctrl))
				}
			}
			for k := uint64(1); k < 500; k++ {
				if items, probes := h.Lookup(k*7919 + 1); items != nil || probes < 1 || probes > len(h.ctrl) {
					t.Fatalf("absent key %d: %d items after %d of %d control words", k*7919+1, len(items), probes, len(h.ctrl))
				}
			}
		})
	}
}

// TestUseDirect pins the rule's boundaries without running a build: an
// explicit bucket count, htyDirectMax and the fill bound each send a Y to the
// hashed arm, and a forced pick overrides only the fill bound.
func TestUseDirect(t *testing.T) {
	for _, c := range []struct {
		card         uint64
		nnz, buckets int
		want         bool
	}{
		{1, 1, 0, true},
		{1, 0, 0, false},
		{64, 32, 0, true}, {64, 31, 0, false},
		{61, 31, 0, true}, {61, 30, 0, false},
		{4096, 120000, 0, true},
		{4096, 120000, 1, false},
		{htyDirectMax, htyDirectMax / directFillDiv, 0, true},
		{htyDirectMax, htyDirectMax/directFillDiv - 1, 0, false},
		{htyDirectMax + 1, 1 << 30, 0, false},
		{1276076, 100000, 0, false},   // serve_warm's Y: above the cap
		{680000000, 300000, 0, false}, // cold_build's Y
		{math.MaxUint64, math.MaxInt, 0, false},
	} {
		if got := useDirect(c.card, c.nnz, c.buckets); got != c.want {
			t.Errorf("useDirect(%d keys, %d nnz, %d buckets) = %v, want %v", c.card, c.nnz, c.buckets, got, c.want)
		}
	}
	defer ForceArm(ArmDirect)()
	if !useDirect(htyDirectMax, 0, 0) || useDirect(htyDirectMax+1, 1<<30, 0) || useDirect(64, 64, 8) {
		t.Error("a forced direct pick must override only the fill bound")
	}
	ForceArm(ArmHashed)
	if useDirect(64, 64, 0) {
		t.Error("a forced hashed pick must keep the hashed arm")
	}
}

// TestDirectThreadsBoundHistograms: the counting build's histograms, card
// cells a thread, never hold more than histCellsPerNNZ cells a non-zero or
// more than one histogram's worth when Y is sparser than that.
func TestDirectThreadsBoundHistograms(t *testing.T) {
	for _, c := range []struct {
		card         uint64
		nnz, threads int
		want         int
	}{
		{4096, 120000, 2, 2},
		{4096, 120000, 64, 64},
		{1 << 20, 1 << 17, 4, 1},
		{1 << 20, 1 << 18, 4, 2},
		{1 << 20, 1 << 20, 64, 8},
		{1 << 20, 10, 4, 1}, // a forced pick below the fill bound
		{0, 0, 4, 1},
	} {
		got := directThreads(c.card, c.nnz, c.threads)
		if got != c.want {
			t.Errorf("directThreads(%d keys, %d nnz, %d threads) = %d, want %d", c.card, c.nnz, c.threads, got, c.want)
		}
		if cells := uint64(got) * c.card; cells > max(c.card, histCellsPerNNZ*uint64(c.nnz)) {
			t.Errorf("card %d nnz %d: %d histogram cells", c.card, c.nnz, cells)
		}
	}
}

// TestHtYFlatDirectDescribesItself: on the direct arm NumBuckets is card(Cy),
// Bytes is 4*(card+1) + 16*nnz_Y, every lookup reports one probe, the walls
// mark the arm with Sort and Fill at zero, and a key's items sit where off
// says.
func TestHtYFlatDirectDescribesItself(t *testing.T) {
	dims := []uint64{10, 6, 5}
	radC, radF := lnum.MustRadix(dims[:2]), lnum.MustRadix(dims[2:])
	y := coo.MustNew(dims, 0)
	for i := 0; i < 40; i++ {
		y.Append([]uint32{uint32(i * 7 % 10), uint32(i % 3), uint32(i % 5)}, float64(i))
	}
	h := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, 2)
	if h.off == nil || !h.Walls.Direct {
		t.Fatalf("60 keys, 40 non-zeros: hashed arm, want direct")
	}
	if h.NumBuckets() != 60 || len(h.off) != 61 || h.ctrl != nil || h.ents != nil {
		t.Fatalf("NumBuckets %d over %d offsets (ctrl %d, ents %d), want 60 over 61 and no table",
			h.NumBuckets(), len(h.off), len(h.ctrl), len(h.ents))
	}
	if got, want := h.Bytes(), uint64(4*61+16*40); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if h.Walls.Sort != 0 || h.Walls.Fill != 0 || h.Walls.Sum() <= 0 {
		t.Fatalf("walls %+v: want Sort and Fill 0 and a positive sum", h.Walls)
	}
	hits := 0
	for k := uint64(0); k < 60; k++ {
		items, probes := h.Lookup(k)
		if probes != 1 {
			t.Fatalf("key %d: %d probes, want 1", k, probes)
		}
		if n := int(h.off[k+1] - h.off[k]); len(items) != n || (n == 0) != (items == nil) {
			t.Fatalf("key %d: %d items, off says %d", k, len(items), n)
		}
		if items != nil {
			hits++
		}
	}
	if hits != h.NKeys {
		t.Fatalf("%d keys hit, NKeys = %d", hits, h.NKeys)
	}
	if items, probes := h.Lookup(60); items != nil || probes != 1 {
		t.Fatalf("key past card: %d items after %d probes", len(items), probes)
	}
}
