package hashtab

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// TestBuildHtYFlatMatchesMapOverKeySpace: over the whole contract-key space
// the table must agree with a serially built map — same keys present, same
// item multisets, same stats — at any thread count.
func TestBuildHtYFlatMatchesMapOverKeySpace(t *testing.T) {
	dims := []uint64{6, 7, 8, 9}
	rng := rand.New(rand.NewSource(9))
	y := coo.MustNew(dims, 0)
	idx := make([]uint32, 4)
	for i := 0; i < 3000; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		y.Append(idx, rng.Float64())
	}
	radC := lnum.MustRadix(dims[:2])
	radF := lnum.MustRadix(dims[2:])
	oracle := map[uint64]map[uint64]float64{}
	maxItems := 0
	counts := map[uint64]int{}
	for i := 0; i < y.NNZ(); i++ {
		ck := radC.EncodeStrided(y.Inds[:2], i)
		if oracle[ck] == nil {
			oracle[ck] = map[uint64]float64{}
		}
		oracle[ck][radF.EncodeStrided(y.Inds[2:], i)] += y.Vals[i]
		counts[ck]++
		maxItems = max(maxItems, counts[ck])
	}
	for _, threads := range []int{1, 4} {
		b := BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, threads)
		if b.NKeys != len(oracle) || b.NItems != y.NNZ() || b.MaxItems != maxItems {
			t.Fatalf("threads=%d: stats differ: %d/%d/%d vs oracle %d/%d/%d", threads,
				b.NKeys, b.NItems, b.MaxItems, len(oracle), y.NNZ(), maxItems)
		}
		for ck := uint64(0); ck < radC.Card(); ck++ {
			ib, _ := b.Lookup(ck)
			if (oracle[ck] == nil) != (ib == nil) {
				t.Fatalf("threads=%d key %d: presence differs", threads, ck)
			}
			if len(ib) != counts[ck] {
				t.Fatalf("threads=%d key %d: %d items, oracle %d", threads, ck, len(ib), counts[ck])
			}
			sum := map[uint64]float64{}
			for fk, v := range oracle[ck] {
				sum[fk] = v
			}
			for _, it := range ib {
				sum[it.LNFree] -= it.Val
			}
			for fk, v := range sum {
				if v < -1e-12 || v > 1e-12 {
					t.Fatalf("threads=%d key %d free %d: item mismatch %v", threads, ck, fk, v)
				}
			}
		}
	}
}

// TestBuildHtYFlatDeterministic: the arena must come out bit-identical for
// any thread count — items of one key stay in original Y order.
func TestBuildHtYFlatDeterministic(t *testing.T) {
	dims := []uint64{3, 4, 50}
	rng := rand.New(rand.NewSource(11))
	y := coo.MustNew(dims, 0)
	idx := make([]uint32, 3)
	for i := 0; i < 2000; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		y.Append(idx, rng.NormFloat64())
	}
	radC := lnum.MustRadix(dims[:2])
	radF := lnum.MustRadix(dims[2:])
	ref := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, 1)
	for _, threads := range []int{2, 5, 8} {
		h := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, threads)
		for ck := uint64(0); ck < radC.Card(); ck++ {
			ia, _ := ref.Lookup(ck)
			ib, _ := h.Lookup(ck)
			if len(ia) != len(ib) {
				t.Fatalf("threads=%d key %d: %d vs %d items", threads, ck, len(ia), len(ib))
			}
			for j := range ia {
				if ia[j] != ib[j] {
					t.Fatalf("threads=%d key %d item %d: order differs: %v vs %v",
						threads, ck, j, ia[j], ib[j])
				}
			}
		}
	}
}

func TestBuildHtYFlatEmptyAndSkewed(t *testing.T) {
	dims := []uint64{4, 5}
	radC := lnum.MustRadix(dims[:1])
	radF := lnum.MustRadix(dims[1:])
	empty := coo.MustNew(dims, 0)
	h := BuildHtYFlat(empty, []int{0}, []int{1}, radC, radF, 0, 2)
	if h.NKeys != 0 || h.NItems != 0 {
		t.Fatal("empty build broken")
	}
	if items, _ := h.Lookup(3); items != nil {
		t.Fatal("empty table returned items")
	}
	// All non-zeros under one contract key (a single group).
	y := coo.MustNew(dims, 0)
	for j := uint32(0); j < 5; j++ {
		y.Append([]uint32{2, j}, float64(j))
	}
	h = BuildHtYFlat(y, []int{0}, []int{1}, radC, radF, 4, 3)
	if h.NKeys != 1 || h.MaxItems != 5 {
		t.Fatalf("skewed build: keys=%d max=%d", h.NKeys, h.MaxItems)
	}
	items, _ := h.Lookup(2)
	if len(items) != 5 {
		t.Fatalf("items = %d", len(items))
	}
	for j, it := range items {
		if it.LNFree != uint64(j) || it.Val != float64(j) {
			t.Fatalf("item %d out of order: %v", j, it)
		}
	}
}

// TestBuildHtYFlatBucketClamp: the table is sized from the distinct keys,
// not nnz_Y — explicit bucket counts at or below NKeys are clamped so the
// table keeps a free slot (here 64 keys in 128: half the control bytes free),
// and duplicates do not inflate the clamp.
func TestBuildHtYFlatBucketClamp(t *testing.T) {
	dims := []uint64{64, 3}
	radC := lnum.MustRadix(dims[:1])
	radF := lnum.MustRadix(dims[1:])
	y := coo.MustNew(dims, 0)
	for i := uint32(0); i < 64; i++ {
		for j := uint32(0); j < 3; j++ {
			y.Append([]uint32{i, j}, 1) // 64 distinct contract keys, 192 non-zeros
		}
	}
	h := BuildHtYFlat(y, []int{0}, []int{1}, radC, radF, 8, 2)
	if h.NumBuckets() != 128 {
		t.Fatalf("buckets = %d, want 128 (smallest power of two > NKeys = 64)", h.NumBuckets())
	}
	if h.NKeys != 64 {
		t.Fatalf("keys = %d", h.NKeys)
	}
	// Every key resolvable, misses terminate.
	for i := uint64(0); i < 64; i++ {
		if items, _ := h.Lookup(i); len(items) != 3 {
			t.Fatalf("key %d: %d items", i, len(items))
		}
	}
}

// TestBuildHtYFlatMatchesOracle checks both arms' builds against a serially
// built map for the shapes that stress each of their steps, at thread counts
// on both sides of the sorter's serial/parallel switch: presence, stats,
// table sizing (hashed: 8*NKeys/7 slots rounded up to a power of two, one
// group at least; direct: card(Cy) cells), items in original Y order inside
// each key, and the index and arena bitwise identical whatever the thread
// count — the arena across the two arms too. A forced direct pick keeps the
// hashed arm above htyDirectMax and under an explicit bucket count.
func TestBuildHtYFlatMatchesOracle(t *testing.T) {
	type tcase struct {
		name    string
		dims    []uint64
		cmodes  []int
		fmodes  []int
		n       int
		index   func(i int, rng *rand.Rand, idx []uint32) // fills idx for non-zero i
		buckets int
	}
	uniform := func(dims []uint64) func(int, *rand.Rand, []uint32) {
		return func(_ int, rng *rand.Rand, idx []uint32) {
			for m, d := range dims {
				idx[m] = uint32(rng.Int63n(int64(d)))
			}
		}
	}
	small := []uint64{64, 64, 32}
	wide := []uint64{1 << 20, 1 << 19, 8} // contract keys span 39 bits
	cases := []tcase{
		{name: "empty", dims: small, cmodes: []int{0, 1}, fmodes: []int{2}, n: 0, index: uniform(small)},
		{name: "one", dims: small, cmodes: []int{0, 1}, fmodes: []int{2}, n: 1, index: uniform(small)},
		{name: "all-equal-keys", dims: small, cmodes: []int{0, 1}, fmodes: []int{2}, n: 20000,
			index: func(_ int, rng *rand.Rand, idx []uint32) { idx[0], idx[1], idx[2] = 7, 9, uint32(rng.Intn(32)) }},
		{name: "all-distinct-keys", dims: []uint64{256, 128, 4}, cmodes: []int{0, 1}, fmodes: []int{2}, n: 256 * 128,
			// An odd multiplier permutes the 2^15 keys, so Y arrives unsorted.
			index: func(i int, _ *rand.Rand, idx []uint32) {
				k := i * 12345 % (256 * 128)
				idx[0], idx[1], idx[2] = uint32(k/128), uint32(k%128), uint32(i%4)
			}},
		{name: "duplicate-heavy", dims: []uint64{64, 64, 128, 128}, cmodes: []int{0, 1}, fmodes: []int{2, 3}, n: 120000,
			index: uniform([]uint64{64, 64, 128, 128})},
		{name: "duplicate-coordinates", dims: []uint64{8, 8, 4}, cmodes: []int{0, 1}, fmodes: []int{2}, n: 20000,
			index: uniform([]uint64{8, 8, 4})},
		{name: "contract-modes-last", dims: small, cmodes: []int{2, 1}, fmodes: []int{0}, n: 5000, index: uniform(small)},
		{name: "keys-wider-than-32-bits", dims: wide, cmodes: []int{0, 1}, fmodes: []int{2}, n: 30000, index: uniform(wide)},
		{name: "buckets-below-nkeys", dims: small, cmodes: []int{0, 1}, fmodes: []int{2}, n: 3000, index: uniform(small), buckets: 16},
		{name: "buckets-above-nkeys", dims: small, cmodes: []int{0, 1}, fmodes: []int{2}, n: 3000, index: uniform(small), buckets: 1 << 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			y := coo.MustNew(tc.dims, tc.n)
			cdims, fdims := pick(tc.dims, tc.cmodes), pick(tc.dims, tc.fmodes)
			radC, radF := lnum.MustRadix(cdims), lnum.MustRadix(fdims)
			oracle := map[uint64][]YItem{}
			idx := make([]uint32, len(tc.dims))
			for i := 0; i < tc.n; i++ {
				tc.index(i, rng, idx)
				v := float64(i + 1) // distinct values expose any reordering
				y.Append(idx, v)
				ck := radC.Encode(pick(idx, tc.cmodes))
				oracle[ck] = append(oracle[ck], YItem{LNFree: radF.Encode(pick(idx, tc.fmodes)), Val: v})
			}
			maxLen := 0
			for _, items := range oracle {
				maxLen = max(maxLen, len(items))
			}
			hashedBuckets := max(NextPow2((8*len(oracle)+6)/7), groupSlots)
			if tc.buckets > 0 {
				hashedBuckets = NextPow2(max(tc.buckets, len(oracle)+1))
			}

			var ref, hashed *HtYFlat
			for _, arm := range []Arm{ArmHashed, ArmDirect, ArmAuto} {
				restore := ForceArm(arm)
				wantDirect := tc.buckets <= 0 && radC.Card() <= htyDirectMax && arm != ArmHashed
				if arm == ArmAuto {
					wantDirect = useDirect(radC.Card(), tc.n, tc.buckets)
				}
				wantBuckets := hashedBuckets
				if wantDirect {
					wantBuckets = int(radC.Card())
				}
				ref = nil
				for _, threads := range []int{1, 2, 8} {
					h := BuildHtYFlat(y, tc.cmodes, tc.fmodes, radC, radF, tc.buckets, threads)
					name := fmt.Sprintf("arm=%d threads=%d", arm, threads)
					if (h.off != nil) != wantDirect || h.Walls.Direct != wantDirect {
						t.Fatalf("%s: direct arm %v (walls say %v), want %v", name, h.off != nil, h.Walls.Direct, wantDirect)
					}
					checkOracleBuild(t, name, h, rng, radC, oracle, tc.n, maxLen, wantBuckets)
					if ref == nil {
						ref = h
					} else if !slices.Equal(h.ctrl, ref.ctrl) || !slices.Equal(h.ents, ref.ents) ||
						!slices.Equal(h.off, ref.off) || !slices.Equal(h.items, ref.items) {
						t.Fatalf("%s: table differs bitwise from the threads=1 build", name)
					}
					if hashed == nil {
						hashed = h
					} else if !slices.Equal(h.items, hashed.items) {
						t.Fatalf("%s: arena differs bitwise from the hashed arm's", name)
					}
				}
				restore()
			}
		})
	}
}

// checkOracleBuild fails unless h holds exactly oracle's keys and items, in
// Y order, with the given stats and bucket count.
func checkOracleBuild(t *testing.T, name string, h *HtYFlat, rng *rand.Rand, radC *lnum.Radix, oracle map[uint64][]YItem, n, maxLen, wantBuckets int) {
	t.Helper()
	if h.NKeys != len(oracle) || h.NItems != n || h.MaxItems != maxLen {
		t.Fatalf("%s: keys/items/max = %d/%d/%d, oracle %d/%d/%d", name, h.NKeys, h.NItems, h.MaxItems, len(oracle), n, maxLen)
	}
	if h.NumBuckets() != wantBuckets {
		t.Fatalf("%s: %d buckets for %d keys, want %d", name, h.NumBuckets(), len(oracle), wantBuckets)
	}
	for ck, want := range oracle {
		got, probes := h.Lookup(ck)
		if !slices.Equal(got, want) {
			t.Fatalf("%s key %d: items differ from the oracle (got %d, want %d in Y order)", name, ck, len(got), len(want))
		}
		if probes < 1 || probes > h.NumBuckets() || (h.Walls.Direct && probes != 1) {
			t.Fatalf("%s key %d: %d probes", name, ck, probes)
		}
	}
	for i := 0; i < 2000; i++ {
		ck := uint64(rng.Int63n(int64(radC.Card())))
		if got, _ := h.Lookup(ck); len(got) != len(oracle[ck]) || (got == nil) != (oracle[ck] == nil) {
			t.Fatalf("%s key %d: %d items, oracle %d", name, ck, len(got), len(oracle[ck]))
		}
	}
}

// pick gathers v[m] for each m in modes.
func pick[T any](v []T, modes []int) []T {
	out := make([]T, len(modes))
	for k, m := range modes {
		out[k] = v[m]
	}
	return out
}

// TestEstimateHtYBoundsFlatBytes: on the hashed arm a slot costs 17 bytes (one control byte,
// one 16-byte entry) against the 8 Eq. 5 charges per bucket, an item 16
// against Eq. 5's 8*order + 16, so Eq. 5 fed the real slot count upper-bounds
// HtYFlat.Bytes whenever 8*order*nnz_Y >= 9*slots. Default sizing keeps
// slots < 16/7*NKeys, so 9*slots < 21*NKeys <= 24*nnz_Y: the bound holds for
// every Y of order 3 or more past the one-group minimum, all-distinct keys
// included — the regimes checked here. On the direct arm a bucket is a 4-byte
// cell of off against Eq. 5's 8, so the bound holds outright; both arms are
// checked.
func TestEstimateHtYBoundsFlatBytes(t *testing.T) {
	for _, tc := range []struct {
		dims   []uint64
		ncm, n int
	}{
		{[]uint64{32, 32, 64}, 2, 4000},            // order 3, ~4 items per key
		{[]uint64{4096, 4096, 4}, 2, 30000},        // order 3, nearly all keys distinct
		{[]uint64{64, 64, 128, 128}, 2, 120000},    // order 4, ~29 items per key
		{[]uint64{40, 40, 40, 6, 6}, 3, 30000},     // order 5, nearly all keys distinct
		{[]uint64{16, 16, 16, 16, 4, 4}, 4, 60000}, // order 6, 65536 keys at a power of two
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		y := coo.MustNew(tc.dims, tc.n)
		idx := make([]uint32, len(tc.dims))
		for i := 0; i < tc.n; i++ {
			for m, d := range tc.dims {
				idx[m] = uint32(rng.Intn(int(d)))
			}
			y.Append(idx, 1)
		}
		cmodes, fmodes := make([]int, tc.ncm), make([]int, len(tc.dims)-tc.ncm)
		for k := range cmodes {
			cmodes[k] = k
		}
		for k := range fmodes {
			fmodes[k] = tc.ncm + k
		}
		for _, arm := range []Arm{ArmHashed, ArmDirect} {
			restore := ForceArm(arm)
			h := BuildHtYFlat(y, cmodes, fmodes, lnum.MustRadix(tc.dims[:tc.ncm]), lnum.MustRadix(tc.dims[tc.ncm:]), 0, 2)
			restore()
			est := EstimateHtYBytes(y.NNZ(), y.Order(), h.NumBuckets())
			if got := h.Bytes(); got > est {
				t.Errorf("dims %v direct=%v: Bytes %d exceeds the Eq. 5 estimate %d (%d keys, %d buckets)",
					tc.dims, h.Walls.Direct, got, est, h.NKeys, h.NumBuckets())
			}
		}
	}
}

func TestHtAFlatAccumulates(t *testing.T) {
	h := NewHtAFlat(4)
	h.Add(10, 1)
	h.Add(20, 2)
	h.Add(10, 3)
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	k, v := h.Entry(0)
	if k != 10 || v != 4 {
		t.Fatalf("entry 0 = %d %v", k, v)
	}
	if h.Hits != 1 || h.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", h.Hits, h.Misses)
	}
}

func TestHtAFlatGrowthAndOrder(t *testing.T) {
	h := NewHtAFlat(16)
	const n = 10000
	for i := 0; i < n; i++ {
		h.Add(uint64(i*2654435761), float64(i))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := 0; i < n; i++ {
		h.Add(uint64(i*2654435761), 0)
	}
	if h.Len() != n || h.Misses != n || h.Hits != n {
		t.Fatalf("len=%d hits=%d misses=%d", h.Len(), h.Hits, h.Misses)
	}
	for i := 0; i < n; i++ {
		if k, _ := h.Entry(i); k != uint64(i*2654435761) {
			t.Fatalf("insertion order broken at %d", i)
		}
	}
}

func TestHtAFlatResetSparseAndDense(t *testing.T) {
	h := NewHtAFlat(4)
	// Dense fill, dense reset.
	for i := 0; i < 200; i++ {
		h.Add(uint64(i), 1)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	// Sparse fill (< slots/8), sparse reset path.
	for i := 0; i < 3; i++ {
		h.Add(uint64(1000+i), float64(i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("sparse reset did not clear")
	}
	h.Add(7, 5)
	if k, v := h.Entry(0); k != 7 || v != 5 {
		t.Fatal("stale state after reset")
	}
	// No stale slots survive: every old key must read as a fresh miss
	// (key 7 was just re-added above, so 200 distinct keys in total).
	for i := 0; i < 200; i++ {
		h.Add(uint64(i), 1)
	}
	if h.Len() != 200 {
		t.Fatalf("stale slots: len=%d", h.Len())
	}
}

// Property: HtAFlat equals a map accumulation for arbitrary insert
// sequences, with entries in first-insertion order.
func TestQuickHtAFlatMatchesMap(t *testing.T) {
	f := func(seed int64, raw uint8) bool {
		n := int(raw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		h := NewHtAFlat(2)
		ref := map[uint64]float64{}
		var order []uint64
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(40))
			v := rng.NormFloat64()
			h.Add(k, v)
			if _, seen := ref[k]; !seen {
				order = append(order, k)
			}
			ref[k] += v
		}
		if !slices.Equal(h.Keys(), order) {
			return false
		}
		for i, k := range order {
			d := h.Vals()[i] - ref[k]
			if d < -1e-9 || d > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
