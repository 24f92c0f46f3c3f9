package hashtab

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// buildTestY creates a 4-order tensor and its HtY with contract modes {0,1}
// and free modes {2,3}.
func buildTestY(t *testing.T, nnz int, threads int) (*coo.Tensor, *HtYFlat, *lnum.Radix, *lnum.Radix) {
	t.Helper()
	dims := []uint64{6, 7, 8, 9}
	rng := rand.New(rand.NewSource(42))
	y := coo.MustNew(dims, nnz)
	idx := make([]uint32, 4)
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		y.Append(idx, rng.Float64())
	}
	radC := lnum.MustRadix(dims[:2])
	radF := lnum.MustRadix(dims[2:])
	hty := BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, threads)
	return y, hty, radC, radF
}

func TestBuildHtYCompleteness(t *testing.T) {
	for _, threads := range []int{1, 4} {
		y, hty, radC, radF := buildTestY(t, 2000, threads)
		if hty.NItems != y.NNZ() {
			t.Fatalf("NItems = %d, want %d", hty.NItems, y.NNZ())
		}
		// Reference: group Y by contract key with a map.
		ref := map[uint64]map[uint64]float64{}
		for i := 0; i < y.NNZ(); i++ {
			ck := radC.EncodeStrided(y.Inds[:2], i)
			fk := radF.EncodeStrided(y.Inds[2:], i)
			if ref[ck] == nil {
				ref[ck] = map[uint64]float64{}
			}
			ref[ck][fk] += y.Vals[i]
		}
		if hty.NKeys != len(ref) {
			t.Fatalf("NKeys = %d, want %d", hty.NKeys, len(ref))
		}
		for ck, items := range ref {
			got, _ := hty.Lookup(ck)
			if got == nil {
				t.Fatalf("key %d missing", ck)
			}
			sum := map[uint64]float64{}
			for _, it := range got {
				sum[it.LNFree] += it.Val
			}
			if len(sum) != len(items) {
				t.Fatalf("key %d: %d distinct frees, want %d", ck, len(sum), len(items))
			}
			for fk, v := range items {
				d := sum[fk] - v
				if d < -1e-12 || d > 1e-12 {
					t.Fatalf("key %d free %d: %v, want %v", ck, fk, sum[fk], v)
				}
			}
		}
	}
}

func TestHtYLookupMiss(t *testing.T) {
	_, hty, radC, _ := buildTestY(t, 50, 1)
	misses := 0
	for ck := uint64(0); ck < radC.Card(); ck++ {
		if items, _ := hty.Lookup(ck); items == nil {
			misses++
		}
	}
	if misses != int(radC.Card())-hty.NKeys {
		t.Fatalf("misses = %d, want %d", misses, int(radC.Card())-hty.NKeys)
	}
}

func TestHtYMaxItems(t *testing.T) {
	y := coo.MustNew([]uint64{2, 2, 4}, 0)
	// three items under contract key (0,0), one under (1,1)
	y.Append([]uint32{0, 0, 0}, 1)
	y.Append([]uint32{0, 0, 1}, 1)
	y.Append([]uint32{0, 0, 2}, 1)
	y.Append([]uint32{1, 1, 0}, 1)
	radC := lnum.MustRadix([]uint64{2, 2})
	radF := lnum.MustRadix([]uint64{4})
	hty := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, 1)
	if hty.MaxItems != 3 || hty.NKeys != 2 {
		t.Fatalf("MaxItems=%d NKeys=%d", hty.MaxItems, hty.NKeys)
	}
}

func TestHtYExplicitBuckets(t *testing.T) {
	y, _, _, _ := buildTestY(t, 100, 1)
	radC := lnum.MustRadix(y.Dims[:2])
	radF := lnum.MustRadix(y.Dims[2:])
	// At most 42 distinct keys, so 100 is above the free-slot clamp.
	hty := BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 100, 1)
	if hty.NumBuckets() != 128 {
		t.Fatalf("buckets = %d, want 128 (pow2 roundup)", hty.NumBuckets())
	}
}

func TestHtYBytesVsEstimate(t *testing.T) {
	y, hty, _, _ := buildTestY(t, 5000, 2)
	est := EstimateHtYBytes(y.NNZ(), y.Order(), hty.NumBuckets())
	got := hty.Bytes()
	// The Eq.5 model and the Go layout differ in constants; they must
	// agree within a small factor.
	if got == 0 || est == 0 {
		t.Fatal("zero sizes")
	}
	ratio := float64(got) / float64(est)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("measured %d vs estimate %d (ratio %.2f)", got, est, ratio)
	}
}

func TestHtAAccumulates(t *testing.T) {
	h := NewHtAFlat(4)
	h.Add(10, 1)
	h.Add(20, 2)
	h.Add(10, 3)
	if !slices.Equal(h.Keys(), []uint64{10, 20}) || !slices.Equal(h.Vals(), []float64{4, 2}) {
		t.Fatalf("keys=%v vals=%v", h.Keys(), h.Vals())
	}
	// Every Add inspects at least the slot it lands on.
	if h.Probes < h.Hits+h.Misses {
		t.Fatalf("probes=%d for %d adds", h.Probes, h.Hits+h.Misses)
	}
}

func TestHtAGrowth(t *testing.T) {
	h := NewHtAFlat(16)
	before := h.Bytes()
	const n = 10000
	for i := 0; i < n; i++ {
		h.Add(uint64(i*2654435761), float64(i))
		if 2*h.Len() > len(h.table) {
			t.Fatalf("load factor above 1/2 after %d inserts (%d slots)", h.Len(), len(h.table))
		}
	}
	if h.Len() != n || h.Bytes() <= before {
		t.Fatalf("Len = %d, bytes %d -> %d", h.Len(), before, h.Bytes())
	}
	// Every value survived the re-probes.
	for i, v := range h.Vals() {
		if v != float64(i) {
			t.Fatalf("entry %d = %v after growth", i, v)
		}
	}
}

func TestHtAResetKeepsCapacity(t *testing.T) {
	h := NewHtAFlat(4)
	for i := 0; i < 100; i++ {
		h.Add(uint64(i), 1)
	}
	grown := h.Bytes()
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	if h.Bytes() != grown {
		t.Fatalf("reset changed the footprint: %d -> %d", grown, h.Bytes())
	}
	if h.Misses != 100 {
		t.Fatalf("reset touched the cumulative counters: misses=%d", h.Misses)
	}
	h.Add(7, 5)
	if k, v := h.Entry(0); k != 7 || v != 5 {
		t.Fatal("stale state after reset")
	}
}

func TestHtAInsertionOrder(t *testing.T) {
	h := NewHtAFlat(4)
	keys := []uint64{42, 7, 99, 3}
	for _, k := range keys {
		h.Add(k, 1)
	}
	h.Add(99, 1) // a hit must not move its entry
	if !slices.Equal(h.Keys(), keys) {
		t.Fatalf("keys = %v, want %v", h.Keys(), keys)
	}
}

// Property: across interleaved resets, each accumulator generation equals a
// map accumulation of the inserts since the last reset.
func TestQuickHtAMatchesMap(t *testing.T) {
	f := func(seed int64, raw uint8) bool {
		n := int(raw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		h := NewHtAFlat(2)
		ref := map[uint64]float64{}
		matches := func() bool {
			if h.Len() != len(ref) {
				return false
			}
			for i := 0; i < h.Len(); i++ {
				k, v := h.Entry(i)
				if d := v - ref[k]; d < -1e-9 || d > 1e-9 {
					return false
				}
			}
			return true
		}
		for i := 0; i < n; i++ {
			if rng.Intn(50) == 0 {
				if !matches() {
					return false
				}
				h.Reset()
				clear(ref)
			}
			k := uint64(rng.Intn(40))
			v := rng.NormFloat64()
			h.Add(k, v)
			ref[k] += v
		}
		return matches()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateHtAIsUpperBoundShape(t *testing.T) {
	// Eq. 6 must be monotone in each argument.
	base := EstimateHtABytes(64, 10, 10, 2)
	if EstimateHtABytes(64, 20, 10, 2) < base ||
		EstimateHtABytes(64, 10, 20, 2) < base ||
		EstimateHtABytes(64, 10, 10, 3) < base ||
		EstimateHtABytes(128, 10, 10, 2) < base {
		t.Fatal("Eq.6 estimator is not monotone")
	}
}

func TestHashKeyDispersion(t *testing.T) {
	// Sequential keys must not collide excessively in a small table.
	const buckets = 256
	counts := make([]int, buckets)
	for k := uint64(0); k < 4096; k++ {
		counts[hashKey(k)&(buckets-1)]++
	}
	for b, c := range counts {
		if c > 64 { // expected 16 per bucket
			t.Fatalf("bucket %d has %d of 4096 sequential keys", b, c)
		}
	}
}
