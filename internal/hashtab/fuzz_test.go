package hashtab

import (
	"testing"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// FuzzHtYFlatLookup drives the build with arbitrary non-zero patterns and
// thread counts, then checks every possible contract key's Lookup against a
// plain map oracle built serially: same presence, same items, same (original
// Y) order, same stats. Duplicate coordinates, single-key skew and empty
// tensors all fall out of the byte decoding. The committed corpus adds two
// 11-key tables of two groups: seed-4 overfills group 0 (spill to group 1)
// with keys 8 and 24 under one tag and 25 one above it; seed-5 overfills
// group 1 (wrap to group 0) with keys 1 and 31 a tag apart.
func FuzzHtYFlatLookup(f *testing.F) {
	f.Add([]byte{}, uint8(1))                          // empty tensor
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3)) // one key, duplicates
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0, 15, 3, 3, 3}, uint8(4))
	f.Add([]byte{255, 255, 255, 128, 64, 32, 9, 9, 9}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, rawThreads uint8) {
		dims := []uint64{8, 8, 16}
		radC := lnum.MustRadix(dims[:2])
		radF := lnum.MustRadix(dims[2:])
		threads := int(rawThreads)%8 + 1

		y := coo.MustNew(dims, 0)
		type oracleItem struct {
			free uint64
			val  float64
		}
		oracle := map[uint64][]oracleItem{}
		idx := make([]uint32, 3)
		for i := 0; i+3 <= len(data); i += 3 {
			idx[0] = uint32(data[i]) % 8
			idx[1] = uint32(data[i+1]) % 8
			idx[2] = uint32(data[i+2]) % 16
			v := float64(i + 1)
			y.Append(idx, v)
			ck := radC.Encode(idx[:2])
			fk := radF.Encode(idx[2:])
			oracle[ck] = append(oracle[ck], oracleItem{fk, v})
		}

		h := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, threads)
		if h.NKeys != len(oracle) || h.NItems != y.NNZ() {
			t.Fatalf("stats: keys=%d items=%d, oracle keys=%d nnz=%d",
				h.NKeys, h.NItems, len(oracle), y.NNZ())
		}
		maxLen := 0
		for _, items := range oracle {
			if len(items) > maxLen {
				maxLen = len(items)
			}
		}
		if h.MaxItems != maxLen {
			t.Fatalf("MaxItemLen = %d, oracle %d", h.MaxItems, maxLen)
		}
		for ck := uint64(0); ck < radC.Card(); ck++ {
			items, probes := h.Lookup(ck)
			want := oracle[ck]
			if len(items) != len(want) {
				t.Fatalf("key %d: got %d items, oracle %d", ck, len(items), len(want))
			}
			if probes < 1 || probes > h.NumBuckets() {
				t.Fatalf("key %d: probe count %d out of range [1, %d]", ck, probes, h.NumBuckets())
			}
			// Original Y order inside each key group (deterministic build).
			for j, it := range items {
				if it.LNFree != want[j].free || it.Val != want[j].val {
					t.Fatalf("key %d item %d: got {%d %v}, oracle {%d %v}",
						ck, j, it.LNFree, it.Val, want[j].free, want[j].val)
				}
			}
		}
	})
}
