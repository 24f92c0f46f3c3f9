package hashtab

import (
	"fmt"
	"slices"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// FuzzHtYFlatLookup drives the build with arbitrary non-zero patterns and
// thread counts, then checks every possible contract key's Lookup against a
// plain map oracle built serially: same presence, same items, same (original
// Y) order, same stats. Each input is built three times — forced onto the
// hashed arm, forced onto the direct arm, and by useDirect's rule — and the
// three arenas must be bitwise equal. Duplicate coordinates, single-key skew
// and empty tensors all fall out of the byte decoding.
//
// The low three bits of rawThreads pick the thread count. Its top bit picks
// the key space: clear, 64 keys (8x8, three bytes a non-zero); set, exactly
// htyDirectMax keys (htyDirectMax/16 x 16, four bytes a non-zero), the
// largest space the direct arm takes. The committed corpus adds two 11-key
// tables of two groups: seed-4 overfills group 0 (spill to group 1) with keys
// 8 and 24 under one tag and 25 one above it; seed-5 overfills group 1 (wrap
// to group 0) with keys 1 and 31 a tag apart. The f.Add seeds below put the
// 64-key space on both sides of the fill bound (31 and 32 non-zeros) and the
// widest space under a few non-zeros.
func FuzzHtYFlatLookup(f *testing.F) {
	f.Add([]byte{}, uint8(1))                          // empty tensor
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3)) // one key, duplicates
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0, 15, 3, 3, 3}, uint8(4))
	f.Add([]byte{255, 255, 255, 128, 64, 32, 9, 9, 9}, uint8(7))
	below, at := make([]byte, 3*(64/directFillDiv-1)), make([]byte, 3*64/directFillDiv)
	for i := range at {
		at[i] = byte(i * 37)
	}
	copy(below, at)
	f.Add(below, uint8(1))                                                               // one non-zero short of the fill bound: hashed by the rule
	f.Add(at, uint8(2))                                                                  // at the fill bound: direct by the rule
	f.Add([]byte{255, 255, 15, 15, 0, 0, 0, 0, 128, 1, 7, 3, 128, 1, 7, 4}, uint8(0x81)) // card = htyDirectMax
	f.Fuzz(func(t *testing.T, data []byte, rawThreads uint8) {
		threads := int(rawThreads)%8 + 1
		dims, width := []uint64{8, 8, 16}, 3
		if rawThreads&0x80 != 0 {
			dims, width = []uint64{htyDirectMax / 16, 16, 16}, 4
		}
		radC := lnum.MustRadix(dims[:2])
		radF := lnum.MustRadix(dims[2:])

		y := coo.MustNew(dims, 0)
		type oracleItem struct {
			free uint64
			val  float64
		}
		oracle := map[uint64][]oracleItem{}
		idx := make([]uint32, 3)
		for i := 0; i+width <= len(data); i += width {
			b := data[i : i+width]
			idx[0] = uint32(b[0]) % uint32(dims[0])
			if width == 4 {
				idx[0] = (uint32(b[0])<<8 | uint32(b[3])) % uint32(dims[0])
			}
			idx[1] = uint32(b[1]) % uint32(dims[1])
			idx[2] = uint32(b[2]) % uint32(dims[2])
			v := float64(i + 1)
			y.Append(idx, v)
			ck := radC.Encode(idx[:2])
			fk := radF.Encode(idx[2:])
			oracle[ck] = append(oracle[ck], oracleItem{fk, v})
		}
		maxLen := 0
		for _, items := range oracle {
			maxLen = max(maxLen, len(items))
		}

		var arena []YItem
		for _, arm := range []Arm{ArmHashed, ArmDirect, ArmAuto} {
			restore := ForceArm(arm)
			h := BuildHtYFlat(y, []int{0, 1}, []int{2}, radC, radF, 0, threads)
			restore()
			name := fmt.Sprintf("arm %d (direct %v)", arm, h.Walls.Direct)
			if want := arm == ArmDirect || (arm == ArmAuto && useDirect(radC.Card(), y.NNZ(), 0)); (h.off != nil) != want || h.Walls.Direct != want {
				t.Fatalf("arm %d: direct %v (walls say %v), want %v", arm, h.off != nil, h.Walls.Direct, want)
			}
			if h.NKeys != len(oracle) || h.NItems != y.NNZ() {
				t.Fatalf("%s: stats: keys=%d items=%d, oracle keys=%d nnz=%d",
					name, h.NKeys, h.NItems, len(oracle), y.NNZ())
			}
			if h.MaxItems != maxLen {
				t.Fatalf("%s: MaxItemLen = %d, oracle %d", name, h.MaxItems, maxLen)
			}
			if arena == nil {
				arena = h.items
			} else if !slices.Equal(h.items, arena) {
				t.Fatalf("%s: arena differs from the hashed arm's", name)
			}
			for ck := uint64(0); ck < radC.Card(); ck++ {
				items, probes := h.Lookup(ck)
				want := oracle[ck]
				if len(items) != len(want) {
					t.Fatalf("%s key %d: got %d items, oracle %d", name, ck, len(items), len(want))
				}
				if probes < 1 || probes > h.NumBuckets() {
					t.Fatalf("%s key %d: probe count %d out of range [1, %d]", name, ck, probes, h.NumBuckets())
				}
				// Original Y order inside each key group (deterministic build).
				for j, it := range items {
					if it.LNFree != want[j].free || it.Val != want[j].val {
						t.Fatalf("%s key %d item %d: got {%d %v}, oracle {%d %v}",
							name, ck, j, it.LNFree, it.Val, want[j].free, want[j].val)
					}
				}
			}
		}
	})
}
