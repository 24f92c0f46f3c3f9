package lnum

import (
	"math"
	"math/big"
	"testing"
)

// TestNewRadixBoundaryFit pins the exact uint64 boundary: 2^32 * (2^32-1)
// fits (card 2^64 - 2^32), one more row overflows. The largest encodable
// tuple must round-trip right at the edge.
func TestNewRadixBoundaryFit(t *testing.T) {
	r, err := NewRadix([]uint64{1 << 32, (1 << 32) - 1})
	if err != nil {
		t.Fatalf("2^64-2^32 card should fit: %v", err)
	}
	if want := uint64(1<<32) * ((1 << 32) - 1); r.Card() != want {
		t.Fatalf("card = %d, want %d", r.Card(), want)
	}
	top := []uint32{math.MaxUint32, math.MaxUint32 - 1} // largest valid tuple
	ln := r.Encode(top)
	if ln != r.Card()-1 {
		t.Fatalf("Encode(max tuple) = %d, want card-1 = %d", ln, r.Card()-1)
	}
	dec := make([]uint32, 2)
	r.Decode(ln, dec)
	if dec[0] != top[0] || dec[1] != top[1] {
		t.Fatalf("Decode(card-1) = %v, want %v", dec, top)
	}
	// The single-mode degenerate case: a full 2^64-1 cardinality still fits.
	r1, err := NewRadix([]uint64{math.MaxUint64})
	if err != nil {
		t.Fatalf("single mode of size 2^64-1 should fit: %v", err)
	}
	if r1.Card() != math.MaxUint64 {
		t.Fatalf("card = %d", r1.Card())
	}
}

// FuzzLNRoundTrip cross-checks NewRadix's overflow verdict against a
// math/big oracle, then round-trips Encode/Decode/At/EncodeStrided for
// in-range tuples and checks DecodeColumns against math/big division. Seed
// corpus sits right on the 2^64 boundary.
func FuzzLNRoundTrip(f *testing.F) {
	f.Add(uint64(3), uint64(4), uint64(5), uint32(2), uint32(3), uint32(4))
	f.Add(uint64(1)<<32, uint64(1)<<32, uint64(1), uint32(0), uint32(0), uint32(0))       // exactly 2^64: overflow
	f.Add(uint64(1)<<32, uint64(1<<32)-1, uint64(1), uint32(1<<31), uint32(7), uint32(0)) // 2^64-2^32: fits
	f.Add(uint64(math.MaxUint64), uint64(1), uint64(1), uint32(9), uint32(0), uint32(0))
	f.Add(uint64(1), uint64(0), uint64(3), uint32(0), uint32(0), uint32(0)) // zero mode: rejected
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint64, i0, i1, i2 uint32) {
		dims := []uint64{d0, d1, d2}
		r, err := NewRadix(dims)

		// Oracle: the product over math/big decides whether the encoder
		// should exist.
		zero := false
		prod := big.NewInt(1)
		for _, d := range dims {
			if d == 0 {
				zero = true
			}
			prod.Mul(prod, new(big.Int).SetUint64(d))
		}
		fits := !zero && prod.Cmp(new(big.Int).Lsh(big.NewInt(1), 64)) < 0
		if (err == nil) != fits {
			t.Fatalf("NewRadix(%v) err=%v, but big.Int product %v (zero=%v)", dims, err, prod, zero)
		}
		if err != nil {
			return
		}
		if r.Card() != prod.Uint64() {
			t.Fatalf("Card() = %d, oracle %v", r.Card(), prod)
		}

		idx := []uint32{
			uint32(uint64(i0) % d0),
			uint32(uint64(i1) % d1),
			uint32(uint64(i2) % d2),
		}
		ln := r.Encode(idx)
		if ln >= r.Card() {
			t.Fatalf("Encode(%v) = %d >= card %d", idx, ln, r.Card())
		}
		dec := make([]uint32, 3)
		r.Decode(ln, dec)
		for m := range idx {
			if dec[m] != idx[m] {
				t.Fatalf("Decode(Encode(%v)) = %v", idx, dec)
			}
			if got := r.At(ln, m); got != idx[m] {
				t.Fatalf("At(%d, %d) = %d, want %d", ln, m, got, idx[m])
			}
		}
		cols := [][]uint32{{idx[0]}, {idx[1]}, {idx[2]}}
		if got := r.EncodeStrided(cols, 0); got != ln {
			t.Fatalf("EncodeStrided = %d, Encode = %d", got, ln)
		}

		// The column decode of every leading sub-radix, against math/big
		// long division. A coordinate of a mode wider than 2^32 keeps its
		// low 32 bits, as Decode's does.
		for k := 1; k <= len(dims); k++ {
			rk := MustRadix(dims[:k])
			keys := []uint64{ln % rk.Card(), rk.Card() - 1, 0}
			const at = 2
			out := make([][]uint32, k)
			for m := range out {
				out[m] = make([]uint32, at+len(keys))
			}
			rk.DecodeColumns(keys, out, at)
			for j, key := range keys {
				rem := new(big.Int).SetUint64(key)
				for m := k - 1; m >= 0; m-- {
					mod := new(big.Int)
					rem.DivMod(rem, new(big.Int).SetUint64(dims[m]), mod)
					if got, want := out[m][at+j], uint32(mod.Uint64()); got != want {
						t.Fatalf("DecodeColumns over %v: key %d mode %d = %d, big.Int says %d", dims[:k], key, m, got, want)
					}
				}
			}
		}
	})
}
