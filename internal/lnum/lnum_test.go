package lnum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRadixRejectsZeroMode(t *testing.T) {
	if _, err := NewRadix([]uint64{3, 0, 2}); err == nil {
		t.Fatal("expected error for zero-sized mode")
	}
}

func TestNewRadixOverflow(t *testing.T) {
	if _, err := NewRadix([]uint64{math.MaxUint64, 2}); err != ErrOverflow {
		t.Fatalf("expected ErrOverflow, got %v", err)
	}
	// Exactly 2^64 overflows; 2^63 does not.
	if _, err := NewRadix([]uint64{1 << 32, 1 << 32}); err != ErrOverflow {
		t.Fatalf("expected ErrOverflow for 2^64 card, got %v", err)
	}
	r, err := NewRadix([]uint64{1 << 31, 1 << 32})
	if err != nil {
		t.Fatalf("2^63 card should fit: %v", err)
	}
	if r.Card() != 1<<63 {
		t.Fatalf("card = %d, want 2^63", r.Card())
	}
}

func TestEmptyRadix(t *testing.T) {
	r, err := NewRadix(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Card() != 1 || r.Order() != 0 {
		t.Fatalf("empty radix: card=%d order=%d", r.Card(), r.Order())
	}
	if got := r.Encode(nil); got != 0 {
		t.Fatalf("empty Encode = %d, want 0", got)
	}
	r.Decode(0, nil) // must not panic
}

func TestEncodeDecodeExhaustiveSmall(t *testing.T) {
	r := MustRadix([]uint64{3, 4, 5})
	if r.Card() != 60 {
		t.Fatalf("card = %d, want 60", r.Card())
	}
	seen := make(map[uint64]bool)
	idx := make([]uint32, 3)
	dec := make([]uint32, 3)
	for i := uint32(0); i < 3; i++ {
		for j := uint32(0); j < 4; j++ {
			for k := uint32(0); k < 5; k++ {
				idx[0], idx[1], idx[2] = i, j, k
				ln := r.Encode(idx)
				if ln >= 60 {
					t.Fatalf("Encode(%v) = %d out of range", idx, ln)
				}
				if seen[ln] {
					t.Fatalf("Encode(%v) = %d not unique", idx, ln)
				}
				seen[ln] = true
				r.Decode(ln, dec)
				if dec[0] != i || dec[1] != j || dec[2] != k {
					t.Fatalf("Decode(%d) = %v, want %v", ln, dec, idx)
				}
				for m := 0; m < 3; m++ {
					if r.At(ln, m) != idx[m] {
						t.Fatalf("At(%d, %d) = %d, want %d", ln, m, r.At(ln, m), idx[m])
					}
				}
			}
		}
	}
}

func TestEncodeOrderSensitivity(t *testing.T) {
	// (1,2) over dims (3,4) is 1*4+2=6; over dims (4,3) it is 1*3+2=5.
	a := MustRadix([]uint64{3, 4})
	b := MustRadix([]uint64{4, 3})
	if a.Encode([]uint32{1, 2}) != 6 {
		t.Fatal("row-major encode broken")
	}
	if b.Encode([]uint32{1, 2}) != 5 {
		t.Fatal("row-major encode broken for swapped dims")
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	r := MustRadix([]uint64{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	r.Encode([]uint32{2, 0})
}

func TestEncodePanicsArity(t *testing.T) {
	r := MustRadix([]uint64{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong arity")
		}
	}()
	r.Encode([]uint32{1})
}

func TestEncodeStridedMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []uint64{7, 13, 5, 11}
	r := MustRadix(dims)
	const n = 200
	cols := make([][]uint32, len(dims))
	for m := range cols {
		cols[m] = make([]uint32, n)
		for i := range cols[m] {
			cols[m][i] = uint32(rng.Intn(int(dims[m])))
		}
	}
	idx := make([]uint32, len(dims))
	for i := 0; i < n; i++ {
		for m := range dims {
			idx[m] = cols[m][i]
		}
		if got, want := r.EncodeStrided(cols, i), r.Encode(idx); got != want {
			t.Fatalf("EncodeStrided at %d = %d, want %d", i, got, want)
		}
	}
}

// Property: Decode is a left inverse of Encode for arbitrary dims/indices.
func TestQuickRoundTrip(t *testing.T) {
	f := func(rawDims [4]uint16, rawIdx [4]uint32) bool {
		dims := make([]uint64, 4)
		idx := make([]uint32, 4)
		for m := range dims {
			dims[m] = uint64(rawDims[m]%500) + 1
			idx[m] = rawIdx[m] % uint32(dims[m])
		}
		r, err := NewRadix(dims)
		if err != nil {
			return false
		}
		ln := r.Encode(idx)
		dec := make([]uint32, 4)
		r.Decode(ln, dec)
		for m := range idx {
			if dec[m] != idx[m] {
				return false
			}
		}
		return ln < r.Card()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode is strictly monotone in lexicographic index order.
func TestQuickMonotone(t *testing.T) {
	dims := []uint64{9, 7, 8}
	r := MustRadix(dims)
	f := func(a0, a1, a2, b0, b1, b2 uint32) bool {
		a := []uint32{a0 % 9, a1 % 7, a2 % 8}
		b := []uint32{b0 % 9, b1 % 7, b2 % 8}
		cmp := 0
		for m := range a {
			if a[m] != b[m] {
				if a[m] < b[m] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		la, lb := r.Encode(a), r.Encode(b)
		switch cmp {
		case -1:
			return la < lb
		case 1:
			return la > lb
		default:
			return la == lb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// decodeCase is one radix DecodeColumns is checked over, with the keys that
// must be among those decoded.
type decodeCase struct {
	name string
	dims []uint64
	keys []uint64
}

func decodeCases() []decodeCase {
	rng := rand.New(rand.NewSource(34))
	var cs []decodeCase
	// Orders 0-5 over random small dims, 700 keys: two whole blocks of the
	// multi-mode path and a tail.
	for order := 0; order <= 5; order++ {
		dims := make([]uint64, order)
		for m := range dims {
			dims[m] = uint64(rng.Intn(40)) + 1
		}
		cs = append(cs, decodeCase{name: fmt.Sprintf("order %d", order), dims: dims})
	}
	const max32 = math.MaxUint32
	cs = append(cs,
		decodeCase{name: "one mode of 2^32-1", dims: []uint64{max32}},
		decodeCase{name: "2^32-1 after a small mode", dims: []uint64{3, max32}},
		decodeCase{name: "2^32-1 between small modes", dims: []uint64{5, max32, 7}},
		// The boundary radices of TestNewRadixBoundaryFit: card 2^64-2^32 and
		// a single mode of 2^64-1, whose coordinates keep their low 32 bits.
		decodeCase{name: "card 2^64-2^32", dims: []uint64{1 << 32, max32},
			keys: []uint64{1<<32*max32 - 1, 1<<32*max32 - 2, 1 << 32, max32}},
		decodeCase{name: "one mode of 2^64-1", dims: []uint64{math.MaxUint64},
			keys: []uint64{math.MaxUint64 - 1, max32, 1 << 32}},
	)
	for i := range cs {
		card := MustRadix(cs[i].dims).Card()
		cs[i].keys = append(cs[i].keys, 0, card-1)
		for len(cs[i].keys) < 700 {
			cs[i].keys = append(cs[i].keys, rng.Uint64()%card)
		}
	}
	return cs
}

// TestDecodeColumnsMatchesDecode: decoding a run of keys into columns at an
// offset writes exactly what Decode writes key by key, and nothing outside
// [at, at+len(keys)).
func TestDecodeColumnsMatchesDecode(t *testing.T) {
	const sentinel = 0xDEADBEEF
	for _, c := range decodeCases() {
		r := MustRadix(c.dims)
		for _, at := range []int{1, 3, 257} {
			// An order-0 radix gets one placeholder column, as a scalar Z
			// has, which it must leave alone.
			cols := make([][]uint32, max(len(c.dims), 1))
			for m := range cols {
				cols[m] = make([]uint32, at+len(c.keys)+2)
				for i := range cols[m] {
					cols[m][i] = sentinel
				}
			}
			r.DecodeColumns(c.keys, cols, at)
			dec := make([]uint32, len(c.dims))
			for j, ln := range c.keys {
				r.Decode(ln, dec)
				for m, want := range dec {
					if got := cols[m][at+j]; got != want {
						t.Fatalf("%s at %d: key %d mode %d = %d, Decode says %d", c.name, at, ln, m, got, want)
					}
				}
			}
			for m, col := range cols {
				for i, v := range col {
					inRun := i >= at && i < at+len(c.keys) && m < len(c.dims)
					if !inRun && v != sentinel {
						t.Fatalf("%s at %d: column %d row %d written outside the run", c.name, at, m, i)
					}
				}
			}
		}
	}
}

// TestDecodeColumnsRejectsShortColumns: too few columns, a column that ends
// inside the run, and a negative offset panic with errColumns instead of
// writing part of the run.
func TestDecodeColumnsRejectsShortColumns(t *testing.T) {
	r := MustRadix([]uint64{4, 5})
	keys := []uint64{1, 2, 3}
	for _, c := range []struct {
		name string
		cols [][]uint32
		at   int
	}{
		{"one column for two modes", [][]uint32{make([]uint32, 8)}, 0},
		{"column ends inside the run", [][]uint32{make([]uint32, 8), make([]uint32, 4)}, 2},
		{"negative offset", [][]uint32{make([]uint32, 8), make([]uint32, 8)}, -1},
	} {
		func() {
			defer func() {
				if got := recover(); got != errColumns {
					t.Errorf("%s: recovered %v, want errColumns", c.name, got)
				}
			}()
			r.DecodeColumns(keys, c.cols, c.at)
		}()
	}
}

// BenchmarkDecodeColumns decodes a run of 4096 keys into columns, beside the
// per-key Decode loop it replaces in the writeback, for 1-4 modes.
func BenchmarkDecodeColumns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	for order := 1; order <= 4; order++ {
		dims := []uint64{40000, 300, 17, 1000}[:order]
		r := MustRadix(dims)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % r.Card()
		}
		cols := make([][]uint32, order)
		for m := range cols {
			cols[m] = make([]uint32, n)
		}
		b.Run(fmt.Sprintf("modes=%d/columns", order), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				r.DecodeColumns(keys, cols, 0)
			}
		})
		b.Run(fmt.Sprintf("modes=%d/per-key-Decode", order), func(b *testing.B) {
			b.SetBytes(8 * n)
			buf := make([]uint32, order)
			for i := 0; i < b.N; i++ {
				for j, ln := range keys {
					r.Decode(ln, buf)
					for m, v := range buf {
						cols[m][j] = v
					}
				}
			}
		})
	}
}
