package coo

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sparta/internal/lnum"
)

// FuzzReadTNS checks the text parser never panics and that anything it
// accepts survives a write/read round trip.
func FuzzReadTNS(f *testing.F) {
	f.Add("2\n3 4\n1 1 2.5\n3 4 -1\n")
	f.Add("# comment\n1\n5\n5 0.5\n")
	f.Add("3\n2 2 2\n1 1 1 1\n2 2 2 -2\n")
	f.Add("")
	f.Add("2\n3 4\n")
	f.Add("x\n")
	f.Add("2\n3 4\n0 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		ten, err := ReadTNS(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := ten.Validate(); err != nil {
			t.Fatalf("accepted tensor fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := ten.WriteTNS(&buf); err != nil {
			t.Fatalf("write after read: %v", err)
		}
		back, err := ReadTNS(&buf)
		if err != nil {
			t.Fatalf("reread: %v", err)
		}
		if !ten.Equal(back) {
			t.Fatal("round trip changed the tensor")
		}
	})
}

// FuzzReadBin checks the binary parser is robust against arbitrary bytes.
func FuzzReadBin(f *testing.F) {
	ten := MustNew([]uint64{3, 4}, 0)
	ten.Append([]uint32{1, 2}, 1.5)
	var buf bytes.Buffer
	if err := ten.WriteBin(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SPTN"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, in []byte) {
		ten, err := ReadBin(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := ten.Validate(); err != nil {
			t.Fatalf("accepted tensor fails validation: %v", err)
		}
	})
}

// FuzzSortStable checks the one sorter against the stdlib's stable tuple
// sort (stableSorted) on 1–6 modes of up to 2^32 each — boxes of one LN key
// word and of several — with rows that repeat an earlier row's leading modes
// or all of it, so ties inside and across key words show whether the sort is
// stable. The committed corpus sits where the word split moves: a box of
// exactly 2^64-1 (one word), one of 2^64 (two), and modes of 2^32 beside
// modes of 2.
func FuzzSortStable(f *testing.F) {
	f.Add(int64(1), uint8(2), uint64(17), uint64(13), uint64(11), uint64(0), uint64(0), uint64(0), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, modes uint8, d0, d1, d2, d3, d4, d5 uint64, rows uint16) {
		dims := []uint64{d0, d1, d2, d3, d4, d5}[:1+int(modes)%6]
		for m, d := range dims {
			if d == 0 || d > 1<<32 {
				dims[m] = 1 + d%(1<<32)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(rows) % 4096
		ten := MustNew(dims, n)
		row := make([]uint32, len(dims))
		for i := 0; i < n; i++ {
			// Copy the first k modes of an earlier row, draw the rest.
			k := 0
			if i > 0 {
				k = rng.Intn(len(dims) + 1)
				ten.Index(rng.Intn(i), row)
			}
			for m := k; m < len(dims); m++ {
				row[m] = uint32(rng.Uint64() % dims[m])
			}
			ten.Append(row, float64(i))
		}
		_, err := lnum.NewRadix(dims)
		if words, _ := ten.keyWords(); (len(words) == 1) != (err == nil) {
			t.Fatalf("dims %v: %d key words, one LN key fits = %v", dims, len(words), err == nil)
		}
		src := ten.Clone()
		want := stableSorted(ten)
		ten.Sort(1 + int(seed&3))
		if !want.Equal(ten) {
			t.Fatalf("dims %v, %d rows: sort differs from the stable oracle", dims, n)
		}
		// The multiset: each value names its input row, once, and the row
		// kept that input row's coordinates.
		seen := make([]bool, n)
		for j := 0; j < n; j++ {
			i := int(ten.Vals[j])
			if seen[i] {
				t.Fatalf("input row %d appears twice", i)
			}
			seen[i] = true
			for m := range dims {
				if ten.Inds[m][j] != src.Inds[m][i] {
					t.Fatalf("row %d (input %d) mode %d: %d, input had %d", j, i, m, ten.Inds[m][j], src.Inds[m][i])
				}
			}
		}
	})
}
