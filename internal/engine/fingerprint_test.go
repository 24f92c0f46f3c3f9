package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sparta/internal/coo"
)

// tensorFromBytes deterministically decodes fuzz data into a small COO
// tensor: first byte picks the order (1..4), the next bytes the dims
// (2..17), then 9-byte records of (mode indices, value byte) until the data
// runs out. Values come from a tiny alphabet so the fuzzer can hit
// duplicate entries easily.
func tensorFromBytes(data []byte) *coo.Tensor {
	if len(data) == 0 {
		data = []byte{0}
	}
	order := 1 + int(data[0]%4)
	data = data[1:]
	dims := make([]uint64, order)
	for m := range dims {
		d := byte(3)
		if len(data) > 0 {
			d = data[0]
			data = data[1:]
		}
		dims[m] = 2 + uint64(d%16)
	}
	t := coo.MustNew(dims, 8)
	idx := make([]uint32, order)
	for len(data) >= order+1 {
		for m := range idx {
			idx[m] = uint32(data[m]) % uint32(dims[m])
		}
		v := float64(int8(data[order])) / 4
		t.Append(idx, v)
		data = data[order+1:]
	}
	return t
}

// canonical serializes a tensor into an order-independent string: the
// sorted multiset of entries under the dims header — exactly the identity
// the fingerprint is supposed to capture.
func canonical(t *coo.Tensor) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%v;", t.Dims)
	lines := make([]string, t.NNZ())
	for i := 0; i < t.NNZ(); i++ {
		var e strings.Builder
		for m := range t.Inds {
			fmt.Fprintf(&e, "%d,", t.Inds[m][i])
		}
		fmt.Fprintf(&e, "=%016x", math.Float64bits(t.Vals[i]))
		lines[i] = e.String()
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, ";"))
	return b.String()
}

// shuffled returns t with its entries in a different storage order.
func shuffled(t *coo.Tensor, seed int64) *coo.Tensor {
	rng := rand.New(rand.NewSource(seed))
	s := t.Clone()
	n := s.NNZ()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		for m := range s.Inds {
			s.Inds[m][i], s.Inds[m][j] = s.Inds[m][j], s.Inds[m][i]
		}
		s.Vals[i], s.Vals[j] = s.Vals[j], s.Vals[i]
	}
	return s
}

// seen maps canonical serializations to fingerprints across the whole fuzz
// run — the collision oracle.
var seen sync.Map

// FuzzFingerprint drives FingerprintTensor against the canonical-
// serialization oracle: equal canonical forms must fingerprint equally
// (including across storage order and thread counts), and distinct
// canonical forms must not collide.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 1, 2, 3})
	f.Add([]byte{1, 3, 3, 0, 0, 7, 1, 1, 7})           // duplicate entries
	f.Add([]byte{2, 4, 4, 4, 1, 2, 3, 9, 3, 2, 1, 9})  // order 3
	f.Add([]byte{3, 2, 2, 2, 2, 0, 1, 0, 1, 128})      // negative value
	f.Add(bytesOf(0, 9, 1, 1, 5, 2, 1, 6, 2, 2, 7, 3)) // several entries, order 1
	f.Fuzz(func(t *testing.T, data []byte) {
		tensor := tensorFromBytes(data)
		fp := FingerprintTensor(tensor, 1)

		// Parallel split is exact.
		if fp4 := FingerprintTensor(tensor, 4); fp4 != fp {
			t.Fatalf("threads=4 fingerprint %v != serial %v", fp4, fp)
		}
		// Storage order is irrelevant.
		if fps := FingerprintTensor(shuffled(tensor, 42), 2); fps != fp {
			t.Fatalf("shuffled fingerprint %v != original %v", fps, fp)
		}

		key := canonical(tensor)
		if prev, loaded := seen.LoadOrStore(key, fp); loaded && prev.(Fingerprint) != fp {
			t.Fatalf("same canonical form, different fingerprints: %v vs %v", prev, fp)
		}
		// Reverse direction: scan for a collision between this fingerprint
		// and any previously seen distinct canonical form.
		seen.Range(func(k, v interface{}) bool {
			if v.(Fingerprint) == fp && k.(string) != key {
				t.Fatalf("fingerprint collision:\n  %s\n  %s", k.(string), key)
			}
			return true
		})
	})
}

func bytesOf(bs ...byte) []byte { return bs }

// TestFingerprintBasics pins the cheap invariants outside the fuzzer.
func TestFingerprintBasics(t *testing.T) {
	a := randomSparse([]uint64{9, 8, 7}, 300, 1)
	fp := FingerprintTensor(a, 1)
	if fp.IsZero() {
		t.Fatal("fingerprint of a real tensor is zero")
	}
	if got := FingerprintTensor(a.Clone(), 3); got != fp {
		t.Errorf("clone fingerprints differently: %v vs %v", got, fp)
	}
	if len(fp.String()) != 32 {
		t.Errorf("String() = %q, want 32 hex digits", fp.String())
	}

	// Any single-entry perturbation must change the fingerprint.
	b := a.Clone()
	b.Vals[17] += 1e-9
	if FingerprintTensor(b, 1) == fp {
		t.Error("value perturbation not detected")
	}
	c := a.Clone()
	c.Inds[1][3] ^= 1
	if FingerprintTensor(c, 1) == fp {
		t.Error("index perturbation not detected")
	}

	// Same entries under different dims are different tensors.
	d := a.Clone()
	d.Dims = append([]uint64{}, a.Dims...)
	d.Dims[0]++
	if FingerprintTensor(d, 1) == fp {
		t.Error("dims change not detected")
	}

	// Duplicate pair does not cancel (the sum lane and nnz see it).
	e := randomSparse([]uint64{5, 5}, 40, 2)
	dup := coo.MustNew(e.Dims, e.NNZ()+1)
	idx := make([]uint32, 2)
	for i := 0; i < e.NNZ(); i++ {
		idx[0], idx[1] = e.Inds[0][i], e.Inds[1][i]
		dup.Append(idx, e.Vals[i])
	}
	idx[0], idx[1] = e.Inds[0][0], e.Inds[1][0]
	dup.Append(idx, e.Vals[0]) // exact duplicate of entry 0
	if FingerprintTensor(dup, 1) == FingerprintTensor(e, 1) {
		t.Error("exact duplicate entry canceled out of the fingerprint")
	}
}
