package hashtab

import (
	"fmt"
	"math/rand"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/gen"
	"sparta/internal/lnum"
)

// benchY builds a 4-order random tensor shaped like the NIPS 2-mode
// contraction workloads: ~nnz/8 distinct contract keys, so item lists
// average 8.
func benchY(nnz int) (*coo.Tensor, *lnum.Radix, *lnum.Radix) {
	dims := []uint64{64, 64, 128, 128}
	rng := rand.New(rand.NewSource(1))
	y := coo.MustNew(dims, nnz)
	idx := make([]uint32, 4)
	for i := 0; i < nnz; i++ {
		ck := rng.Intn(nnz / 8)
		idx[0] = uint32(ck % 64)
		idx[1] = uint32(ck / 64 % 64)
		idx[2] = uint32(rng.Intn(128))
		idx[3] = uint32(rng.Intn(128))
		y.Append(idx, rng.Float64())
	}
	return y, lnum.MustRadix(dims[:2]), lnum.MustRadix(dims[2:])
}

// BenchmarkHtYBuild times the sort-then-pack COO→HtY conversion across
// thread counts, then on the benchmark's cold_build shape (NIPS preset at
// 300 k nnz, trailing three modes contracted: ~290 k distinct keys), the
// number the ROADMAP ledger quotes.
func BenchmarkHtYBuild(b *testing.B) {
	y, radC, radF := benchY(1 << 16)
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("flat/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, threads)
			}
		})
	}
	p, err := gen.FindPreset("NIPS")
	if err != nil {
		b.Fatal(err)
	}
	nips := gen.Generate(p, 300000, 42)
	nipsC, nipsF := lnum.MustRadix(nips.Dims[1:]), lnum.MustRadix(nips.Dims[:1])
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("flat-nips300k/threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildHtYFlat(nips, []int{1, 2, 3}, []int{0}, nipsC, nipsF, 0, threads)
			}
		})
	}
}

// BenchmarkHtYLookup times the linear probe on a half-hit key stream.
func BenchmarkHtYLookup(b *testing.B) {
	y, radC, radF := benchY(1 << 16)
	flat := BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, 0)
	keys := make([]uint64, 1<<14)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 13)) // half hits, half misses
	}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				flat.Lookup(k)
			}
		}
	})
}

// addKeyStreams builds the two accumulation regimes of §3.4: hit-heavy
// (few distinct keys, mostly accumulate) and miss-heavy (mostly fresh
// inserts, the growth-pressure case).
func addKeyStreams(n int) (hitHeavy, missHeavy []uint64) {
	rng := rand.New(rand.NewSource(3))
	hitHeavy = make([]uint64, n)
	missHeavy = make([]uint64, n)
	for i := range hitHeavy {
		hitHeavy[i] = uint64(rng.Intn(n / 64))
		missHeavy[i] = uint64(rng.Intn(4 * n))
	}
	return
}

// BenchmarkHtAAdd times the accumulator on hit-heavy and miss-heavy key
// streams, with the per-sub-tensor Reset included (it is part of the real
// per-sub-tensor cost).
func BenchmarkHtAAdd(b *testing.B) {
	const n = 1 << 16
	hitHeavy, missHeavy := addKeyStreams(n)
	streams := []struct {
		name string
		keys []uint64
	}{{"hit-heavy", hitHeavy}, {"miss-heavy", missHeavy}}
	for _, st := range streams {
		b.Run("flat/"+st.name, func(b *testing.B) {
			h := NewHtAFlat(1024)
			for i := 0; i < b.N; i++ {
				for _, k := range st.keys {
					h.Add(k, 1)
				}
				h.Reset()
			}
		})
	}
}
