package hashtab

import (
	"fmt"
	"math/rand"
	"slices"
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

// nipsColdBuild is the benchmark's cold_build operand pair (benchmark/inputs.go,
// seed 42): Y the NIPS preset at 300 k nnz, X skewed over the same box, modes
// 1–3 contracted — ~299 k distinct keys in Y, of which X's keys hit 0.3 %.
func nipsColdBuild(b *testing.B) (x, y *coo.Tensor, radC, radF *lnum.Radix) {
	p, err := gen.FindPreset("NIPS")
	if err != nil {
		b.Fatal(err)
	}
	y = gen.Generate(p, 300000, 42)
	x = gen.RandomSkewed(y.Dims, 300000, p.Alpha, 43)
	return x, y, lnum.MustRadix(y.Dims[1:]), lnum.MustRadix(y.Dims[:1])
}

// BenchmarkHtYBuild times the COO→HtY conversion across thread counts on
// benchY (4 096 keys, 16 non-zeros a key: the direct arm), then on the
// benchmark's cold_build shape (the hashed arm's sort-then-pack), the number
// the ROADMAP ledger quotes.
func BenchmarkHtYBuild(b *testing.B) {
	y, radC, radF := benchY(1 << 16)
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("flat/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, threads)
			}
		})
	}
	_, nips, nipsC, nipsF := nipsColdBuild(b)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("flat-nips300k/threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			var h *HtYFlat
			for i := 0; i < b.N; i++ {
				h = BuildHtYFlat(nips, []int{1, 2, 3}, []int{0}, nipsC, nipsF, 0, threads)
			}
			b.ReportMetric(float64(h.Bytes()), "table-bytes")
		})
	}
}

var lookupSink float64

// BenchmarkHtYLookup times Lookup per key in the three regimes the tables
// meet: the 8-items-per-key table of benchY; hit-only streams — every key
// present, its first item read, as on accum_dense (4 096 keys) and write_out
// (1 449) — over tables from L1-sized to far past the last-level cache, on
// each index arm; and
// cold_build's own stream, 300 k probes of a 299 k-key table that miss
// 99.7 % of the time.
func BenchmarkHtYLookup(b *testing.B) {
	run := func(name string, h *HtYFlat, keys []uint64) {
		b.Run(name, func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					if items, _ := h.Lookup(k); len(items) > 0 {
						sum += items[0].Val
					}
				}
			}
			lookupSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
		})
	}

	y, radC, radF := benchY(1 << 16)
	keys := make([]uint64, 1<<14)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 13)) // benchY's key range: 8 items per key, nearly every key present
	}
	run("flat", BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, 0), keys)

	for _, nkeys := range []int{1449, 4096, 65536, 300000, 1 << 20} {
		dims := []uint64{uint64(nkeys), 2}
		y := coo.MustNew(dims, nkeys)
		for k := 0; k < nkeys; k++ {
			y.Append([]uint32{uint32(k), uint32(k & 1)}, float64(k))
		}
		for i := range keys {
			keys[i] = uint64(rng.Intn(nkeys))
		}
		for _, arm := range []Arm{ArmHashed, ArmDirect} {
			restore := ForceArm(arm)
			h := BuildHtYFlat(y, []int{0}, []int{1}, lnum.MustRadix(dims[:1]), lnum.MustRadix(dims[1:]), 0, 0)
			restore()
			run(fmt.Sprintf("hit-only/keys=%d/direct=%v", nkeys, h.Walls.Direct), h, keys)
		}
	}

	x, nips, nipsC, nipsF := nipsColdBuild(b)
	stream := make([]uint64, x.NNZ())
	for i := range stream {
		stream[i] = nipsC.EncodeStrided(x.Inds[1:], i)
	}
	run("cold-build-stream", BuildHtYFlat(nips, []int{1, 2, 3}, []int{0}, nipsC, nipsF, 0, 0), stream)
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

// BenchmarkHtYBuildDirectVsHashed is the sweep behind useDirect's two
// constants: the whole build, forced down each arm, over contract-key spaces
// of 2^8..2^22 keys filled with 1/32..4 non-zeros a key (uniform keys, two
// contract and two free modes, as accum_dense's Y), at 1 and 2 threads.
// Fills above 2^21 non-zeros are skipped to keep the inputs small.
func BenchmarkHtYBuildDirectVsHashed(b *testing.B) {
	fdims := []uint64{16, 16}
	for lg := 8; lg <= 22; lg += 2 {
		card := 1 << lg
		cdims := []uint64{uint64(card) >> 4, 16}
		dims := append(slices.Clone(cdims), fdims...)
		for _, perKey := range []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4} {
			nnz := int(float64(card) * perKey)
			if nnz < 64 || nnz > 1<<21 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(lg)))
			y := coo.MustNew(dims, nnz)
			idx := make([]uint32, len(dims))
			for i := 0; i < nnz; i++ {
				for m, d := range dims {
					idx[m] = uint32(rng.Intn(int(d)))
				}
				y.Append(idx, rng.Float64())
			}
			radC, radF := lnum.MustRadix(cdims), lnum.MustRadix(fdims)
			for _, threads := range []int{1, 2} {
				for _, arm := range []Arm{ArmHashed, ArmDirect} {
					name := fmt.Sprintf("card=2^%d/perkey=%g/threads=%d/%s", lg, perKey, threads, map[Arm]string{ArmHashed: "hashed", ArmDirect: "direct"}[arm])
					b.Run(name, func(b *testing.B) {
						defer ForceArm(arm)()
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							BuildHtYFlat(y, []int{0, 1}, []int{2, 3}, radC, radF, 0, threads)
						}
					})
				}
			}
		}
	}
}
