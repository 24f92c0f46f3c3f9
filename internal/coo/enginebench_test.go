package coo

import (
	"fmt"
	"math/rand"
	"testing"

	"sparta/internal/sortx"
)

func BenchmarkEngines(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		rng := rand.New(rand.NewSource(3))
		base := make([]keyPos, n)
		for i := range base {
			base[i] = keyPos{Key: rng.Uint64() & (1<<34 - 1), Pos: int32(i)}
		}
		work := make([]keyPos, n)
		b.Run("radix1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, base)
				sortx.Sort(work, 1<<34-1, 1)
			}
		})
		b.Run("radix4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, base)
				sortx.Sort(work, 1<<34-1, 4)
			}
		})
	}
}

// BenchmarkSortWideBox sorts uniform rows over Flickr's full dims, a box of
// about 1.1e22 that no single LN key holds, at 2 threads. Each iteration
// sorts a fresh clone of the same rows; the clone is outside the timer.
//
//	go test -run xxx -bench SortWideBox -benchtime 10x ./internal/coo/
func BenchmarkSortWideBox(b *testing.B) {
	dims := []uint64{319686, 28153045, 1607191, 731}
	for _, n := range []int{100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(5))
		base := MustNew(dims, n)
		row := make([]uint32, len(dims))
		for i := 0; i < n; i++ {
			for m, d := range dims {
				row[m] = uint32(rng.Int63n(int64(d)))
			}
			base.Append(row, rng.Float64())
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ten := base.Clone()
				b.StartTimer()
				ten.Sort(2)
			}
		})
	}
}
