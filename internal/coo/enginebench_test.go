package coo

import (
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
