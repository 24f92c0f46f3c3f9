package core

import (
	"testing"

	"sparta/internal/obs"
)

// BenchmarkContract pins the cost of the observability layer on the full
// contraction path: "off" is the default nil-Tracer/nil-Metrics
// configuration (the DESIGN.md §8 near-zero-cost claim), the other
// sub-benchmarks turn the layers on. Compare off against a pre-obs build to
// bound the unconfigured overhead.
func BenchmarkContract(b *testing.B) {
	x := randomSparse([]uint64{60, 70, 50}, 8000, 1)
	y := randomSparse([]uint64{70, 50, 65}, 8000, 2)
	run := func(b *testing.B, opt Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, _, err := Contract(x, y, []int{1, 2}, []int{0, 1}, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := Options{Threads: 2}
	b.Run("off", func(b *testing.B) {
		run(b, base)
	})
	b.Run("metrics", func(b *testing.B) {
		opt := base
		opt.Metrics = obs.NewRegistry()
		run(b, opt)
	})
	b.Run("trace+metrics", func(b *testing.B) {
		opt := base
		opt.Tracer = obs.NewTracer()
		opt.Metrics = obs.NewRegistry()
		run(b, opt)
	})
}
