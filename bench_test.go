// Benchmarks regenerating the paper's evaluation, one family per table and
// figure (DESIGN.md §4 maps each to its experiment). Workload sizes default
// to laptop scale; the sptc-bench command runs the same experiments with a
// -scale flag for larger sweeps.
//
// This is an external test package (sparta_test): internal/bench imports
// the root package for the planner duel, so an in-package test file could
// not import it back without a cycle.
package sparta_test

import (
	"fmt"
	"testing"

	"sparta/internal/bench"
	"sparta/internal/blocksparse"
	"sparta/internal/core"
	"sparta/internal/csf"
	"sparta/internal/gen"
	"sparta/internal/hashtab"
	"sparta/internal/hetmem"
)

// benchConfig is the shared workload scale for benchmarks: small enough
// that the O(nnz_X * nnz_Y) baseline finishes inside -benchtime.
func benchConfig() bench.Config {
	c := bench.Default()
	c.Scale = 2000
	return c
}

// benchWorkloads is the Fig. 2/4 dataset-contraction matrix.
func benchWorkloads() []gen.Workload { return gen.Fig4Workloads() }

func runWorkloadBench(b *testing.B, wl gen.Workload, alg core.Algorithm) {
	b.Helper()
	c := benchConfig()
	x := c.Tensor(wl.Preset) // generate outside the timed region
	cx, cy := wl.ContractModes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, _, err := core.Contract(x, x, cx, cy, core.Options{Algorithm: alg, Threads: c.Threads})
		if err != nil {
			b.Fatal(err)
		}
		if z.NNZ() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig2 times the SpTC-SPA baseline on every workload; its stage
// breakdown is Figure 2.
func BenchmarkFig2(b *testing.B) {
	for _, wl := range benchWorkloads() {
		b.Run(wl.Name(), func(b *testing.B) { runWorkloadBench(b, wl, core.AlgSPA) })
	}
}

// BenchmarkFig4 times all three algorithms per workload; the ratios are
// Figure 4's speedups.
func BenchmarkFig4(b *testing.B) {
	for _, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgSparta} {
		for _, wl := range benchWorkloads() {
			b.Run(fmt.Sprintf("%v/%s", alg, wl.Name()), func(b *testing.B) {
				runWorkloadBench(b, wl, alg)
			})
		}
	}
}

// BenchmarkFig5 times the block-sparse (ITensor-style) contraction against
// element-wise Sparta on the Table 4 Hubbard pairs (a representative
// subset; sptc-bench -exp fig5 runs all ten).
func BenchmarkFig5(b *testing.B) {
	for _, id := range []int{1, 4, 10} {
		bx, by, spec, err := gen.Hubbard(id, 0, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("SpTC%d/Block", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blocksparse.Contract(bx, by, spec.CModesX, spec.CModesY, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		x := bx.ToCOO(gen.HubbardCutoff)
		y := by.ToCOO(gen.HubbardCutoff)
		b.Run(fmt.Sprintf("SpTC%d/Sparta", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Contract(x, y, spec.CModesX, spec.CModesY,
					core.Options{Algorithm: core.AlgSparta}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 sweeps the thread count on the paper's scaling workloads.
func BenchmarkFig6(b *testing.B) {
	workloads := []gen.Workload{
		{Preset: mustPreset(b, "NIPS"), Modes: 1},
		{Preset: mustPreset(b, "Vast"), Modes: 2},
		{Preset: mustPreset(b, "NIPS"), Modes: 3},
	}
	for _, wl := range workloads {
		for _, threads := range []int{1, 2, 4, 8, 12} {
			b.Run(fmt.Sprintf("%s/threads=%d", wl.Name(), threads), func(b *testing.B) {
				c := benchConfig()
				x := c.Tensor(wl.Preset)
				cx, cy := wl.ContractModes()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Contract(x, x, cx, cy, core.Options{
						Algorithm: core.AlgSparta, Threads: threads,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fig7Profile builds one memory profile for the placement benchmarks.
func fig7Profile(b *testing.B) *hetmem.Profile {
	b.Helper()
	c := benchConfig()
	wl := gen.Workload{Preset: mustPreset(b, "Nell-2"), Modes: 2}
	x := c.Tensor(wl.Preset)
	z, rep, err := c.RunWorkload(wl, core.AlgSparta)
	if err != nil {
		b.Fatal(err)
	}
	return hetmem.FromReport(rep, x.Order(), x.Order(), z.Order())
}

// BenchmarkFig3 evaluates the one-object-in-PMM characterization and
// reports the simulated slowdowns as metrics.
func BenchmarkFig3(b *testing.B) {
	pf := fig7Profile(b)
	base := pf.Time(hetmem.AllDRAM())
	for i := 0; i < b.N; i++ {
		for o := hetmem.Object(0); o < hetmem.NumObjects; o++ {
			f := hetmem.AllDRAM()
			f[o] = 0
			_ = pf.Time(f)
		}
	}
	for o := hetmem.Object(0); o < hetmem.NumObjects; o++ {
		f := hetmem.AllDRAM()
		f[o] = 0
		loss := 100 * (float64(pf.Time(f))/float64(base) - 1)
		b.ReportMetric(loss, o.String()+"-loss-%")
	}
}

// BenchmarkFig7 evaluates every placement policy on the recorded profile
// and reports the simulated speedups over Optane-only.
func BenchmarkFig7(b *testing.B) {
	pf := fig7Profile(b)
	dram := pf.PeakBytes() / 4
	opt := (hetmem.OptaneOnly{}).Evaluate(pf, dram).Total
	for _, pol := range hetmem.AllPolicies() {
		b.Run(pol.Name(), func(b *testing.B) {
			var r hetmem.Result
			for i := 0; i < b.N; i++ {
				r = pol.Evaluate(pf, dram)
			}
			b.ReportMetric(float64(opt)/float64(r.Total), "speedup-vs-optane")
		})
	}
}

// BenchmarkFig8 builds the bandwidth trace.
func BenchmarkFig8(b *testing.B) {
	pf := fig7Profile(b)
	r := (hetmem.SpartaStatic{}).Evaluate(pf, pf.PeakBytes()/4)
	for i := 0; i < b.N; i++ {
		if pts := hetmem.BandwidthTrace(r, 100); len(pts) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFig9 reports peak memory for a representative workload as a
// metric (bytes).
func BenchmarkFig9(b *testing.B) {
	pf := fig7Profile(b)
	var peak uint64
	for i := 0; i < b.N; i++ {
		peak = pf.PeakBytes()
	}
	b.ReportMetric(float64(peak), "peak-bytes")
}

// BenchmarkAblation_YBuild compares the two Y input-processing strategies:
// permute+sort (COO) vs the O(nnz) hash-table conversion (§3.3).
func BenchmarkAblation_YBuild(b *testing.B) {
	c := benchConfig()
	p := mustPreset(b, "NIPS")
	y := c.Tensor(p)
	wl := gen.Workload{Preset: p, Modes: 2}
	_, cy := wl.ContractModes()
	var fmodes []int
	in := map[int]bool{}
	for _, m := range cy {
		in[m] = true
	}
	for m := 0; m < y.Order(); m++ {
		if !in[m] {
			fmodes = append(fmodes, m)
		}
	}
	radC, err := y.RadixOf(cy)
	if err != nil {
		b.Fatal(err)
	}
	radF, err := y.RadixOf(fmodes)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("permute+sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ys := y.Clone()
			perm := append(append([]int{}, cy...), fmodes...)
			if err := ys.Permute(perm); err != nil {
				b.Fatal(err)
			}
			ys.Sort(0)
		}
	})
	b.Run("hashtable-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hashtab.BuildHtYFlat(y, cy, fmodes, radC, radF, 0, 0)
		}
	})
}

// BenchmarkAblation_IndexSearch compares the Y index-search structures of
// §3.2/§3.3 on the same query stream: COO linear scan, CSF per-level binary
// search, and the HtY hash probe.
func BenchmarkAblation_IndexSearch(b *testing.B) {
	c := benchConfig()
	p := mustPreset(b, "NIPS")
	y := c.Tensor(p)
	wl := gen.Workload{Preset: p, Modes: 2}
	cx, cy := wl.ContractModes()
	var fmodes []int
	in := map[int]bool{}
	for _, m := range cy {
		in[m] = true
	}
	for m := 0; m < y.Order(); m++ {
		if !in[m] {
			fmodes = append(fmodes, m)
		}
	}
	ys := y.Clone()
	perm := append(append([]int{}, cy...), fmodes...)
	if err := ys.Permute(perm); err != nil {
		b.Fatal(err)
	}
	ys.Sort(0)
	ys.Dedup()
	ptrCY, err := ys.SubPtr(len(cy))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := csf.FromCOO(ys)
	if err != nil {
		b.Fatal(err)
	}
	radC, _ := y.RadixOf(cy)
	radF, _ := y.RadixOf(fmodes)
	hty := hashtab.BuildHtYFlat(y, cy, fmodes, radC, radF, 0, 0)

	xs := c.Tensor(p).Clone()
	if err := xs.Permute(append(append([]int{}, fmodes...), cx...)); err != nil {
		b.Fatal(err)
	}
	xs.Sort(0)
	nfx := xs.Order() - len(cx)
	cCols := xs.Inds[nfx:]
	nq := xs.NNZ()
	ncm := len(cy)

	cmpAt := func(pos, i int) int {
		for m := 0; m < ncm; m++ {
			a, bb := ys.Inds[m][pos], cCols[m][i]
			if a != bb {
				if a < bb {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	b.Run("COO-linear", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			hits := 0
			for i := 0; i < nq; i++ {
				for r := 0; r+1 < len(ptrCY); r++ {
					cv := cmpAt(ptrCY[r], i)
					if cv == 0 {
						hits++
						break
					}
					if cv > 0 {
						break
					}
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
	prefix := make([]uint32, ncm)
	b.Run("CSF", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			hits := 0
			for i := 0; i < nq; i++ {
				for m := 0; m < ncm; m++ {
					prefix[m] = cCols[m][i]
				}
				if _, _, _, ok := cs.LookupPrefix(prefix); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("HtY", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			hits := 0
			for i := 0; i < nq; i++ {
				if items, _ := hty.Lookup(radC.EncodeStrided(cCols, i)); items != nil {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

func mustPreset(b *testing.B, name string) gen.Preset {
	b.Helper()
	p, err := gen.FindPreset(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}
