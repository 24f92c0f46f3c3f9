package bench

import (
	"fmt"
	"io"

	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/hetmem"
	"sparta/internal/stats"
)

// profileWorkload runs Sparta on a workload and derives its memory profile.
func (c Config) profileWorkload(wl gen.Workload) (*hetmem.Profile, error) {
	x := c.Tensor(wl.Preset)
	z, rep, err := c.RunWorkload(wl, core.AlgSparta)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name(), err)
	}
	return hetmem.FromReport(rep, x.Order(), x.Order(), z.Order()), nil
}

// Table2 prints the access-pattern classification of the six data objects
// across the five stages — the paper's Table 2.
func Table2(w io.Writer, c Config) error {
	wl := gen.Workload{Preset: mustPreset("Nell-2"), Modes: 2}
	pf, err := c.profileWorkload(wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: memory access patterns (%s)\n", wl.Name())
	grid := hetmem.Table2(pf)
	tab := stats.NewTable("Stage", "X", "Y", "HtY", "HtA", "Z_local", "Z")
	for s := core.Stage(0); s < core.NumStages; s++ {
		tab.Row(s.String(), grid[s][hetmem.ObjX], grid[s][hetmem.ObjY], grid[s][hetmem.ObjHtY],
			grid[s][hetmem.ObjHtA], grid[s][hetmem.ObjZLocal], grid[s][hetmem.ObjZ])
	}
	tab.Render(w)
	return nil
}

// Fig3 prints the placement characterization: simulated execution time with
// every object in DRAM versus one object at a time in PMM — the paper's
// Figure 3 (HtY hurts most, X and Y barely matter).
func Fig3(w io.Writer, c Config) error {
	wl := gen.Workload{Preset: mustPreset("Nell-2"), Modes: 2}
	pf, err := c.profileWorkload(wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3: simulated time with one object in PMM (%s)\n", wl.Name())
	tab := stats.NewTable("Placement", "Simulated time", "Loss vs all-DRAM")
	base := pf.Time(hetmem.AllDRAM())
	tab.Row("All in DRAM", base, "-")
	for o := hetmem.Object(0); o < hetmem.NumObjects; o++ {
		f := hetmem.AllDRAM()
		f[o] = 0
		t := pf.Time(f)
		tab.Row(o.String()+" in PMM", t, fmt.Sprintf("%.1f%%", 100*(float64(t)/float64(base)-1)))
	}
	tab.Render(w)
	return nil
}

// Fig7 prints the policy comparison: speedup of Sparta's static placement,
// IAL, Memory mode, and DRAM-only over Optane-only — the paper's Figure 7.
func Fig7(w io.Writer, c Config) error {
	fmt.Fprintf(w, "Figure 7: speedup over Optane-only (simulated, DRAM budget = %.0f%% of peak)\n",
		100*c.DRAMFraction)
	tab := stats.NewTable("Workload", "Sparta", "IAL", "Memory mode", "DRAM-only")
	agg := map[string][]float64{}
	for _, wl := range gen.Fig7Workloads() {
		pf, err := c.profileWorkload(wl)
		if err != nil {
			return err
		}
		dram := uint64(float64(pf.PeakBytes()) * c.DRAMFraction)
		opt := (hetmem.OptaneOnly{}).Evaluate(pf, dram).Total
		row := []interface{}{wl.Name()}
		for _, pol := range []hetmem.Policy{hetmem.SpartaStatic{}, hetmem.IAL{}, hetmem.MemoryMode{}, hetmem.DRAMOnly{}} {
			r := pol.Evaluate(pf, dram)
			s := stats.Speedup(opt, r.Total)
			agg[pol.Name()] = append(agg[pol.Name()], s)
			row = append(row, fmt.Sprintf("%.2f", s))
		}
		tab.Row(row...)
	}
	tab.Render(w)
	for _, name := range []string{"Sparta", "IAL", "Memory mode", "DRAM-only"} {
		lo, hi := stats.MinMax(agg[name])
		fmt.Fprintf(w, "%-12s mean %.2f  min %.2f  max %.2f\n", name, stats.Mean(agg[name]), lo, hi)
	}
	fmt.Fprintln(w, "(paper: Sparta beats IAL by 30.7% avg, Memory mode by 10.7%, Optane-only by 17%; within 6% of DRAM-only)")
	return nil
}

// Fig8 prints the DRAM and PMM bandwidth timelines of the four policies on
// Vast with a 1-mode contraction — the paper's Figure 8.
func Fig8(w io.Writer, c Config) error {
	wl := gen.Workload{Preset: mustPreset("Vast"), Modes: 1, Star: true}
	pf, err := c.profileWorkload(wl)
	if err != nil {
		return err
	}
	dram := uint64(float64(pf.PeakBytes()) * c.DRAMFraction)
	fmt.Fprintf(w, "Figure 8: bandwidth timelines (%s, GB/s, 20 samples per policy)\n", wl.Name())
	for _, pol := range []hetmem.Policy{hetmem.SpartaStatic{}, hetmem.IAL{}, hetmem.MemoryMode{}, hetmem.OptaneOnly{}} {
		r := pol.Evaluate(pf, dram)
		pts := hetmem.BandwidthTrace(r, 20)
		hetmem.EmitTraceEvents(c.Tracer, r.Policy, pts)
		fmt.Fprintf(w, "%s (total %v):\n  t(ms):", r.Policy, r.Total)
		for _, p := range pts {
			fmt.Fprintf(w, " %7.2f", float64(p.At)/1e6)
		}
		fmt.Fprint(w, "\n  DRAM: ")
		for _, p := range pts {
			fmt.Fprintf(w, " %7.2f", p.DRAM)
		}
		fmt.Fprint(w, "\n  PMM:  ")
		for _, p := range pts {
			fmt.Fprintf(w, " %7.2f", p.PMM)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig9 prints the peak memory consumption of the Fig. 7 workloads — the
// paper's Figure 9.
func Fig9(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Figure 9: peak memory consumption")
	tab := stats.NewTable("Workload", "X", "Y/HtY", "HtA", "Z_local", "Z", "Peak")
	for _, wl := range gen.Fig7Workloads() {
		pf, err := c.profileWorkload(wl)
		if err != nil {
			return err
		}
		tab.Row(wl.Name(),
			stats.FormatBytes(pf.Sizes[hetmem.ObjX]),
			stats.FormatBytes(pf.Sizes[hetmem.ObjY]+pf.Sizes[hetmem.ObjHtY]),
			stats.FormatBytes(pf.Sizes[hetmem.ObjHtA]),
			stats.FormatBytes(pf.Sizes[hetmem.ObjZLocal]),
			stats.FormatBytes(pf.Sizes[hetmem.ObjZ]),
			stats.FormatBytes(pf.PeakBytes()))
	}
	tab.Render(w)
	return nil
}

// Table4 prints the generated Hubbard-2D tensor characteristics against the
// paper's Table 4 targets. X follows c.Scale (gen.Hubbard); -scale 396193 or
// more generates every pair at the paper's size.
func Table4(w io.Writer, c Config) error {
	fmt.Fprintf(w, "Table 4: Hubbard-2D tensors (generated at scale %d vs paper target)\n", c.Scale)
	tab := stats.NewTable("SpTC", "X dims", "X nnz (target)", "X blocks", "Y nnz (target)", "Y blocks")
	for id := 1; id <= len(gen.HubbardSpecs); id++ {
		bx, by, spec, err := gen.Hubbard(id, c.Scale, c.Seed)
		if err != nil {
			return err
		}
		tab.Row(fmt.Sprintf("SpTC%d", id),
			fmt.Sprintf("%v", spec.XDims),
			fmt.Sprintf("%d (%d)", bx.NNZ(gen.HubbardCutoff), spec.XNNZ),
			bx.NumBlocks(),
			fmt.Sprintf("%d (%d)", by.NNZ(gen.HubbardCutoff), spec.YNNZ),
			by.NumBlocks())
	}
	tab.Render(w)
	return nil
}
