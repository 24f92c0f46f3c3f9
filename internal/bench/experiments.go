package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sparta/internal/blocksparse"
	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/stats"
)

// Fig2 prints the execution-time breakdown of SpTC-SPA (Algorithm 1) per
// stage for the 15 dataset-contraction combinations — the paper's Figure 2
// (index search + accumulation dominate; input/output processing < 1%).
func Fig2(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Figure 2: SpTC-SPA execution-time breakdown (%)")
	tab := stats.NewTable("Workload", "Input", "Search", "Accum", "Write", "Sort", "Total")
	for _, wl := range gen.Fig4Workloads() {
		_, rep, err := c.RunWorkload(wl, core.AlgSPA)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name(), err)
		}
		total := rep.Total()
		pct := func(s core.Stage) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(rep.StageWall[s])/float64(total))
		}
		tab.Row(wl.Name(), pct(core.StageInput), pct(core.StageSearch),
			pct(core.StageAccum), pct(core.StageWrite), pct(core.StageSort), total)
	}
	tab.Render(w)
	return nil
}

// Fig4 prints the speedups of HtY+HtA (Sparta) and COOY+HtA over COOY+SPA —
// the paper's Figure 4 (28–576× for Sparta).
func Fig4(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Figure 4: speedup over COOY+SPA")
	tab := stats.NewTable("Workload", "COOY+SPA", "COOY+HtA", "HtY+HtA", "HtA speedup", "Sparta speedup")
	var spartaSp, htaSp []float64
	for _, wl := range gen.Fig4Workloads() {
		var times [3]time.Duration
		for i, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgSparta} {
			_, rep, err := c.RunWorkload(wl, alg)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", wl.Name(), alg, err)
			}
			times[i] = rep.Total()
		}
		s1 := stats.Speedup(times[0], times[1])
		s2 := stats.Speedup(times[0], times[2])
		htaSp = append(htaSp, s1)
		spartaSp = append(spartaSp, s2)
		tab.Row(wl.Name(), times[0], times[1], times[2],
			fmt.Sprintf("%.1fx", s1), fmt.Sprintf("%.1fx", s2))
	}
	tab.Render(w)
	lo, hi := stats.MinMax(spartaSp)
	fmt.Fprintf(w, "Sparta speedup over SpTC-SPA: %.1fx - %.1fx (geomean %.1fx)\n",
		lo, hi, stats.GeoMean(spartaSp))
	lo, hi = stats.MinMax(htaSp)
	fmt.Fprintf(w, "COOY+HtA speedup over SpTC-SPA: %.1fx - %.1fx (geomean %.1fx)\n",
		lo, hi, stats.GeoMean(htaSp))
	return nil
}

// Headline prints the §5.2 summary: Sparta-vs-SpTC-SPA range over the 15
// combinations plus Sparta's own stage breakdown averages.
func Headline(w io.Writer, c Config) error {
	var sp []float64
	var shares [core.NumStages]float64
	n := 0
	for _, wl := range gen.Fig4Workloads() {
		_, repS, err := c.RunWorkload(wl, core.AlgSPA)
		if err != nil {
			return err
		}
		_, repH, err := c.RunWorkload(wl, core.AlgSparta)
		if err != nil {
			return err
		}
		sp = append(sp, stats.Speedup(repS.Total(), repH.Total()))
		if t := repH.Total(); t > 0 {
			for s := core.Stage(0); s < core.NumStages; s++ {
				shares[s] += 100 * float64(repH.StageWall[s]) / float64(t)
			}
			n++
		}
	}
	lo, hi := stats.MinMax(sp)
	fmt.Fprintf(w, "Headline (paper: 28-576x): Sparta over SpTC-SPA %.0fx - %.0fx, geomean %.0fx across %d combinations\n",
		lo, hi, stats.GeoMean(sp), len(sp))
	fmt.Fprintf(w, "Sparta stage shares (paper: search 4.7%%, accum 61.6%%, write 9.6%%, input 3.3%%, sort 20.8%%):\n")
	for s := core.Stage(0); s < core.NumStages; s++ {
		fmt.Fprintf(w, "  %-17s %.1f%%\n", s.String(), shares[s]/float64(n))
	}
	return nil
}

// Fig5 compares element-wise Sparta against the block-sparse (ITensor-style)
// contraction on the ten Hubbard-2D pairs — the paper's Figure 5 (7.1×
// average speedup for Sparta). X follows c.Scale as in Table4.
func Fig5(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Figure 5: Sparta vs block-sparse (ITensor-style) on Hubbard-2D")
	tab := stats.NewTable("SpTC", "nnzX", "nnzY", "Block time", "Sparta time", "Speedup")
	var sp []float64
	for id := 1; id <= len(gen.HubbardSpecs); id++ {
		bx, by, spec, err := gen.Hubbard(id, c.Scale, c.Seed)
		if err != nil {
			return err
		}
		// Block-sparse side: contraction on dense blocks (conversion not
		// charged: ITensor holds its tensors in block form natively).
		t0 := time.Now()
		_, err = blocksparse.Contract(bx, by, spec.CModesX, spec.CModesY, c.Threads)
		if err != nil {
			return fmt.Errorf("SpTC%d block: %w", id, err)
		}
		blockTime := time.Since(t0)

		// Sparta side: element-wise tensors after the 1e-8 cutoff.
		x := bx.ToCOO(gen.HubbardCutoff)
		y := by.ToCOO(gen.HubbardCutoff)
		_, rep, err := core.Contract(x, y, spec.CModesX, spec.CModesY, core.Options{
			Algorithm: core.AlgSparta,
			Threads:   c.Threads,
			InPlace:   true,
			Tracer:    c.Tracer,
			Metrics:   c.Metrics,
		})
		if err != nil {
			return fmt.Errorf("SpTC%d sparta: %w", id, err)
		}
		s := stats.Speedup(blockTime, rep.Total())
		sp = append(sp, s)
		tab.Row(fmt.Sprintf("SpTC%d", id), x.NNZ(), y.NNZ(), blockTime, rep.Total(),
			fmt.Sprintf("%.1fx", s))
	}
	tab.Render(w)
	fmt.Fprintf(w, "average speedup %.1fx (paper: 7.1x)\n", stats.Mean(sp))
	return nil
}

// Fig6 measures thread scalability on the paper's three scaling workloads.
// On a single-core host the measured curve is flat; the simulated column
// shows the model's linear-region expectation from per-stage CPU time.
func Fig6(w io.Writer, c Config) error {
	fmt.Fprintf(w, "Figure 6: thread scalability (speedup over 1 thread; host has %d core(s) — "+
		"wall-clock speedup saturates there, the CPU-sum column shows how evenly the work split)\n",
		runtime.GOMAXPROCS(0))
	workloads := []gen.Workload{
		{Preset: mustPreset("NIPS"), Modes: 1},
		{Preset: mustPreset("Vast"), Modes: 2},
		{Preset: mustPreset("NIPS"), Modes: 3},
	}
	threadCounts := []int{1, 2, 4, 8, 12}
	tab := stats.NewTable("Workload", "Threads", "Wall", "Speedup", "CPU-sum speedup")
	for _, wl := range workloads {
		var base time.Duration
		for _, th := range threadCounts {
			cfg := c
			cfg.Threads = th
			_, rep, err := cfg.RunWorkload(wl, core.AlgSparta)
			if err != nil {
				return err
			}
			wall := rep.Total()
			if th == 1 {
				base = wall
			}
			// CPU-sum speedup: how well the work parallelized internally,
			// independent of physical core count.
			var cpu, wallSum time.Duration
			for s := core.StageSearch; s <= core.StageWrite; s++ {
				cpu += rep.StageCPU[s]
				wallSum += rep.StageWall[s]
			}
			cpuSp := 1.0
			if wallSum > 0 {
				cpuSp = float64(cpu) / float64(wallSum)
			}
			tab.Row(wl.Name(), th, wall,
				fmt.Sprintf("%.2fx", stats.Speedup(base, wall)),
				fmt.Sprintf("%.2fx", cpuSp))
		}
	}
	tab.Render(w)
	return nil
}

func mustPreset(name string) gen.Preset {
	p, err := gen.FindPreset(name)
	if err != nil {
		panic(err)
	}
	return p
}
