// Command sptc-bench regenerates the paper's evaluation tables and figures.
//
//	sptc-bench -exp fig4                # one experiment
//	sptc-bench -exp all                 # the whole evaluation
//	sptc-bench -exp fig4 -scale 20000   # larger synthetic datasets
//
// Experiments: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 table2 table3 table4
// headline scaling ablation search duel twophase all. See DESIGN.md §4 for
// the experiment index and EXPERIMENTS.md for paper-vs-measured results.
//
// Observability (DESIGN.md §8):
//
//	sptc-bench -exp duel -trace out.json          # Chrome trace-event spans
//	sptc-bench -exp all -metrics-addr :9090       # /metrics + pprof + expvar
//	sptc-bench -exp fig4 -metrics-addr :9090 -hold 60s
//
// -trace writes every contraction's stage and per-worker chunk spans (plus
// fig8's bandwidth counter tracks) as Chrome trace-event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. -metrics-addr
// serves the obs registry in Prometheus text format at /metrics alongside
// net/http/pprof and expvar under /debug/; -hold keeps the process (and the
// endpoint) alive after the experiments finish so the run can be scraped.
// With either flag set, probe-length and stage-time histogram summaries are
// printed after the experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sparta"
	"sparta/internal/bench"
	"sparta/internal/obs"
	"sparta/internal/stats"
)

var experiments = []struct {
	name string
	desc string
	run  func(io.Writer, bench.Config) error
}{
	{"table3", "dataset characteristics (generator presets)", runTable3},
	{"fig2", "SpTC-SPA stage breakdown", bench.Fig2},
	{"table2", "access patterns per stage and object", bench.Table2},
	{"fig3", "one-object-in-PMM characterization", bench.Fig3},
	{"fig4", "algorithm speedups (HtY+HtA, COOY+HtA vs COOY+SPA)", bench.Fig4},
	{"headline", "28-576x summary and Sparta stage shares", bench.Headline},
	{"table4", "Hubbard-2D tensor characteristics", bench.Table4},
	{"fig5", "Sparta vs block-sparse (ITensor-style)", bench.Fig5},
	{"fig6", "thread scalability", bench.Fig6},
	{"fig7", "heterogeneous-memory policy comparison", bench.Fig7},
	{"fig8", "bandwidth timelines", bench.Fig8},
	{"fig9", "peak memory consumption", bench.Fig9},
	{"scaling", "speedup growth with dataset size", bench.Scaling},
	{"ablation", "design-choice ablations", bench.Ablation},
	{"search", "Y index-search structure comparison (COO/CSF/HtY)", bench.SearchAblation},
	{"duel", "stage-by-stage algorithm comparison on one workload", bench.Duel},
	{"twophase", "symbolic+numeric two-phase SpTC vs Sparta's dynamic allocation", bench.TwoPhase},
}

func main() {
	var (
		exp         = flag.String("exp", "", "experiment to run (or 'all'); empty lists them")
		scale       = flag.Int("scale", 4000, "target non-zeros per generated dataset")
		threads     = flag.Int("t", 0, "worker threads (0 = all cores)")
		seed        = flag.Int64("seed", 42, "generator seed")
		dramFrac    = flag.Float64("dram", 0.6, "simulated DRAM budget as fraction of peak memory")
		tracePath   = flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/pprof, /debug/vars on this address")
		hold        = flag.Duration("hold", 0, "keep serving -metrics-addr this long after the experiments finish")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Threads: *threads, Seed: *seed, DRAMFraction: *dramFrac}
	if *tracePath != "" {
		cfg.Tracer = obs.NewTracer()
	}
	if *metricsAddr != "" || *tracePath != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		var err error
		if srv, err = obs.StartServer(*metricsAddr, cfg.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "sptc-bench: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr())
	}

	if *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-9s %s\n", e.name, e.desc)
		}
		fmt.Println("  all       run everything")
		return
	}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	for i, name := range names {
		found := false
		for _, e := range experiments {
			if e.name == name {
				found = true
				if i > 0 {
					fmt.Println()
				}
				sp := cfg.Tracer.Start("exp "+name, 0)
				err := e.run(os.Stdout, cfg)
				sp.End()
				if err != nil {
					fmt.Fprintf(os.Stderr, "sptc-bench: %s: %v\n", name, err)
					os.Exit(1)
				}
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "sptc-bench: unknown experiment %q (run without -exp to list)\n", name)
			os.Exit(1)
		}
	}

	if *tracePath != "" {
		if err := cfg.Tracer.WriteFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "sptc-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s (load in https://ui.perfetto.dev)\n",
			cfg.Tracer.Len(), *tracePath)
	}
	printHistograms(os.Stdout, cfg.Metrics)
	if srv != nil && *hold > 0 {
		fmt.Printf("holding the metrics endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	if srv != nil {
		_ = srv.Close()
	}
}

// printHistograms renders every populated registry histogram as a summary
// table — the terminal rendering of what /metrics exposes for scraping.
func printHistograms(w io.Writer, reg *obs.Registry) {
	first := true
	for _, s := range reg.Snapshot() {
		if s.Type != "histogram" || s.Count == 0 {
			continue
		}
		if first {
			fmt.Fprintln(w, "\nObserved distributions:")
			first = false
		}
		fmt.Fprintln(w)
		stats.RenderHistogram(w, s.Name+s.Labels, s.Bounds, s.Counts)
	}
}

func runTable3(w io.Writer, cfg bench.Config) error {
	fmt.Fprintln(w, "Table 3: dataset characteristics (paper scale -> generated scale)")
	tab := stats.NewTable("Tensor", "Order", "Paper dims", "Paper nnz", "Density", "Generated", "Gen nnz")
	for _, p := range sparta.Presets {
		t := cfg.Tensor(p)
		tab.Row(p.Name, len(p.Dims), dimsString(p.Dims), p.NNZ,
			fmt.Sprintf("%.1e", p.Density), dimsString(t.Dims), t.NNZ())
	}
	tab.Render(w)
	return nil
}

func dimsString(dims []uint64) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "x")
}
