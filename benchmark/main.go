// Command benchmark is the repository's performance benchmark: four
// workloads, each dominated by a different stage of the contraction pipeline,
// measured end to end in fresh child processes and, with -trace 1, layer by
// layer from outside. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	bash benchmark/run.sh -workload cold_build -seed 42 -seconds 20 -trace 0
//	bash benchmark/run.sh                      # all workloads, rounds rotated
//	bash benchmark/run.sh -agree a.json b.json # do two result sets agree?
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	rounds   int
	outDir   string
	scale    float64
	traceOps int
	warmups  int
}

func main() {
	started := time.Now()
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 42, "input seed; every tensor depends on it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload, split evenly over the rounds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.IntVar(&cfg.rounds, "rounds", 5, "fresh child processes per workload (at least 5 for a reportable run)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for results.json, trace.json and scratch files")
	smoke := flag.Bool("smoke", false, "tiny tensors, 1 round of 0.5 s: checks the harness, measures nothing")
	child := flag.String("child", "", "internal: run one child from this spec file")
	calibrator := flag.Bool("calibrate", false, "internal: run as a calibration helper")
	agree := flag.Bool("agree", false, "compare two result sets: -agree a.json[,a2.json...] b.json[,b2.json...]")
	flag.Parse()
	cfg.scale, cfg.traceOps, cfg.warmups = 1, 20, 3
	if *smoke {
		cfg.scale, cfg.traceOps, cfg.rounds, cfg.seconds = 0.1, 3, 1, 0.5
	}

	var err error
	switch {
	case *child != "":
		err = childMain(*child, started)
	case *calibrator:
		err = calibratorMain()
	case *agree:
		err = agreeMain(flag.Args())
	default:
		err = parentMain(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one run learned about one workload.
type workloadResult struct {
	Why          string                 `json:"why"`
	Inputs       *manifest              `json:"inputs"`
	Metrics      map[string]metricValue `json:"metrics"`
	Layers       map[string]metricValue `json:"layers,omitempty"`
	Rounds       []roundStats           `json:"rounds"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FailRatio    float64                `json:"fail_ratio"`
	MinWindowOps int                    `json:"min_window_ops"`
	// ShortWindow marks a window with fewer ops than a median needs.
	ShortWindow bool    `json:"short_window"`
	RoundSpread float64 `json:"round_spread"`
	// Disturbed marks a run whose rounds disagree by more than
	// disturbedSpread; its numbers are still reported.
	Disturbed bool `json:"disturbed"`
}

// results is results.json.
type results struct {
	Provenance provenance                 `json:"provenance"`
	Seed       int64                      `json:"seed"`
	Rounds     int                        `json:"rounds"`
	WindowS    float64                    `json:"window_s"`
	Scale      float64                    `json:"scale"`
	Traced     bool                       `json:"traced"`
	EndToEnd   []e2eMetric                `json:"end_to_end"`
	PerLayer   []layerMetric              `json:"per_layer"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// speed is a window's machine-speed factor: 1 when the calibration kernel
// ran at its reference time, below 1 when the machine was slowed from
// outside.
func (r roundStats) speed() float64 { return calRefMs / r.CalMsP50 }

// roundValue extracts the per-round statistic behind each end-to-end metric,
// with times and rates scaled to the reference machine speed.
var roundValue = map[string]func(roundStats) float64{
	"op_ms_p50":        func(r roundStats) float64 { return r.OpMsP50 * r.speed() },
	"throughput_ops_s": func(r roundStats) float64 { return r.ThroughputOpsS / r.speed() },
	"alloc_mb_per_op":  func(r roundStats) float64 { return r.AllocMBPerOp },
	"peak_rss_mb":      func(r roundStats) float64 { return r.PeakRSSMB },
	"setup_s":          func(r roundStats) float64 { return r.SetupS * r.speed() },
}

func overRounds(rs []roundStats, f func(roundStats) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// dieWithParent makes the kernel kill a spawned process when the process that
// spawned it dies, so no exit path of parent or child leaves a server behind.
var dieWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// childEnv is the environment children run in: the caller's, without the
// variables that change the Go runtime's GC or scheduling, and with
// GOMAXPROCS pinned to min(nproc, 4).
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch name {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
		default:
			env = append(env, kv)
		}
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", min(runtime.NumCPU(), 4)))
}

// runChild runs this binary as a child on spec and decodes the one JSON line
// it prints into out.
func runChild(ctx context.Context, spec childSpec, out any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	specPath := filepath.Join(spec.WorkDir, "child-spec.json")
	if err := os.WriteFile(specPath, buf, 0o644); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "-child", specPath)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child for %s: %w", spec.Mode, spec.Manifest.Workload, err)
	}
	return json.Unmarshal(stdout, out)
}

func parentMain(cfg config) error {
	var ws []workload
	if cfg.workload == "all" {
		ws = workloads
	} else if w, ok := findWorkload(cfg.workload); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.rounds < 1 || cfg.seconds <= 0 {
		return errors.New("-rounds and -seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	serveBin := filepath.Join(filepath.Dir(self), "sptc-serve")
	if _, err := os.Stat(serveBin); err != nil {
		return fmt.Errorf("sptc-serve must sit next to the benchmark binary (run.sh builds both): %w", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	if workDir, err = filepath.Abs(workDir); err != nil {
		return err
	}

	traced := cfg.trace == 1
	res := &results{
		Provenance: readProvenance(),
		Seed:       cfg.seed, Rounds: cfg.rounds, WindowS: cfg.seconds / float64(cfg.rounds),
		Scale: cfg.scale, Traced: traced,
		EndToEnd: e2eMetrics, PerLayer: layerMetrics,
		Workloads: map[string]*workloadResult{},
	}
	specs := map[string]childSpec{}
	for _, w := range ws {
		m, err := generate(w, cfg.seed, cfg.scale, filepath.Join(workDir, w.Name))
		if err != nil {
			return err
		}
		res.Workloads[w.Name] = &workloadResult{Why: w.Why, Inputs: m}
		specs[w.Name] = childSpec{
			Manifest: *m, Serve: w.Serve, ServeBin: serveBin, WorkDir: workDir,
			WindowS: res.WindowS, Warmups: cfg.warmups, TraceOps: cfg.traceOps,
		}
	}

	// Rounds rotate the workload order (A B C D, B C D A, …) so that a
	// disturbed minute cannot land on one workload only.
	for r := 0; r < cfg.rounds; r++ {
		for k := range ws {
			w := ws[(r+k)%len(ws)]
			spec := specs[w.Name]
			spec.Mode = "window"
			var st roundStats
			if err := runChild(ctx, spec, &st); err != nil {
				return err
			}
			wr := res.Workloads[w.Name]
			wr.Rounds = append(wr.Rounds, st)
			fmt.Printf("round %d %-12s %4d ops  p50 %8.3f ms  %7.2f ops/s  machine speed %.2fx  alloc %8.3f MB/op  rss %7.1f MB  setup %.3f s  failed %d\n",
				r+1, w.Name, st.Ops, st.OpMsP50, st.ThroughputOpsS, st.speed(), st.AllocMBPerOp, st.PeakRSSMB, st.SetupS, st.Failed)
			if st.FirstError != "" {
				fmt.Printf("  first failure: %s\n", st.FirstError)
			}
		}
	}

	var trace []chromeEvent
	for i, w := range ws {
		wr := res.Workloads[w.Name]
		summarise(wr)
		if !traced {
			continue
		}
		spec := specs[w.Name]
		spec.Mode = "trace"
		var tr traceResult
		if err := runChild(ctx, spec, &tr); err != nil {
			return err
		}
		wr.Attempted += 2 * cfg.traceOps // the traced one-shot ops and the traced requests, all checked
		addLayers(wr, &tr)
		trace = append(trace, chromeEvents(w.Name, i+1, tr.Spans)...)
	}

	report(res, ws)
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), res); err != nil {
		return err
	}
	if traced {
		if err := writeChromeTrace(filepath.Join(cfg.outDir, "trace.json"), trace); err != nil {
			return err
		}
	}
	return printResultLine(res, ws, traced)
}

func rawP50(r roundStats) float64 { return r.OpMsP50 }

// summarise folds a workload's rounds into its end-to-end metrics: the middle
// round. Times are already scaled by the window's machine-speed factor, whose
// own error is two-sided, so no round is privileged.
func summarise(wr *workloadResult) {
	wr.Metrics = map[string]metricValue{}
	for _, m := range e2eMetrics {
		wr.Metrics[m.Name] = metricValue{median(overRounds(wr.Rounds, roundValue[m.Name])), m.Unit}
	}
	wr.MinWindowOps = wr.Rounds[0].Ops
	for _, r := range wr.Rounds {
		wr.Attempted += r.Ops
		wr.Failed += r.Failed
		wr.MinWindowOps = min(wr.MinWindowOps, r.Ops)
	}
	wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	wr.ShortWindow = wr.MinWindowOps < minWindowOps
	wr.RoundSpread = roundSpread(overRounds(wr.Rounds, rawP50))
	wr.Disturbed = wr.RoundSpread > disturbedSpread
}

// addLayers completes the per-layer metrics: the traced child's own, plus
// the ones that come from the untraced rounds.
func addLayers(wr *workloadResult, tr *traceResult) {
	vals := tr.Layers
	mid := func(f func(roundStats) float64) float64 { return median(overRounds(wr.Rounds, f)) }
	vals["parallel.cpu_ms_per_op"] = mid(func(r roundStats) float64 { return r.CPUMsPerOp })
	vals["gc.cycles_per_op"] = mid(func(r roundStats) float64 { return r.GCCyclesPerOp })
	vals["gc.pause_ms_per_op"] = mid(func(r roundStats) float64 { return r.GCPauseMsPerOp })
	vals["alloc.objects_per_op"] = mid(func(r roundStats) float64 { return r.ObjectsPerOp })
	vals["machine.speed_x"] = mid(roundStats.speed)
	// Unscaled times are only ever slowed by contention from outside, so
	// for them the undisturbed round is the best one.
	vals["raw.op_ms_p50"] = minOf(overRounds(wr.Rounds, rawP50))
	vals["raw.throughput_ops_s"] = maxOf(overRounds(wr.Rounds, func(r roundStats) float64 { return r.ThroughputOpsS }))
	vals["tail.op_ms_p90"] = mid(func(r roundStats) float64 { return r.OpMsP90 })
	vals["tail.op_ms_max"] = mid(func(r roundStats) float64 { return r.OpMsMax })
	vals["noise.round_spread"] = wr.RoundSpread
	vals["trace.overhead_frac"] = tr.TracedOpP50/mid(rawP50) - 1
	wr.Layers = map[string]metricValue{}
	for _, m := range layerMetrics {
		wr.Layers[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
}

// report prints every metric by name with its unit.
func report(res *results, ws []workload) {
	fmt.Printf("\nseed %d, %d rounds of %.2f s, GOMAXPROCS %d, loadavg before start %.2f\n",
		res.Seed, res.Rounds, res.WindowS, res.Workloads[ws[0].Name].Rounds[0].GOMAXPROCS, res.Provenance.Loadavg1)
	for _, w := range ws {
		wr := res.Workloads[w.Name]
		fmt.Printf("\n%s: %d ops attempted, %d failed (fail_ratio %g), smallest window %d ops, round spread %.1f%%",
			w.Name, wr.Attempted, wr.Failed, wr.FailRatio, wr.MinWindowOps, 100*wr.RoundSpread)
		if wr.ShortWindow {
			fmt.Printf(" [SHORT WINDOW: fewer than %d ops]", minWindowOps)
		}
		if wr.Disturbed {
			fmt.Print(" [DISTURBED]")
		}
		fmt.Println()
		for _, m := range e2eMetrics {
			fmt.Printf("  %-28s %14.4f %-8s (median over rounds)\n", m.Name, wr.Metrics[m.Name].Value, m.Unit)
		}
		for _, m := range layerMetrics {
			if v, ok := wr.Layers[m.Name]; ok {
				fmt.Printf("  %-28s %14.4f %s\n", m.Name, v.Value, m.Unit)
			}
		}
	}
	fmt.Println()
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResultLine prints the run's verdict as the last line of standard
// output: the end-to-end metrics, or with tracing the per-layer ones. With
// several workloads the metric names carry the workload as a prefix.
func printResultLine(res *results, ws []workload, traced bool) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, w := range ws {
		wr := res.Workloads[w.Name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		ms := wr.Metrics
		if traced {
			ms = wr.Layers
		}
		for name, v := range ms {
			if len(ws) > 1 {
				name = w.Name + "." + name
			}
			line.Metrics[name] = v
		}
	}
	line.Correct = line.Failed == 0
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// provenance records where and on what a run was made.
type provenance struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"nproc"`
	Kernel    string  `json:"kernel"`
	Loadavg1  float64 `json:"loadavg_1min_before_start"`
	Started   string  `json:"started"`
}

func readProvenance() provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	// A checkout that is not a git repository simply has no commit.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(buf))
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		_, _ = fmt.Sscan(string(buf), &p.Loadavg1) // stays 0 when unreadable
	}
	return p
}

// agreeMain compares two sets of results.json files. Each side is reduced to
// the median over its files, and every (workload, end-to-end metric) pair of
// the two sides must differ by no more than the metric's bound.
func agreeMain(args []string) error {
	if len(args) != 2 {
		return errors.New("-agree takes two arguments, each a comma-separated list of results.json files")
	}
	var sides [2]map[string]map[string][]float64 // workload → metric → one value per file
	for i, arg := range args {
		sides[i] = map[string]map[string][]float64{}
		for _, path := range strings.Split(arg, ",") {
			buf, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var res results
			if err := json.Unmarshal(buf, &res); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for name, wr := range res.Workloads {
				if sides[i][name] == nil {
					sides[i][name] = map[string][]float64{}
				}
				for metric, v := range wr.Metrics {
					sides[i][name][metric] = append(sides[i][name][metric], v.Value)
				}
			}
		}
	}
	var names []string
	for name := range sides[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, name := range names {
		for _, m := range e2eMetrics {
			a, b := median(sides[0][name][m.Name]), median(sides[1][name][m.Name])
			if len(sides[1][name][m.Name]) == 0 {
				return fmt.Errorf("%s %s is missing from the second set", name, m.Name)
			}
			diff := relDiff(a, b)
			verdict := "PASS"
			if diff > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs disagree by more than their bound", failed)
	}
	return nil
}

// relDiff is |b − a| as a share of a, the side that plays the parent.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}
