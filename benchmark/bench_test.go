package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestRoundsToMetrics(t *testing.T) {
	// The slow round's calibration ran 1.5x slower, so its scaled times are
	// those of the quiet rounds: the fold sees 50, 48 and 75/1.5 = 50.
	rounds := []roundStats{
		{OpMsP50: 50, ThroughputOpsS: 20, AllocMBPerOp: 66.1, PeakRSSMB: 120, SetupS: 0.30, CalMsP50: calRefMs, Ops: 55},
		{OpMsP50: 48, ThroughputOpsS: 21, AllocMBPerOp: 66.0, PeakRSSMB: 118, SetupS: 0.25, CalMsP50: calRefMs, Ops: 60},
		{OpMsP50: 75, ThroughputOpsS: 13, AllocMBPerOp: 66.2, PeakRSSMB: 131, SetupS: 0.42, CalMsP50: 1.5 * calRefMs, Ops: 39, Failed: 1},
	}
	wr := &workloadResult{Rounds: rounds}
	summarise(wr)
	want := map[string]float64{
		"op_ms_p50": 50, "throughput_ops_s": 20, "alloc_mb_per_op": 66.1, "peak_rss_mb": 120, "setup_s": 0.28,
	}
	for name, w := range want {
		if got := wr.Metrics[name].Value; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if wr.Attempted != 154 || wr.Failed != 1 || wr.MinWindowOps != 39 || !wr.ShortWindow {
		t.Errorf("counts: attempted %d failed %d min window %d short %v", wr.Attempted, wr.Failed, wr.MinWindowOps, wr.ShortWindow)
	}
	if spread := (75.0 - 48) / 48; math.Abs(wr.RoundSpread-spread) > 1e-12 || !wr.Disturbed {
		t.Errorf("round spread %v (disturbed %v), want %v and disturbed", wr.RoundSpread, wr.Disturbed, spread)
	}

	addLayers(wr, &traceResult{Layers: map[string]float64{}, TracedOpP50: 55})
	for name, w := range map[string]float64{ // unscaled: the best round; speed: the middle round
		"raw.op_ms_p50": 48, "raw.throughput_ops_s": 21, "machine.speed_x": 1, "trace.overhead_frac": 0.1,
	} {
		if got := wr.Layers[name].Value; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b overlaps a", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 10 * ms, 4: 10 * ms, 5: 20 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	r := newRecorder()
	op := r.begin("op", 0, 1)
	r.spans[op-1].Start, r.spans[op-1].End = 0, 10*ms
	c := r.child("past the end", op, 8*ms, 5*ms)
	if got := r.spans[c-1]; got.End != 10*ms || got.Parent != op || got.Op != 1 {
		t.Errorf("child span not clipped to its parent: %+v", got)
	}
}

// The hand-computed case: X = [1 2 0; 0 0 3; 4 0 0], Y = [0 5 0; 6 0 0; 0 7 8],
// Z = X·Y = [12 5 0; 0 21 24; 0 20 0].
func TestReferenceKernel(t *testing.T) {
	dims := []uint64{3, 3}
	x := refTensor{dims, [][]uint32{{0, 0, 1, 2}, {0, 1, 2, 0}}, []float64{1, 2, 3, 4}}
	y := refTensor{dims, [][]uint32{{0, 1, 2, 2}, {1, 0, 1, 2}}, []float64{5, 6, 7, 8}}
	outDims, out, err := referenceContract(x, y, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]float64{0: 12, 1: 5, 4: 21, 5: 24, 7: 20}
	if len(outDims) != 2 || outDims[0] != 3 || outDims[1] != 3 || len(out) != len(want) {
		t.Fatalf("out dims %v, %d non-zeros; want [3 3], %d", outDims, len(out), len(want))
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("Z[%d,%d] = %v, want %v", k/3, k%3, out[k], v)
		}
	}

	// The library agrees with the reference on the same case, and the
	// digest notices a value on the wrong coordinate and a missing entry.
	ref := pairRef{OutDims: outDims, Ref: digestMap(out)}
	cx, err := coo.New(dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	cy, _ := coo.New(dims, 4)
	for i := range x.vals {
		cx.Append([]uint32{x.inds[0][i], x.inds[1][i]}, x.vals[i])
		cy.Append([]uint32{y.inds[0][i], y.inds[1][i]}, y.vals[i])
	}
	z, _, err := core.Contract(cx, cy, []int{1}, []int{0}, spartaOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(z, ref); err != nil {
		t.Errorf("library output rejected: %v", err)
	}
	z.Vals[0], z.Vals[1] = z.Vals[1], z.Vals[0]
	if err := verify(z, ref); err == nil {
		t.Error("swapped values passed verification")
	}
	delete(out, 7)
	if err := digestMap(out).matches(ref.Ref); err == nil {
		t.Error("missing non-zero passed verification")
	}

	if _, _, err := referenceContract(x, refTensor{dims: []uint64{4, 3}}, []int{1}, []int{0}); err == nil {
		t.Error("mismatched contract sizes accepted")
	}
	if _, err := rowMajor([]uint64{1 << 40, 1 << 40}); err == nil {
		t.Error("128-bit coordinate space accepted")
	}
}

// BENCHMARK.json and contract.go must describe the same benchmark.
func TestBenchmarkJSONMatchesContract(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in inputs.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, inputs.go %q (or their whys differ)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in contract.go", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, contract.go %+v", i, got, m)
		}
		if roundValue[m.Name] == nil {
			t.Errorf("%s has no per-round value", m.Name)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in contract.go", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, contract.go %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		res := results{Workloads: map[string]*workloadResult{"cold_build": {Metrics: map[string]metricValue{}}}}
		for _, m := range e2eMetrics {
			res.Workloads["cold_build"].Metrics[m.Name] = metricValue{100 * scale, m.Unit}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, far := write("a.json", 1), write("b.json", 1.01), write("far.json", 1.5)
	if err := agreeMain([]string{a + "," + b, b}); err != nil {
		t.Errorf("sets 1%% apart disagree: %v", err)
	}
	if err := agreeMain([]string{a, far}); err == nil {
		t.Error("sets 50% apart agree")
	}
}

// TestSmoke builds the benchmark and the server as run.sh does and runs all
// four workloads, the spawned server and the traced pass on tiny tensors.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and spawns processes")
	}
	bin, out := t.TempDir(), t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "sparta/cmd/sptc-serve", ".")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	run := exec.Command(filepath.Join(bin, "benchmark"), "-smoke", "-trace", "1", "-out", out)
	run.Stderr = os.Stderr
	stdout, err := run.Output()
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var verdict struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !verdict.Correct || verdict.Failed != 0 || verdict.Attempted == 0 {
		t.Errorf("verdict %+v", verdict)
	}
	for _, w := range workloads {
		for _, m := range layerMetrics {
			if _, ok := verdict.Metrics[w.Name+"."+m.Name]; !ok {
				t.Errorf("traced run does not report %s for %s", m.Name, w.Name)
			}
		}
	}

	var res results
	buf, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil || len(wr.Rounds) != 1 || wr.Failed != 0 {
			t.Fatalf("%s: results.json holds %+v", w.Name, wr)
		}
		for _, m := range e2eMetrics {
			if v := wr.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if buf, err = os.ReadFile(filepath.Join(out, "trace.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace.json does not load as Chrome trace events (%d events): %v", len(trace.TraceEvents), err)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "work-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
