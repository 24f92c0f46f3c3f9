package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestQuantileAgainstSortOracle merges several worker shards into one
// histogram and compares its interpolated quantiles against the exact
// order statistics of the raw sample. The estimator's error is bounded by
// one bucket's relative width (7% for LatencyBuckets), so 8% is the
// honest tolerance.
func TestQuantileAgainstSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := NewRegistry()
	h := reg.Histogram("lat", "latencies", LatencyBuckets)

	const workers, perWorker = 4, 5000
	var all []float64
	for w := 0; w < workers; w++ {
		sh := NewHistShard(LatencyBuckets)
		for i := 0; i < perWorker; i++ {
			// Log-uniform over [100µs, 5s): spans many buckets, like a
			// latency distribution with a heavy tail.
			v := 1e-4 * math.Pow(5e4, rng.Float64())
			sh.Observe(v)
			all = append(all, v)
		}
		h.Merge(sh)
	}
	sort.Float64s(all)

	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := all[int(math.Ceil(q*float64(len(all))))-1]
		est := h.Quantile(q)
		if relErr := math.Abs(est-exact) / exact; relErr > 0.08 {
			t.Errorf("q=%g: estimate %.6g vs exact %.6g (rel err %.3f > 0.08)", q, est, exact, relErr)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	if got := QuantileFromBuckets(bounds, make([]uint64, 5), 0.5); got != 0 {
		t.Errorf("empty distribution: got %g, want 0", got)
	}
	if got := QuantileFromBuckets(bounds, []uint64{0, 3, 0, 0, 0}, 0.5); got <= 1 || got > 2 {
		t.Errorf("single-bucket mass: got %g, want in (1,2]", got)
	}
	// All mass in the overflow bucket clamps to the last finite bound.
	if got := QuantileFromBuckets(bounds, []uint64{0, 0, 0, 0, 10}, 0.99); got != 8 {
		t.Errorf("overflow clamp: got %g, want 8", got)
	}
	// Mismatched shapes are refused, not mis-read.
	if got := QuantileFromBuckets(bounds, []uint64{1, 2}, 0.5); got != 0 {
		t.Errorf("mismatched counts: got %g, want 0", got)
	}
	// First bucket interpolates from zero.
	if got := QuantileFromBuckets(bounds, []uint64{4, 0, 0, 0, 0}, 0.5); got <= 0 || got > 1 {
		t.Errorf("first bucket: got %g, want in (0,1]", got)
	}
}

// TestPrometheusQuantileExport: histogram families now carry
// <name>_quantile{quantile="..."} series on /metrics.
func TestPrometheusQuantileExport(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sptc_test_seconds", "test", LatencyBuckets, "route", "contract")
	for i := 0; i < 100; i++ {
		h.Observe(0.001 * float64(i+1))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sptc_test_seconds_quantile{route="contract",quantile="0.5"}`,
		`sptc_test_seconds_quantile{route="contract",quantile="0.95"}`,
		`sptc_test_seconds_quantile{route="contract",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s\n%s", want, out)
		}
	}
	// An empty histogram exports no quantile lines (0 would be a lie).
	reg2 := NewRegistry()
	reg2.Histogram("empty_seconds", "test", LatencyBuckets)
	b.Reset()
	if err := reg2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "empty_seconds_quantile") {
		t.Error("empty histogram exported quantile lines")
	}
}

func TestLatencyBucketsShape(t *testing.T) {
	if len(LatencyBuckets) < 50 {
		t.Fatalf("only %d latency buckets; too coarse for pXX cross-checks", len(LatencyBuckets))
	}
	for i := 1; i < len(LatencyBuckets); i++ {
		ratio := LatencyBuckets[i] / LatencyBuckets[i-1]
		// One bucket's width is the quantile estimate's error budget
		// (TestQuantileAgainstSortOracle's 8% tolerance).
		if ratio <= 1 || ratio > 1.0701 {
			t.Fatalf("bucket %d growth %.4f outside (1, 1.07]", i, ratio)
		}
	}
	if last := LatencyBuckets[len(LatencyBuckets)-1]; last < 120 {
		t.Fatalf("last bucket %.3g < 120s", last)
	}
}
