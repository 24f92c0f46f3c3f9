package obs

// Quantile estimation over merged-shard bucket counts. The registry's
// histograms accumulate fixed-bucket counts (per-worker HistShards merged
// in); a pXX estimate interpolates linearly inside the bucket holding the
// target rank — the same estimator Prometheus's histogram_quantile applies
// server-side, computed here so /metrics can export p50/p95/p99 directly
// without a query engine in between.
//
// Accuracy is bounded by bucket resolution: the estimate lands in the same
// bucket as the exact order statistic, so the worst-case relative error is
// one bucket's relative width (LatencyBuckets grow by 7% per bucket).
// Two histograms with the same bounds and near-identical data produce
// near-identical estimates.

// LatencyBuckets is the request-latency bucket layout of the server's RED
// histograms: log-spaced at 7% growth from 50µs to >120s. The growth rate
// is the quantile estimate's error budget: a sparse tail can shift an
// interpolated quantile by a full bucket.
var LatencyBuckets = func() []float64 {
	var b []float64
	for v := 50e-6; ; v *= 1.07 {
		b = append(b, v)
		if v > 120 {
			return b
		}
	}
}()

// QuantileFromBuckets estimates the q-quantile (0 < q <= 1) of a
// distribution recorded as fixed-bucket counts: counts[i] observations in
// (bounds[i-1], bounds[i]], counts[len(bounds)] in the overflow bucket.
// Returns 0 for an empty distribution. Ranks in the overflow bucket clamp
// to the highest finite bound (there is no upper edge to interpolate
// toward), and the first bucket interpolates from 0.
func QuantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// Quantile estimates the q-quantile of the histogram's merged distribution.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return QuantileFromBuckets(h.bounds, counts, q)
}

// Quantile estimates the q-quantile of a histogram snapshot (0 for
// non-histogram snapshots).
func (s Snapshot) Quantile(q float64) float64 {
	if s.Type != "histogram" {
		return 0
	}
	return QuantileFromBuckets(s.Bounds, s.Counts, q)
}

// exportQuantiles is the pXX set WritePrometheus appends per histogram.
var exportQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}
