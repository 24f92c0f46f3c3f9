package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default bucket boundaries. Bounds are inclusive upper limits (Prometheus
// "le"); every histogram carries one extra overflow bucket beyond the last
// bound.
var (
	// ProbeBuckets suits probe/chain-length distributions: open-addressed
	// probes cluster at 1-2 below load factor 1/2, the tail is what matters.
	ProbeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	// TimeBuckets (seconds) spans microsecond stages to multi-second runs.
	TimeBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}
	// ByteBuckets spans per-thread accumulators (KiB) to whole tensors (GiB).
	ByteBuckets = []float64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30}
)

// Registry holds named metric families. All accessors are get-or-create and
// safe for concurrent use; a nil *Registry returns nil metrics whose methods
// are no-ops, so instrumented code needs no configuration branches.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: its metadata plus one metric per label set.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	byLabel         map[string]interface{}
	order           []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// metric returns the family's metric for the given label set, creating both
// on first use. A name re-registered with a different type yields nil (the
// caller's writes become no-ops) rather than corrupting the exposition.
func (r *Registry) metric(name, help, typ string, labels []string, mk func() interface{}) interface{} {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: map[string]interface{}{}}
		r.fams[name] = f
	}
	r.mu.Unlock()
	if f.typ != typ {
		return nil
	}
	key := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.byLabel[key]
	if m == nil {
		m = mk()
		f.byLabel[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the counter for name + labels (alternating key, value).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m, _ := r.metric(name, help, "counter", labels, func() interface{} { return &Counter{} }).(*Counter)
	return m
}

// Gauge returns the gauge for name + labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m, _ := r.metric(name, help, "gauge", labels, func() interface{} { return &Gauge{} }).(*Gauge)
	return m
}

// Histogram returns the fixed-bucket histogram for name + labels. The bounds
// of the first registration win; later calls reuse the existing buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	m, _ := r.metric(name, help, "histogram", labels, func() interface{} { return newHistogram(bounds) }).(*Histogram)
	return m
}

// labelString renders labels (alternating key, value) canonically:
// `{k1="v1",k2="v2"}` sorted by key, "" for none. An odd trailing key gets
// an empty value — observability must never take the pipeline down.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i < len(labels); i += 2 {
		v := ""
		if i+1 < len(labels) {
			v = labels[i+1]
		}
		pairs = append(pairs, kv{labels[i], v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Counter is a monotonically increasing uint64. Nil-safe.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters, so
// concurrent Observes and shard Merges race-free. counts[len(bounds)] is the
// overflow bucket (le="+Inf").
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(h.bounds, v)].Add(1)
	h.addSum(v)
}

// addSum accumulates into the float64-bits sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Merge folds a per-worker shard into the histogram. Shards with different
// bucketing are ignored (the caller built them from different bounds).
func (h *Histogram) Merge(s *HistShard) {
	if h == nil || s == nil || len(s.counts) != len(h.counts) {
		return
	}
	for i, c := range s.counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	if s.sum != 0 {
		h.addSum(s.sum)
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// bucketOf returns the index of the first bound >= v (len(bounds) for the
// overflow bucket). Bounds are short fixed slices, so a linear scan beats a
// binary search in practice.
func bucketOf(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// HistShard is the per-worker, non-atomic histogram the hot path records
// into; the owning worker merges it into a registry Histogram after the
// parallel section (Histogram.Merge). Observe on a nil shard is a no-op,
// but hot loops should guard the call with a nil check so the disabled
// configuration pays only one predictable branch.
type HistShard struct {
	bounds []float64
	counts []uint64
	sum    float64
}

// NewHistShard returns a shard bucketed like Histogram with the same bounds.
func NewHistShard(bounds []float64) *HistShard {
	return &HistShard{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value (plain increments, single-owner).
func (s *HistShard) Observe(v float64) {
	if s == nil {
		return
	}
	s.counts[bucketOf(s.bounds, v)]++
	s.sum += v
}

// ObserveN records n observations of the same value at once, for a loop
// whose every iteration would observe v.
func (s *HistShard) ObserveN(v float64, n uint64) {
	if s == nil {
		return
	}
	if i := bucketOf(s.bounds, v); uint(i) < uint(len(s.counts)) { // always: counts has len(bounds)+1 buckets
		s.counts[i] += n
	}
	s.sum += v * float64(n)
}

// Counts exposes the per-bucket counts (len(bounds)+1 entries, overflow
// last) — the layout Snapshot.Counts and stats.RenderHistogram use.
func (s *HistShard) Counts() []uint64 {
	if s == nil {
		return nil
	}
	return s.counts
}

// Count returns the number of recorded observations.
func (s *HistShard) Count() uint64 {
	if s == nil {
		return 0
	}
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Snapshot is one metric's point-in-time state, for tests and renderers.
type Snapshot struct {
	Name   string
	Type   string // "counter", "gauge", "histogram"
	Help   string
	Labels string // canonical `{k="v",...}` or ""

	Value float64 // counter and gauge

	Bounds []float64 // histogram: bucket upper bounds
	Counts []uint64  // histogram: per-bucket (NOT cumulative), len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot returns every metric, sorted by name then label string.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []Snapshot
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := Snapshot{Name: f.name, Type: f.typ, Help: f.help, Labels: key}
			switch m := f.byLabel[key].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				s.Bounds = m.bounds
				s.Counts = make([]uint64, len(m.counts))
				for i := range m.counts {
					s.Counts[i] = m.counts[i].Load()
				}
				s.Sum = m.Sum()
				for _, c := range s.Counts {
					s.Count += c
				}
			}
			out = append(out, s)
		}
		f.mu.Unlock()
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, cumulative histogram buckets
// with le labels, _sum and _count series. Output is deterministic (sorted by
// family name, then label string).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	lastFam := ""
	for _, s := range snaps {
		if s.Name != lastFam {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
				return err
			}
			lastFam = s.Name
		}
		switch s.Type {
		case "histogram":
			var cum uint64
			for i := range s.Counts {
				cum += s.Counts[i]
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, withLabel(s.Labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.Labels, formatFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.Labels, s.Count); err != nil {
				return err
			}
			// Merged-shard quantile estimates, exported as a sibling series
			// (summary-style quantile label) so dashboards read pXX without
			// reconstructing bucket math.
			if s.Count > 0 {
				for _, eq := range exportQuantiles {
					if _, err := fmt.Fprintf(w, "%s_quantile%s %s\n",
						s.Name, withLabel(s.Labels, "quantile", eq.label),
						formatFloat(s.Quantile(eq.q))); err != nil {
						return err
					}
				}
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLabel appends one label to a canonical label string.
func withLabel(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
