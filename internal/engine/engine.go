// Package engine is the prepared-contraction layer over internal/core: it
// splits an SpTC into Prepare (permute + HtY build — the stage-① work the
// paper charges to every call) and Contract (stages ②–⑤ against the
// prepared table), and caches prepared plans in an LRU keyed by a content
// fingerprint of Y plus the contract-mode spec. Tensor-network chains and
// serving workloads that contract many X's against one Y skip the HtY build
// on every warm call (Report.HtYReused).
package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/obs"
)

// Config sizes an Engine.
type Config struct {
	// CacheEntries caps the number of resident prepared plans
	// (0 = DefaultCacheEntries, negative = cache disabled: every
	// contraction prepares fresh).
	CacheEntries int
	// CacheBytes caps the summed PreparedY.Bytes() of resident plans
	// (0 = no byte budget). A single oversized plan is still admitted.
	CacheBytes uint64
	// Metrics, when non-nil, receives cache hit/miss/eviction counters and
	// residency gauges under the sptc_engine_* families.
	Metrics *obs.Registry
}

// DefaultCacheEntries is the plan-cache entry cap when Config leaves it 0.
const DefaultCacheEntries = 64

// Engine caches prepared contractions. Safe for concurrent use; the lock
// covers only cache bookkeeping — fingerprints and HtY builds run outside
// it, so concurrent distinct preparations proceed in parallel.
type Engine struct {
	mu    sync.Mutex
	cache *lruCache

	metrics   *obs.Registry
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	// pubEvictions is how many evictions have already been added to the
	// metrics counter; the delta-on-publish keeps the counter monotone
	// without holding the lock while touching the registry.
	pubEvictions atomic.Uint64
}

// Stats is a point-in-time snapshot of the plan cache.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   uint64
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	e := &Engine{metrics: cfg.Metrics}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if entries > 0 {
		e.cache = newLRU(entries, cfg.CacheBytes)
	}
	return e
}

// modesString canonicalizes a contract-mode list for the cache key.
func modesString(modes []int) string {
	var b strings.Builder
	for i, m := range modes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	return b.String()
}

// Prepare returns a prepared plan for contracting against cmodesY of y,
// reusing a cached one when y's content fingerprint and the contract modes
// match. The returned bool is true on a cache hit (the HtY build was
// skipped). The fingerprint pass is O(nnz_Y) and runs on every call — it is
// what makes the cache safe against mutated tensors — but it is far cheaper
// than the build it saves (no allocation, no hashing-table construction).
func (e *Engine) Prepare(y *coo.Tensor, cmodesY []int, opt core.Options) (*core.PreparedY, bool, error) {
	return e.PrepareCtx(context.Background(), y, cmodesY, opt)
}

// PrepareCtx is Prepare with cancellation and request-trace awareness; it
// fingerprints y and calls PrepareFP.
func (e *Engine) PrepareCtx(ctx context.Context, y *coo.Tensor, cmodesY []int, opt core.Options) (*core.PreparedY, bool, error) {
	return e.PrepareFP(ctx, y, Fingerprint{}, cmodesY, opt)
}

// PrepareFP is the plan lookup for a caller that already knows y's content
// fingerprint: a non-zero fp is trusted to be FingerprintTensor(y) and y is
// not scanned on a hit; the zero Fingerprint means "compute it". Only a
// holder that knows y has not been written since it was fingerprinted (a
// store of immutable tensors) may pass one.
//
// When ctx carries an obs.ReqTrace (serving requests do), the lookup and the
// HtY build become "cache lookup" / "hty prepare" phases of the request's
// span tree, and the plan fingerprint plus hit/miss outcome are tagged on it
// — that is how a slow POST /contract is attributed to a plan-cache miss
// rather than queue wait.
func (e *Engine) PrepareFP(ctx context.Context, y *coo.Tensor, fp Fingerprint, cmodesY []int, opt core.Options) (*core.PreparedY, bool, error) {
	rt := obs.ReqFrom(ctx)
	if e.cache == nil {
		sp := rt.StartPhase("hty prepare")
		pr, err := core.PrepareY(y, cmodesY, opt)
		sp.End()
		return pr, false, err
	}
	sp := rt.StartPhase("cache lookup")
	if fp.IsZero() {
		fp = FingerprintTensor(y, opt.Threads)
	}
	k := planKey{fp: fp, modes: modesString(cmodesY)}

	e.mu.Lock()
	pr, ok := e.cache.get(k)
	e.mu.Unlock()
	sp.End()
	rt.SetTag("plan_fp", fp.String())
	if ok {
		rt.SetTag("plan_cache", "hit")
		e.hits.Add(1)
		e.publishCache("hit")
		return pr, true, nil
	}
	rt.SetTag("plan_cache", "miss")

	// Miss: build outside the lock, then insert. If another goroutine
	// prepared the same key meanwhile, its table wins and ours is dropped —
	// both are equivalent, and converging on one keeps reuse exact.
	spB := rt.StartPhase("hty prepare")
	pr, err := core.PrepareY(y, cmodesY, opt)
	spB.End()
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	cached, evicted := e.cache.add(k, pr)
	e.mu.Unlock()
	e.misses.Add(1)
	e.evictions.Add(uint64(evicted))
	e.publishCache("miss")
	return cached, false, nil
}

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y through the plan cache
// when the algorithm supports it (AlgSparta); the baseline algorithms fall
// through to the one-shot path, so the Engine is a drop-in front end for
// every variant. Report.HtYReused tells the caller whether the warm path
// ran. It prepares X and fingerprints Y per call; ContractX is the entry for
// a caller that keeps either.
func (e *Engine) Contract(ctx context.Context, x, y *coo.Tensor, cmodesX, cmodesY []int, opt core.Options) (*coo.Tensor, *core.Report, error) {
	if opt.Algorithm != core.AlgSparta {
		return core.ContractCtx(ctx, x, y, cmodesX, cmodesY, opt)
	}
	px, err := core.PrepareX(ctx, x, cmodesX, opt)
	if err != nil {
		return nil, nil, err
	}
	return e.ContractX(ctx, px, y, Fingerprint{}, cmodesY, opt)
}

// ContractX is Contract for an X prepared earlier (core.PrepareX) and a Y
// whose fingerprint may be known (PrepareFP's rule; zero = compute it): on a
// plan-cache hit neither input is scanned before the first HtY probe. Only
// AlgSparta is supported, as in PreparedY.ContractX: the baselines have no
// prepared form to reuse.
func (e *Engine) ContractX(ctx context.Context, px *core.PreparedX, y *coo.Tensor, fpY Fingerprint, cmodesY []int, opt core.Options) (*coo.Tensor, *core.Report, error) {
	if px == nil {
		return nil, nil, errors.New("engine: nil prepared X")
	}
	if opt.Algorithm != core.AlgSparta {
		return nil, nil, fmt.Errorf("engine: prepared contraction supports only %v, got %v", core.AlgSparta, opt.Algorithm)
	}
	pr, hit, err := e.PrepareFP(ctx, y, fpY, cmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	z, rep, err := pr.ContractX(ctx, px, opt)
	if err != nil {
		return nil, nil, err
	}
	if hit {
		// A cache hit is a reuse even if this engine instance never ran
		// the prep before (e.g. a plan inherited from a concurrent build).
		rep.HtYReused = true
		rep.HtYBuild = 0
	}
	return z, rep, nil
}

// Einsum is Contract with an Einstein-summation spec, including the
// output-mode permutation of the spec's right-hand side.
func (e *Engine) Einsum(ctx context.Context, spec string, x, y *coo.Tensor, opt core.Options) (*coo.Tensor, *core.Report, error) {
	ein, err := einsum.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.CheckRanks(spec, x.Order(), y.Order()); err != nil {
		return nil, nil, err
	}
	z, rep, err := e.Contract(ctx, x, y, ein.CmodesX, ein.CmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.Output(z, !opt.SkipOutputSort, opt.Threads); err != nil {
		return nil, nil, err
	}
	return z, rep, nil
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
	}
	if e.cache != nil {
		e.mu.Lock()
		s.Entries = e.cache.len()
		s.Bytes = e.cache.bytes
		e.mu.Unlock()
	}
	return s
}

// publishCache folds one cache outcome into the metrics registry.
func (e *Engine) publishCache(outcome string) {
	if e.metrics == nil {
		return
	}
	e.metrics.Counter("sptc_engine_cache_total", "plan cache lookups", "outcome", outcome).Inc()
	s := e.Stats()
	old := e.pubEvictions.Swap(s.Evictions)
	if s.Evictions > old {
		e.metrics.Counter("sptc_engine_cache_evictions_total", "plans evicted from the cache").Add(s.Evictions - old)
	}
	e.metrics.Gauge("sptc_engine_cache_entries", "resident prepared plans").Set(float64(s.Entries))
	e.metrics.Gauge("sptc_engine_cache_bytes", "summed bytes of resident prepared plans").Set(float64(s.Bytes))
}
