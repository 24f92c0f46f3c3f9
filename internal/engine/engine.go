// Package engine caches prepared Y operands for callers that cannot keep
// them: an LRU of core.PreparedY keyed by a content fingerprint of Y plus the
// contract-mode spec, so contractions against a Y equal to an earlier one
// skip the HtY build (Report.HtYReused). Its users are dist.Local, whose
// shards see each Y as a fresh tensor, and the benchmark. A chain keeps the
// Ys it prepares itself, and sptc-serve keeps its prepared operands on its
// stored tensors and uses only this package's fingerprint, footprint
// estimate and admission plan.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sparta/internal/coo"
	"sparta/internal/core"
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

// PrepareCtx returns a prepared plan for contracting against cmodesY of y,
// reusing a cached one when y's content fingerprint and the contract modes
// match, and builds nothing once ctx is done. The returned bool is true on a
// cache hit (the HtY build was skipped). The fingerprint pass is O(nnz_Y) and
// runs on every call — it is what makes the cache safe against mutated
// tensors — but it is far cheaper than the build it saves (no allocation, no
// hashing-table construction).
func (e *Engine) PrepareCtx(ctx context.Context, y *coo.Tensor, cmodesY []int, opt core.Options) (*core.PreparedY, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if e.cache == nil {
		pr, err := core.PrepareY(y, cmodesY, opt)
		return pr, false, err
	}
	k := planKey{fp: FingerprintTensor(y, opt.Threads), modes: fmt.Sprint(cmodesY)}
	e.mu.Lock()
	pr, ok := e.cache.get(k)
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
		e.publishCache("hit")
		return pr, true, nil
	}

	// Miss: build outside the lock, then insert. If another goroutine
	// prepared the same key meanwhile, its table wins and ours is dropped —
	// both are equivalent, and converging on one keeps reuse exact.
	pr, err := core.PrepareY(y, cmodesY, opt)
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

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y through the plan cache.
// Only AlgSparta has a table to cache; any other algorithm is refused before
// the cache is touched, with PreparedY.ContractX's error. Report.HtYReused
// tells the caller whether the warm path ran. X is prepared and Y
// fingerprinted on every call: a caller that keeps either keeps its
// core.PreparedX / core.PreparedY and calls PreparedY.ContractX itself.
func (e *Engine) Contract(ctx context.Context, x, y *coo.Tensor, cmodesX, cmodesY []int, opt core.Options) (*coo.Tensor, *core.Report, error) {
	if opt.Algorithm != core.AlgSparta {
		return nil, nil, fmt.Errorf("core: prepared contraction supports only %v, got %v", core.AlgSparta, opt.Algorithm)
	}
	pr, hit, err := e.PrepareCtx(ctx, y, cmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	z, rep, err := pr.Contract(ctx, x, cmodesX, opt)
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
