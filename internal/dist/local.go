package dist

import (
	"context"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
	"sparta/internal/obs"
)

// LocalConfig sizes one in-process shard executor.
type LocalConfig struct {
	// CacheEntries / CacheBytes size the shard's private plan cache
	// (engine.Config semantics: 0 = default, negative entries = disabled).
	CacheEntries int
	CacheBytes   uint64
	// MaxInflight bounds concurrent contractions on this shard (per-shard
	// backpressure; 0 = unbounded). Blocked callers respect ctx.
	MaxInflight int
	// WindowNNZ, when >0, streams the shard's prepared X in windows of at
	// most this many rows (core.ContractStreamX) — the oracle suite's
	// streamed-tier case. A fully contracted X is one window; the output is
	// bitwise the in-memory path's either way.
	WindowNNZ int
	// Metrics, when non-nil, receives the shard engine's cache counters.
	Metrics *obs.Registry
}

// Local is an in-process shard: a private plan-cache engine plus a counting
// semaphore for backpressure. Safe for concurrent Contract calls.
type Local struct {
	name      string
	eng       *engine.Engine
	sem       chan struct{}
	windowNNZ int
}

// NewLocal builds an in-process shard executor.
func NewLocal(name string, cfg LocalConfig) *Local {
	l := &Local{
		name: name,
		eng: engine.New(engine.Config{
			CacheEntries: cfg.CacheEntries,
			CacheBytes:   cfg.CacheBytes,
			Metrics:      cfg.Metrics,
		}),
		windowNNZ: cfg.WindowNNZ,
	}
	if cfg.MaxInflight > 0 {
		l.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return l
}

// Name implements Executor.
func (l *Local) Name() string { return l.name }

// Contract implements Executor: prepare (or reuse) the HtY through the
// shard's plan cache, then contract the shard's X against it.
func (l *Local) Contract(ctx context.Context, x, y *coo.Tensor, job Job) (*coo.Tensor, *core.Report, error) {
	if l.sem != nil {
		select {
		case l.sem <- struct{}{}:
			defer func() { <-l.sem }()
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	opt := job.Options
	pr, hit, err := l.eng.PrepareCtx(ctx, y, job.CmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	var z *coo.Tensor
	var rep *core.Report
	if l.windowNNZ > 0 {
		// The partition is the shard's own (the coordinator sets InPlace):
		// prepare it where it lies and stream windows of the prepared rows.
		px, perr := core.PrepareX(ctx, x, job.CmodesX, opt)
		if perr != nil {
			return nil, nil, perr
		}
		z, rep, err = core.ContractStreamX(ctx, px, l.windowNNZ, pr, core.StreamOptions{Options: opt})
	} else {
		z, rep, err = pr.Contract(ctx, x, job.CmodesX, opt)
	}
	if err != nil {
		return nil, nil, err
	}
	if hit {
		rep.HtYReused = true
		rep.HtYBuild = 0
	}
	return z, rep, nil
}

// Close implements Executor (nothing to release in-process).
func (l *Local) Close() error { return nil }
