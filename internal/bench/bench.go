// Package bench drives the paper's evaluation (§5): one function per table
// and figure, each printing rows comparable to the published ones. The
// sptc-bench command exposes them on the CLI and the root bench_test.go
// wraps them in testing.B benchmarks.
package bench

import (
	"fmt"
	"sync"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/obs"
)

// Config scales the evaluation. The defaults target seconds-per-experiment
// on a laptop; raise Scale toward the presets' real nnz to approach paper
// scale.
type Config struct {
	// Scale is the target non-zero count for every generated preset.
	Scale int
	// Threads for all parallel stages (0 = all cores).
	Threads int
	// Seed for every generator.
	Seed int64
	// DRAMFraction sets the simulated DRAM budget as a fraction of each
	// workload's peak memory. The default 0.6 mirrors the paper's regime:
	// DRAM large enough for the four prioritized objects (HtY, HtA,
	// Zlocal, Z) on most workloads — the inputs alone exceed it — but not
	// for everything on output-heavy contractions.
	DRAMFraction float64
	// Tracer and Metrics, when non-nil, are threaded into every contraction
	// the experiments run (sptc-bench -trace / -metrics-addr). Note the
	// report cache: a cached cell re-emits nothing, so traces show each
	// distinct contraction once.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Default returns the standard laptop-scale configuration.
func Default() Config {
	return Config{Scale: 4000, Threads: 0, Seed: 42, DRAMFraction: 0.6}
}

// tensorCache memoizes generated preset tensors per (name, scale, seed) so
// multi-experiment runs generate each dataset once.
var tensorCache sync.Map

// Tensor returns the scaled synthetic tensor for a preset.
func (c Config) Tensor(p gen.Preset) *coo.Tensor {
	key := fmt.Sprintf("%s/%d/%d", p.Name, c.Scale, c.Seed)
	if v, ok := tensorCache.Load(key); ok {
		return v.(*coo.Tensor)
	}
	t := gen.Generate(p, c.Scale, c.Seed)
	tensorCache.Store(key, t)
	return t
}

// reportCache memoizes contraction results: several experiments (fig2,
// fig4, headline, fig7, fig9) visit the same workload-algorithm cells, and
// the baseline cells are the expensive ones.
var reportCache sync.Map

type runResult struct {
	z   *coo.Tensor
	rep *core.Report
}

// RunWorkload contracts a workload's tensor with itself using the given
// algorithm and returns the output and report. Results are cached per
// (workload, algorithm, config); callers must not mutate the returned tensor.
func (c Config) RunWorkload(w gen.Workload, alg core.Algorithm) (*coo.Tensor, *core.Report, error) {
	key := fmt.Sprintf("%s/%v/%d/%d/%d/%v", w.Preset.Name, alg, w.Modes, c.Scale, c.Seed, c.Threads)
	if w.Star {
		key += "*"
	}
	if v, ok := reportCache.Load(key); ok {
		r := v.(runResult)
		return r.z, r.rep, nil
	}
	x := c.Tensor(w.Preset)
	cx, cy := w.ContractModes()
	z, rep, err := core.Contract(x, x, cx, cy, core.Options{
		Algorithm: alg,
		Threads:   c.Threads,
		Tracer:    c.Tracer,
		Metrics:   c.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	reportCache.Store(key, runResult{z, rep})
	return z, rep, nil
}
