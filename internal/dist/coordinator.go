package dist

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/obs"
	"sparta/internal/parallel"
)

// Config assembles a Coordinator.
type Config struct {
	// Executors are the shards, one ring member each. Names must be unique.
	Executors []Executor
	// VNodes is the consistent-hash ring's per-shard point count
	// (0 = DefaultVNodes).
	VNodes int
	// ShardTimeout caps each shard attempt (0 = no per-attempt timeout;
	// the request ctx still applies).
	ShardTimeout time.Duration
	// MaxAttempts is how many executors a failing shard is tried on,
	// including the primary (0 = 2: primary plus one failover).
	MaxAttempts int
	// Metrics, when non-nil, receives sptc_dist_* counters and histograms.
	Metrics *obs.Registry
}

// Coordinator is the scatter/gather front: Partition → fan-out to executors
// (with per-attempt timeout and failover to the next ring shard) → MergeRuns.
// Safe for concurrent use; it holds no per-request state.
type Coordinator struct {
	execs   []Executor
	ring    *Ring
	timeout time.Duration
	maxAtt  int
	metrics *obs.Registry
}

// NewCoordinator validates the executor set and builds the ring.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one executor")
	}
	names := make([]string, len(cfg.Executors))
	for i, ex := range cfg.Executors {
		if ex == nil {
			return nil, fmt.Errorf("dist: executor %d is nil", i)
		}
		names[i] = ex.Name()
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	maxAtt := cfg.MaxAttempts
	if maxAtt < 1 {
		maxAtt = 2
	}
	return &Coordinator{
		execs:   append([]Executor(nil), cfg.Executors...),
		ring:    ring,
		timeout: cfg.ShardTimeout,
		maxAtt:  maxAtt,
		metrics: cfg.Metrics,
	}, nil
}

// Shards returns the executor count.
func (c *Coordinator) Shards() int { return len(c.execs) }

// Ring exposes the routing ring (tests).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Close closes every executor, returning the first error.
func (c *Coordinator) Close() error {
	var first error
	for _, ex := range c.execs {
		if err := ex.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardResult is one fan-out leg's outcome.
type shardResult struct {
	shard   int
	name    string
	z       *coo.Tensor
	rep     *core.Report
	wall    time.Duration
	retries int
	err     error
}

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y across the shards:
// partition X by hashed free-mode tuples, contract every non-empty shard
// concurrently against the replicated Y, and merge the sorted per-shard runs.
// Only AlgSparta is supported (the prepared path is what replication
// amortizes). The output is bitwise identical to the one-shot contraction —
// the oracle suite in oracle_test.go holds this across orders, kernels,
// shard counts, and thread counts.
func (c *Coordinator) Contract(ctx context.Context, x, y *coo.Tensor, cmodesX, cmodesY []int, opt core.Options) (*coo.Tensor, *core.Report, error) {
	if opt.Algorithm != core.AlgSparta {
		return nil, nil, fmt.Errorf("dist: sharded execution supports only %v, got %v", core.AlgSparta, opt.Algorithm)
	}
	if x == nil || y == nil {
		return nil, nil, fmt.Errorf("dist: nil input tensor")
	}
	zdims, err := outDims(x, y, cmodesX, cmodesY)
	if err != nil {
		return nil, nil, err
	}
	rt := obs.ReqFrom(ctx)

	t0 := time.Now()
	sp := rt.StartPhase("shard partition")
	parts, err := Partition(x, cmodesX, c.ring, opt.Threads)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	partWall := time.Since(t0)

	job := Job{CmodesX: cmodesX, CmodesY: cmodesY, Options: opt}
	// Partitions are private copies: let the shard pipeline permute and
	// sort them in place instead of cloning again.
	job.Options.InPlace = true

	// Run every non-empty shard concurrently, one leg each. parallel.For
	// returns only once every leg has — no goroutine outlives Contract
	// (fault_test.go counts them) — and re-raises a leg's panic here, on
	// the caller, after its siblings have finished.
	var legs []int
	for s, p := range parts {
		if p.NNZ() > 0 {
			legs = append(legs, s)
		}
	}
	dispatched := len(legs)
	fanCtx, cancel := context.WithCancel(obs.DetachReq(ctx))
	defer cancel()
	results := make([]shardResult, dispatched)
	parallel.For(dispatched, dispatched, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = c.runShard(fanCtx, legs[i], parts[legs[i]], y, job)
			if results[i].err != nil {
				cancel() // abort the siblings: the request cannot succeed
			}
		}
	})

	runs := make([]*coo.Tensor, len(parts))
	reps := make([]*core.Report, len(parts))
	retries := 0
	var failure error
	for _, res := range results {
		if res.err != nil {
			// Prefer the root-cause ShardError — one with real attempts —
			// over siblings that died of the fan-out cancellation it
			// triggered (those carry zero attempts).
			if se, ok := res.err.(*ShardError); ok && se.Attempts > 0 {
				if fe, ok := failure.(*ShardError); !ok || fe.Attempts == 0 {
					failure = res.err
				}
			} else if failure == nil {
				failure = res.err
			}
			continue
		}
		runs[res.shard] = res.z
		reps[res.shard] = res.rep
		retries += res.retries
		rt.AddPhase("shard "+res.name, res.wall)
	}
	if failure != nil {
		if perr := ctx.Err(); perr != nil {
			// The request itself was canceled or timed out; report that,
			// not the shard casualties it caused.
			c.countRequest("canceled")
			return nil, nil, perr
		}
		c.countRequest("error")
		return nil, nil, failure
	}

	tM := time.Now()
	spM := rt.StartPhase("shard merge")
	z, err := coo.MergeRuns(zdims, runs)
	spM.End()
	if err != nil {
		return nil, nil, err
	}
	mergeWall := time.Since(tM)

	rep := c.aggregate(reps, opt)
	rep.Shards = dispatched
	rep.ShardRetries = retries
	rep.PartitionWall = partWall
	rep.MergeWall = mergeWall
	rep.StageWall[core.StageInput] += partWall
	rep.StageWall[core.StageWrite] += mergeWall
	rep.NNZX = x.NNZ()
	rep.NNZY = y.NNZ()
	rep.NNZZ = z.NNZ()
	rt.SetTag("shards", strconv.Itoa(dispatched))
	if retries > 0 {
		rt.SetTag("shard_retries", strconv.Itoa(retries))
	}
	c.countRequest("ok")
	if c.metrics != nil {
		c.metrics.Histogram("sptc_dist_merge_seconds", "coordinator run-merge wall time",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}).Observe(mergeWall.Seconds())
	}
	return z, rep, nil
}

// Einsum is Contract with an Einstein-summation spec, mirroring
// engine.Einsum (including the output permutation and re-sort) so a
// Coordinator satisfies the Contractor seam EvalChainOn calls through.
func (c *Coordinator) Einsum(ctx context.Context, spec string, x, y *coo.Tensor, opt core.Options) (*coo.Tensor, *core.Report, error) {
	ein, err := einsum.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.CheckRanks(spec, x.Order(), y.Order()); err != nil {
		return nil, nil, err
	}
	z, rep, err := c.Contract(ctx, x, y, ein.CmodesX, ein.CmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.Output(z, !opt.SkipOutputSort, opt.Threads); err != nil {
		return nil, nil, err
	}
	return z, rep, nil
}

// runShard contracts one partition with failover: the primary executor is
// the partition's ring shard; each later attempt moves to the next executor
// index. Attempts stop on parent-context cancellation (retrying a canceled
// request would mask the cancellation).
func (c *Coordinator) runShard(ctx context.Context, s int, p, y *coo.Tensor, job Job) shardResult {
	S := len(c.execs)
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.maxAtt; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		ex := c.execs[(s+attempt)%S]
		attempts++
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.timeout)
		}
		t0 := time.Now()
		z, rep, err := ex.Contract(actx, p, y, job)
		cancel()
		if err == nil {
			c.observeShard(ex.Name(), time.Since(t0))
			return shardResult{shard: s, name: ex.Name(), z: z, rep: rep, wall: time.Since(t0), retries: attempt}
		}
		lastErr = err
		c.countFailure(ex.Name())
		if ctx.Err() != nil {
			break // the fan-out (or request) is canceled: stop failing over
		}
	}
	return shardResult{shard: s, err: &ShardError{Shard: c.execs[s].Name(), Attempts: attempts, Err: lastErr}}
}

// aggregate folds the per-shard reports into one request report: stage walls
// are maxima (the concurrent legs' critical path), CPU sums and operation
// counters are sums, and HtYReused holds only if every shard reused its
// table.
func (c *Coordinator) aggregate(reps []*core.Report, opt core.Options) *core.Report {
	agg := &core.Report{
		Algorithm: opt.Algorithm,
		Threads:   opt.Threads,
		HtYReused: true,
	}
	seen := false
	for _, r := range reps {
		if r == nil {
			continue
		}
		for s := core.Stage(0); s < core.NumStages; s++ {
			if r.StageWall[s] > agg.StageWall[s] {
				agg.StageWall[s] = r.StageWall[s]
			}
			agg.StageCPU[s] += r.StageCPU[s]
		}
		if r.HtYBuild >= agg.HtYBuild {
			// The slowest shard's build with its own walls; >= so that
			// shards that all reused their table still report one's.
			agg.HtYBuild, agg.HtYBuildWalls = r.HtYBuild, r.HtYBuildWalls
		}
		agg.HtYReused = agg.HtYReused && r.HtYReused
		if r.SubsortWall > agg.SubsortWall {
			agg.SubsortWall = r.SubsortWall
		}
		agg.NF += r.NF
		if r.MaxSubNNZX > agg.MaxSubNNZX {
			agg.MaxSubNNZX = r.MaxSubNNZX
		}
		if r.MaxSubNNZY > agg.MaxSubNNZY {
			agg.MaxSubNNZY = r.MaxSubNNZY
		}
		if r.DistinctKeysY > agg.DistinctKeysY {
			agg.DistinctKeysY = r.DistinctKeysY
		}
		if r.BucketsHtY > agg.BucketsHtY {
			agg.BucketsHtY = r.BucketsHtY
		}
		agg.SearchSteps += r.SearchSteps
		agg.ProbesHtY += r.ProbesHtY
		agg.HitsY += r.HitsY
		agg.MissY += r.MissY
		agg.Products += r.Products
		agg.SPACompares += r.SPACompares
		agg.ProbesHtA += r.ProbesHtA
		agg.AccumHits += r.AccumHits
		agg.AccumMiss += r.AccumMiss
		agg.DenseSubs += r.DenseSubs
		agg.Streamed = agg.Streamed || r.Streamed
		agg.Windows += r.Windows
		agg.SpilledZ = agg.SpilledZ || r.SpilledZ
		agg.BytesX += r.BytesX
		if r.BytesY > agg.BytesY {
			agg.BytesY = r.BytesY // Y is replicated, not partitioned
		}
		if r.BytesHtY > agg.BytesHtY {
			agg.BytesHtY = r.BytesHtY
		}
		agg.BytesHtA += r.BytesHtA
		if r.BytesHtAPerThr > agg.BytesHtAPerThr {
			agg.BytesHtAPerThr = r.BytesHtAPerThr
		}
		agg.BytesZLocal += r.BytesZLocal
		agg.BytesZ += r.BytesZ
		seen = true
	}
	if !seen {
		agg.HtYReused = false
	}
	return agg
}

func (c *Coordinator) countRequest(outcome string) {
	if c.metrics == nil {
		return
	}
	c.metrics.Counter("sptc_dist_requests_total", "sharded contractions by outcome",
		"outcome", outcome).Inc()
}

func (c *Coordinator) countFailure(shard string) {
	if c.metrics == nil {
		return
	}
	c.metrics.Counter("sptc_dist_shard_failures_total", "failed shard attempts by executor",
		"shard", shard).Inc()
}

func (c *Coordinator) observeShard(shard string, wall time.Duration) {
	if c.metrics == nil {
		return
	}
	c.metrics.Histogram("sptc_dist_shard_seconds", "per-shard contraction wall time",
		[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}, "shard", shard).Observe(wall.Seconds())
}

// outDims computes and validates the merged output's dims: X free dims in
// original mode order, then Y free dims — exactly core's plan order, so the
// per-shard runs and the one-shot output share a coordinate space. A fully
// contracted result is the scalar [1] tensor, matching core.
func outDims(x, y *coo.Tensor, cmodesX, cmodesY []int) ([]uint64, error) {
	if len(cmodesX) == 0 {
		return nil, fmt.Errorf("dist: contraction needs at least one contract-mode pair")
	}
	if len(cmodesX) != len(cmodesY) {
		return nil, fmt.Errorf("dist: %d contract modes for X but %d for Y", len(cmodesX), len(cmodesY))
	}
	inX := make([]bool, x.Order())
	for _, m := range cmodesX {
		if m < 0 || m >= x.Order() || inX[m] {
			return nil, fmt.Errorf("dist: bad X contract mode %d", m)
		}
		inX[m] = true
	}
	inY := make([]bool, y.Order())
	for k, m := range cmodesY {
		if m < 0 || m >= y.Order() || inY[m] {
			return nil, fmt.Errorf("dist: bad Y contract mode %d", m)
		}
		inY[m] = true
		if x.Dims[cmodesX[k]] != y.Dims[m] {
			return nil, fmt.Errorf("dist: contract pair %d: X mode %d has size %d but Y mode %d has size %d",
				k, cmodesX[k], x.Dims[cmodesX[k]], m, y.Dims[m])
		}
	}
	var zdims []uint64
	for m := 0; m < x.Order(); m++ {
		if !inX[m] {
			zdims = append(zdims, x.Dims[m])
		}
	}
	for m := 0; m < y.Order(); m++ {
		if !inY[m] {
			zdims = append(zdims, y.Dims[m])
		}
	}
	if len(zdims) == 0 {
		zdims = []uint64{1}
	}
	return zdims, nil
}
