package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/obs"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// Options configures a contraction. The zero value is the production
// configuration, the paper's Algorithm 2: Sparta (HtY+HtA), all cores, sorted
// output, cloned inputs.
type Options struct {
	// Algorithm selects the SpTC variant; the zero value is AlgSparta. The
	// others are the paper's baselines.
	Algorithm Algorithm
	// Threads is the worker count for every parallel stage; <1 means
	// GOMAXPROCS.
	Threads int
	// SkipOutputSort skips every sort of Z that is a pass of its own:
	// AlgTwoPhase's stage ⑤ (on by default, as in the paper's evaluation)
	// and the re-sort after an einsum spec permutes the output modes. The
	// Zlocal-buffered algorithms order Z inside the writeback gather
	// either way.
	SkipOutputSort bool
	// InPlace lets the algorithm permute and sort the caller's tensors
	// instead of cloning them, saving one copy of each input.
	InPlace bool
	// MaxOutputNNZ aborts the contraction with an error when the output
	// would exceed this many non-zeros (0 = unlimited). SpTC outputs can
	// dwarf both inputs (the paper's challenge 3); the bound is checked
	// while the workers fill Zlocal (each time one opens a chunk) and once
	// more, exactly, after the compute stages — before Z is materialized.
	// The error matches ErrOutputTooLarge.
	MaxOutputNNZ int
	// Tracer, when non-nil, records stage spans and per-worker chunk spans
	// for Chrome trace-event export (sptc-bench -trace). Nil costs nothing.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives counters, gauges, and distribution
	// histograms (probe lengths, worker load, Zlocal growth) after each
	// contraction. Nil costs one predictable branch per hot-loop record.
	Metrics *obs.Registry
}

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y with the selected
// algorithm: contract mode cmodesX[k] of X against cmodesY[k] of Y. The
// output modes are X's free modes (original order) followed by Y's free
// modes. A fully contracted result is returned as a 1-mode, size-1 tensor
// holding the scalar at index 0.
func Contract(x, y *coo.Tensor, cmodesX, cmodesY []int, opt Options) (*coo.Tensor, *Report, error) {
	return ContractCtx(context.Background(), x, y, cmodesX, cmodesY, opt)
}

// ContractCtx is Contract with cancellation: the parallel stage loops
// checkpoint ctx between chunk claims, so a canceled context or an expired
// deadline stops the contraction at the next chunk boundary and returns
// ctx.Err(). Partially computed state is discarded. A Background context
// costs nothing on the hot path.
func ContractCtx(ctx context.Context, x, y *coo.Tensor, cmodesX, cmodesY []int, opt Options) (*coo.Tensor, *Report, error) {
	// Everything is validated before PrepareX may sort the caller's tensor
	// (Options.InPlace).
	p, err := newPlan(x, y, cmodesX, cmodesY)
	if err != nil {
		return nil, nil, err
	}
	rep, err := checkOptions(opt, x.NNZ(), y.NNZ())
	if err != nil {
		return nil, nil, err
	}
	px, err := PrepareX(ctx, x, cmodesX, opt)
	if err != nil {
		return nil, nil, err
	}
	if opt.Algorithm == AlgTwoPhase {
		z, err := contractTwoPhase(ctx, p, px, opt, rep)
		if err != nil {
			return nil, nil, err
		}
		return z, rep, nil
	}
	return contractMain(ctx, p, px, nil, opt, rep)
}

// checkOptions validates the algorithm selector and builds the
// Report skeleton shared by the one-shot and prepared entry points.
func checkOptions(opt Options, nnzX, nnzY int) (*Report, error) {
	switch opt.Algorithm {
	case AlgSPA, AlgCOOHtA, AlgSparta, AlgTwoPhase:
	default:
		return nil, errBadAlgorithm(opt.Algorithm)
	}
	threads := opt.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	return &Report{
		Algorithm: opt.Algorithm,
		Threads:   threads,
		NNZX:      nnzX,
		NNZY:      nnzY,
	}, nil
}

// traceTarget resolves where stage spans go: a request trace in ctx wins
// over the bench-level Options.Tracer, putting the spans on the request's
// private track so concurrent requests never interleave their span trees.
// reqMode additionally suppresses per-worker chunk spans — worker tracks
// are only meaningful for the single-run bench timeline.
func traceTarget(ctx context.Context, opt Options) (tr *obs.Tracer, track int, reqMode bool) {
	if rt := obs.ReqFrom(ctx); rt != nil {
		return rt.Tracer(), rt.Track(), true
	}
	return opt.Tracer, 0, false
}

// contractMain runs stages ①–⑤ for the Zlocal-buffered algorithms on a
// prepared X; what is left of stage ① here is Y's half. When prep is non-nil
// that is skipped too — the prepared table is probed instead and the report
// is marked HtYReused (no "hty build" span is opened) unless this is the
// table's first use. Stages ②–④ run over all of px as one window.
func contractMain(ctx context.Context, p *plan, px *PreparedX, prep *PreparedY, opt Options, rep *Report) (*coo.Tensor, *Report, error) {
	threads := rep.Threads

	// ① Input processing -------------------------------------------------
	// Spans pair with the stage timers; error paths leave a span un-ended,
	// which the tracer simply never records (End is what appends events).
	tr, track, _ := traceTarget(ctx, opt)
	spInput := tr.Start("input processing", track)
	t0 := time.Now()
	var y ySide
	if prep != nil {
		y.hty = prep.hty
		rep.HtYReused = true
		prep.fillReport(rep)
	} else if opt.Algorithm == AlgSparta {
		y.hty = buildHtY(ctx, p, opt, threads, rep)
	} else {
		y.yw = p.y
		if !opt.InPlace {
			y.yw = y.yw.SortableView()
		}
		if err := y.yw.Permute(p.permY); err != nil {
			return nil, nil, err
		}
		y.yw.Sort(threads)
		var err error
		if y.ptrCY, err = y.yw.SubPtrPar(p.ncm, threads); err != nil {
			return nil, nil, err
		}
		rep.BytesY = y.yw.Bytes()
		rep.DistinctKeysY = len(y.ptrCY) - 1
		rep.MaxSubNNZY = coo.MaxSubNNZ(y.ptrCY)
	}
	rep.StageWall[StageInput] = time.Since(t0)
	rep.StageCPU[StageInput] = rep.StageWall[StageInput]
	px.fillReport(rep)
	spInput.End()

	z, err := runStages(ctx, p, y, px.windows(0), nil, opt, rep)
	if err != nil {
		return nil, nil, err
	}
	if prep != nil {
		prep.chargeBuild(rep)
	}
	return z, rep, nil
}

// ySide is what stage ② searches: HtY for Sparta, the sorted COO Y and its
// contract-key index for the baselines.
type ySide struct {
	hty   *hashtab.HtYFlat
	yw    *coo.Tensor
	ptrCY []int
}

// window is runStages' unit of input: X's rows under the contraction
// permutation (free modes first) and the index of the sub-tensors it runs.
// The entries of ptrFX are row offsets into view, so a window of a PreparedX
// is a sub-slice of its index over its shared columns, and a file window is
// the window's own rows with their own index.
type window struct {
	view  *coo.Tensor
	ptrFX []int
}

// runStages is stages ②–④, the one loop every tier runs. It builds the
// workers once; for each window next yields (view nil: no more) it runs the
// window's sub-tensors in ascending order, each search → accumulate → write
// on one worker, and gathers their Zlocal runs into one sorted run; it merges
// and publishes the workers' accounts once at the end. With a nil sink next
// yields one window and its run is Z, exactly as gatherFused made it.
// Otherwise each run goes to the sink, which returns Z: windows end at
// sub-tensor boundaries, so the runs are disjoint and ascending and their
// concatenation is the one-window Z, bitwise.
func runStages(ctx context.Context, p *plan, y ySide, next func() (window, error), sink *zSink, opt Options, rep *Report) (*coo.Tensor, error) {
	threads := rep.Threads
	tr, track, reqMode := traceTarget(ctx, opt)
	ws := makeWorkers(threads, p, opt)
	var z *coo.Tensor
	var gatherWall, gatherCPU time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		win, err := next()
		if err != nil {
			return nil, err
		}
		if win.view == nil {
			break
		}
		nf := len(win.ptrFX) - 1
		if err := checkSubTensorCount(nf); err != nil {
			return nil, err
		}
		// chunk < 1 defers the chunk size to ForChunked's own heuristic (the
		// single source of truth for chunking).
		spCompute := tr.Start("compute", track)
		cerr := parallel.ForChunkedWorkCtx(ctx, threads, nf, 0, int64(win.ptrFX[nf]-win.ptrFX[0]), func(tid, lo, hi int) {
			var sp obs.Span
			if !reqMode {
				sp = tr.Start("subtensor chunk", tid+1)
			}
			w := ws[tid]
			w.startClock()
			for f := lo; f < hi && w.err == nil; f++ {
				switch opt.Algorithm {
				case AlgSparta:
					w.subSparta(p, win.view, y.hty, win.ptrFX, f)
				case AlgCOOHtA:
					w.subCOOHtA(p, win.view, y.yw, win.ptrFX, y.ptrCY, f)
				case AlgSPA:
					w.subSPA(p, win.view, y.yw, win.ptrFX, y.ptrCY, f)
				}
			}
			w.stopClock()
			sp.End()
		})
		spCompute.End()
		if cerr != nil {
			return nil, cerr
		}
		if err := writebackErr(ws); err != nil {
			return nil, err
		}

		// ④ Writeback: gather thread-local Zlocal into the window's run.
		spGather := tr.Start("writeback gather", track)
		t0 := time.Now()
		run, cpu, err := gatherFused(p, win.view, win.ptrFX, ws, rep)
		if err != nil {
			return nil, err
		}
		gatherWall += time.Since(t0)
		gatherCPU += cpu
		spGather.End()
		if sink == nil {
			z = run
			break
		}
		for _, w := range ws {
			w.z.reset()
		}
		if err := sink.append(run); err != nil {
			return nil, err
		}
		rep.Windows++
	}
	mergeWorkerStats(rep, ws)
	if sink != nil {
		spMerge := tr.Start("z merge", track)
		t0 := time.Now()
		var err error
		if z, err = sink.finish(); err != nil {
			return nil, err
		}
		merge := time.Since(t0)
		gatherWall += merge
		gatherCPU += merge
		spMerge.End()
	}
	rep.StageWall[StageWrite] += gatherWall
	rep.StageCPU[StageWrite] += gatherCPU
	rep.NNZZ = z.NNZ()
	rep.BytesZ = z.Bytes()
	if p.nfy > 0 {
		rep.EstBytesHtAPerTh = hashtab.EstimateHtABytes(
			hashtab.NextPow2(rep.MaxSubNNZY), rep.MaxSubNNZX, rep.MaxSubNNZY, p.nfy)
	}

	// ⑤ Output sorting: the gather already produced Z in lexicographic
	// order (f-ordered scatter + per-run LN(Fy) sorts). The residual per-run
	// sort time is reported as rep.SubsortWall, charged to StageWrite where
	// it ran.
	publishMetrics(opt.Metrics, rep, ws, nil)
	return z, nil
}

// ErrOutputTooLarge is what errors.Is matches for every MaxOutputNNZ
// violation, whichever algorithm or driver reported it.
var ErrOutputTooLarge = errors.New("core: output exceeds MaxOutputNNZ")

// OutputTooLargeError is the concrete MaxOutputNNZ error. Got is the output
// non-zero count when the contraction stopped: the exact total when the
// bound tripped after the compute stages, a lower bound when a worker
// tripped it while filling Zlocal.
type OutputTooLargeError struct {
	Got, Limit int
}

func (e *OutputTooLargeError) Error() string {
	return fmt.Sprintf("core: output has %d non-zeros, exceeding MaxOutputNNZ %d", e.Got, e.Limit)
}

func (e *OutputTooLargeError) Unwrap() error { return ErrOutputTooLarge }

// ErrRunOverflow reports a contraction Zlocal's 32-bit run records cannot
// describe: more than MaxInt32 X sub-tensors, or one sub-tensor producing
// more than MaxInt32 output non-zeros.
var ErrRunOverflow = errors.New("core: sub-tensor id or run length overflows int32")

// checkSubTensorCount rejects an X whose sub-tensor ids do not fit zsub.f.
func checkSubTensorCount(nf int) error {
	if nf > math.MaxInt32 {
		return fmt.Errorf("%w: X has %d sub-tensors", ErrRunOverflow, nf)
	}
	return nil
}

// writebackErr closes the compute stages' output account: the first failure
// a worker recorded while flushing, else — with every worker's unreported
// entries folded in — the exact MaxOutputNNZ check.
func writebackErr(ws []*worker) error {
	for _, w := range ws {
		if w.err != nil {
			return w.err
		}
	}
	limit := ws[0].z.limit
	if limit == nil {
		return nil
	}
	for _, w := range ws {
		w.z.report()
	}
	if got := int(limit.total.Load()); got > limit.max {
		return &OutputTooLargeError{Got: got, Limit: limit.max}
	}
	return nil
}

// errBadAlgorithm keeps the error text alongside the enum.
type errBadAlgorithm Algorithm

func (e errBadAlgorithm) Error() string {
	return "core: unknown algorithm " + Algorithm(e).String()
}

// reportHtY records the table-side statistics of a built or reused HtY.
func reportHtY(rep *Report, hty *hashtab.HtYFlat, nnzY, orderY int, bytesY uint64) {
	rep.BytesY = bytesY
	rep.BytesHtY = hty.Bytes()
	rep.BucketsHtY = hty.NumBuckets()
	rep.DistinctKeysY = hty.NKeys
	rep.MaxSubNNZY = hty.MaxItems
	rep.EstBytesHtY = hashtab.EstimateHtYBytes(nnzY, orderY, hty.NumBuckets())
	rep.HtYBuildWalls = hty.Walls
}

// buildHtY runs the COO→HtY conversion and records the table stats plus
// the build-only wall time (rep.HtYBuild), separate from X's permute+sort.
// The table is sized from Y's distinct-key count. The build does not consult
// ctx; callers checkpoint around it.
func buildHtY(ctx context.Context, p *plan, opt Options, threads int, rep *Report) *hashtab.HtYFlat {
	tr, track, _ := traceTarget(ctx, opt)
	sp := tr.Start("hty build", track)
	defer sp.End()
	t0 := time.Now()
	hty := hashtab.BuildHtYFlat(p.y, p.cmodesY, p.fmodesY, p.radC, p.radFY, 0, threads)
	rep.HtYBuild = time.Since(t0)
	reportHtY(rep, hty, p.y.NNZ(), p.y.Order(), p.y.Bytes())
	return hty
}

// gatherFused is the sort-fused writeback: it allocates Z exactly (the sum
// of all Zlocal sizes is known — the paper's answer to the
// unknown-output-size challenge) and scatters each sub-tensor's run to a
// destination computed from the sub-tensor id f — a prefix sum over per-f
// output counts — after radix-sorting the run by LN(Fy) in place.
//
// Why that yields a fully sorted Z: X is sorted, so ascending f enumerates
// the distinct free-X tuples in lexicographic order; within one f the free-X
// columns are constant and the accumulator keys (unique per run) sort the
// free-Y columns. Every f is processed by exactly one worker, so the per-f
// counts never collide. Stage ⑤ on this path is the per-run sorts, reported
// as rep.SubsortWall (max across workers, as stage walls are).
//
// The scatter is column-major: a run is three column writes — its values
// copied, each free-X column filled with the run's constant, its keys decoded
// into the free-Y columns by one Radix.DecodeColumns call. The returned
// duration is the gather's CPU time: Z's allocation on the calling goroutine
// plus each scatter goroutine's busy interval, one clock pair per goroutine.
func gatherFused(p *plan, xw *coo.Tensor, ptrFX []int, ws []*worker, rep *Report) (*coo.Tensor, time.Duration, error) {
	allocStart := time.Now()
	nf := len(ptrFX) - 1
	counts := make([]int, nf)
	for _, w := range ws {
		for _, c := range w.z.live() {
			for _, sub := range c.subs {
				counts[sub.f] = int(sub.n)
			}
		}
	}
	offsets, total := parallel.PrefixSum(counts)
	z, err := coo.New(p.zdims, 0)
	if err != nil {
		return nil, 0, err
	}
	z.Vals = make([]float64, total)
	for m := range z.Inds {
		z.Inds[m] = make([]uint32, total)
	}

	var maxKey uint64
	if c := p.radFY.Card(); c > 0 {
		maxKey = c - 1
	}
	xCols := xw.Inds[:p.nfx]
	zIndsX := z.Inds[:p.nfx]
	zIndsY := z.Inds[p.nfx : p.nfx+p.nfy] // empty for a scalar Z's placeholder mode
	zVals := z.Vals
	radFY := p.radFY
	// Per-worker scratch lives out here so the scatter closure itself stays
	// allocation-free; the -perf lint gate holds the closure at zero heap
	// escapes and zero bounds checks. The guards on impossible conditions
	// below (runs tiling Zlocal, offsets tiling [0,total)) exist for the
	// bounds-check prover and replace the compiler's implicit panics.
	sks := make([][]uint64, len(ws))
	svs := make([][]float64, len(ws))
	subsortNS := make([]int64, len(ws))
	busyNS := make([]int64, len(ws))
	cpu := time.Since(allocStart) // Z's allocation, on the calling goroutine
	parallel.For(len(ws), len(ws), func(_, wlo, whi int) {
		if wlo < 0 || wlo >= whi || whi > len(ws) || whi > len(sks) ||
			whi > len(svs) || whi > len(subsortNS) || whi > len(busyNS) {
			return // impossible: parallel.For splits [0,len(ws)) into non-empty ranges
		}
		start := gatherNow()
		for wi := wlo; wi < whi; wi++ {
			w := ws[wi]
			chunks, used := w.z.chunks, w.z.used
			if used < 0 || used > len(chunks) {
				continue // impossible: used counts the live prefix of chunks
			}
			// One chunk at a time, so a chunk is still in cache when its
			// sorted runs are scattered; each chunk's runs tile it exactly.
			for _, c := range chunks[:used] {
				lns, vals := c.lns, c.vals
				// Pass 1: sort every run by LN(Fy). Timed per chunk so the
				// residual stage-⑤ cost is exact without per-run clock calls.
				// Runs are mostly tiny (output nnz over nf is often ~2), so
				// one- and two-element runs are handled inline and longer runs
				// only enter SortPairs when a cheap sweep finds them unsorted
				// (HtY item lists frequently come out of the build key-ordered).
				t0 := time.Now()
				k := 0
				for _, sub := range c.subs {
					n := int(sub.n)
					end := k + n
					if n < 0 || k < 0 || end < k || end > len(lns) || end > len(vals) {
						break // impossible: runs tile the chunk exactly
					}
					runK := lns[k:end]
					runV := vals[k:end]
					switch {
					case n < 2:
					case n == 2:
						if runK[0] > runK[1] {
							runK[0], runK[1] = runK[1], runK[0]
							runV[0], runV[1] = runV[1], runV[0]
						}
					default:
						sortx.SortPairs(runK, runV, maxKey, &sks[wi], &svs[wi])
					}
					k = end
				}
				subsortNS[wi] += int64(time.Since(t0))
				// Pass 2: scatter the sorted runs to their f-ordered slots.
				k = 0
				for _, sub := range c.subs {
					n := int(sub.n)
					f := int(sub.f)
					end := k + n
					if n < 0 || k < 0 || end < k || end > len(lns) || end > len(vals) ||
						f < 0 || f >= len(offsets) || f >= len(ptrFX) {
						break // impossible: subs reference valid sub-tensors
					}
					runK := lns[k:end]
					runV := vals[k:end]
					pos := offsets[f]
					xAt := ptrFX[f]
					zend := pos + n
					if pos < 0 || zend < pos || zend > len(zVals) {
						break // impossible: per-f offsets tile [0,total)
					}
					copy(zVals[pos:zend], runV)
					// Free-X columns are constant across one run.
					for m, col := range xCols {
						if m >= len(zIndsX) || xAt < 0 || xAt >= len(col) {
							continue // impossible: X columns span nnz_X
						}
						v := col[xAt]
						dst := zIndsX[m]
						if pos < 0 || zend < pos || zend > len(dst) {
							continue // impossible: Z columns span total
						}
						run := dst[pos:zend]
						for j := range run {
							run[j] = v
						}
					}
					// Free-Y columns decode from the run's keys, one column
					// at a time.
					radFY.DecodeColumns(runK, zIndsY, pos)
					k = end
				}
			}
		}
		busyNS[wlo] = gatherNow() - start
	})
	for i, ns := range subsortNS {
		if d := time.Duration(ns); d > rep.SubsortWall {
			rep.SubsortWall = d
		}
		cpu += time.Duration(busyNS[i])
	}
	return z, cpu, nil
}

// mergeWorkerStats folds per-thread timing and counters into the report:
// wall = max across threads (the stages run concurrently), cpu = sum.
func mergeWorkerStats(rep *Report, ws []*worker) {
	for _, w := range ws {
		walls := [...]time.Duration{
			StageSearch: time.Duration(w.searchNS),
			StageAccum:  time.Duration(w.accumNS),
			StageWrite:  time.Duration(w.writeNS),
		}
		for s := StageSearch; s <= StageWrite; s++ {
			if walls[s] > rep.StageWall[s] {
				rep.StageWall[s] = walls[s]
			}
			rep.StageCPU[s] += walls[s]
		}
		rep.SearchSteps += w.searchSteps
		rep.ProbesHtY += w.probesHtY
		rep.HitsY += w.hits
		rep.MissY += w.miss
		rep.Products += w.products
		if w.hta != nil {
			// A dense add is one direct-indexed "probe"; its misses are the
			// cells it occupied first, so hits + misses == products on
			// either path.
			rep.ProbesHtA += w.hta.Probes + w.denseAdds
			rep.AccumHits += w.hta.Hits + w.denseAdds - w.denseMiss
			rep.AccumMiss += w.hta.Misses + w.denseMiss
			rep.DenseSubs += w.denseSubs
			b := w.hta.Bytes() + w.dense.bytes()
			rep.BytesHtA += b
			if b > rep.BytesHtAPerThr {
				rep.BytesHtAPerThr = b
			}
		}
		if w.spa != nil {
			rep.SPACompares += w.spa.Compares
			rep.AccumHits += w.spaHits
			rep.AccumMiss += w.spaMiss
			b := w.spa.Bytes()
			rep.BytesHtA += b
			if b > rep.BytesHtAPerThr {
				rep.BytesHtAPerThr = b
			}
		}
		rep.BytesZLocal += w.z.bytes()
	}
}
